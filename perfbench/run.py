"""Layered benchmark for pflags: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload flat-descent --seed 0 --seconds 20 --trace 0

Set-up (timed, repeated SETUPS times, median reported as ``setup_s``):
import ``pflags`` afresh, generate the workload's JSON payloads from the seed,
build every field the payloads name through ``jsonio.field_from_json`` (the
``GF`` tables), and run one payload of each operation as warm-up.

Measurement (``--trace 0``): one thread calls the library through
``pflags.ops.OP_TABLE`` (or ``pflags.cli.main`` for ``cli-mix``), one payload
at a time, in whole passes over the payload list until ``--seconds`` have
passed.  Every output is checked.  The last line of stdout is one JSON object
with the end-to-end metrics; the lines above it repeat them for a reader,
with sample counts and ``failed_share``.

Traced run (``--trace 1``): one untraced pass, then a fresh import with the
wrappers of ``tracing.py`` installed and one traced pass; the JSON line holds
the per-layer metrics and ``trace.overhead_ratio``, and the full call table
and spans are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = ROOT / ".perfbench-out"
SETUPS = 5
BLOCK_S = 0.1  # op time between two readings of the machine's speed
CAL_NOMINAL_S = 0.0015  # one calibration reading at the reference speed

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


# -- machine speed ----------------------------------------------------------------------


class _Poly:
    """A frozen copy of the kind of code pflags runs (slotted objects holding
    coefficient tuples, list arithmetic mod p), used only to read the
    machine's speed; it shares no code with the program being measured."""

    __slots__ = ("p", "c")

    def __init__(self, p: int, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.p, self.c = p, tuple(cs)

    def __mul__(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        return _Poly(self.p, [v % self.p for v in out])

    def __mod__(self, other):
        p, rem, db = self.p, list(self.c), len(other.c) - 1
        inv = pow(other.c[-1], p - 2, p)
        for shift in range(len(rem) - db - 1, -1, -1):
            c = rem[shift + db] * inv % p
            if c:
                for i, bc in enumerate(other.c):
                    rem[shift + i] = (rem[shift + i] - c * bc) % p
        return _Poly(p, rem)


def _calibration_work():
    """Fixed work: gcds of products of small polynomials over F_7."""
    for k in range(20):
        a = (_Poly(7, [(k * 3 + i * i) % 7 for i in range(9)])
             * _Poly(7, [(i + k) % 7 for i in range(8)]))
        b = (_Poly(7, [(i * 5 + k) % 7 for i in range(7)])
             * _Poly(7, [(2 * i + 1) % 7 for i in range(6)]))
        while b.c:
            a, b = b, a % b


def calibration() -> float:
    """Seconds the calibration work takes right now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two calibration readings
    to the reference speed at which one reading takes CAL_NOMINAL_S.  The
    shared host this benchmark was tuned on changes speed by up to 70% within
    seconds, which no amount of repetition averages out."""
    return CAL_NOMINAL_S / ((before + after) / 2)


# -- set-up ---------------------------------------------------------------------------


def fresh_import():
    """Import pflags from the checkout's src/ as if for the first time."""
    for name in [n for n in sys.modules if n == "pflags" or n.startswith("pflags.")]:
        del sys.modules[name]
    import pflags.cli  # noqa: F401
    import pflags.jsonio  # noqa: F401
    import pflags.ops  # noqa: F401

    return sys.modules["pflags"]


def _fields(obj, out: dict):
    """Every {"field": {...}} object in a payload, keyed by canonical text."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "field" and isinstance(value, dict):
                out[workloads.dumps(value)] = value
            else:
                _fields(value, out)
    elif isinstance(obj, list):
        for value in obj:
            _fields(value, out)


def set_up(workload: str, seed: int, tracer: Tracer | None = None):
    start = time.perf_counter()
    lib = fresh_import()
    if tracer is not None:
        tracer.install()
    items = workloads.generate(workload, seed)
    fields: dict = {}
    for item in items:
        try:
            _fields(json.loads(item["payload"]), fields)
        except json.JSONDecodeError:
            continue  # deliberately malformed cli-mix payload
    for field in fields.values():
        lib.jsonio.field_from_json(field)
    # warm up on each operation's shortest payload, so the warm-up costs the
    # same whatever the seed put first
    warm = {}
    for item in items:
        if item["op"] not in warm or len(item["payload"]) < len(warm[item["op"]]["payload"]):
            warm[item["op"]] = item
    for item in warm.values():
        run_item(lib, item)
    return lib, items, time.perf_counter() - start


# -- one operation ----------------------------------------------------------------------


def run_item(lib, item: dict):
    """Run one payload; returns (seconds, outcome).  Exceptions propagate."""
    clock = time.perf_counter
    if "argv" in item:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = clock()
            code = lib.cli.main(item["argv"])
            end = clock()
        return end - start, (code, buf.getvalue())
    payload = json.loads(item["payload"])
    op = lib.ops.OP_TABLE[item["op"]]
    start = clock()
    out = op(payload)
    end = clock()
    return end - start, json.loads(workloads.dumps(out))


class Judge:
    """Counts attempted and failed operations.

    An execution fails when it raises, when its output breaks a fact the
    generator recorded, or when its digest differs from the recorded output
    for this seed (``golden/``) or, for seeds without one, from the first
    execution of the same payload in this run.
    """

    def __init__(self, workload: str, seed: int, items: list[dict]):
        self.inputs_digest = check.inputs_digest(items)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.inputs_changed = False
        self.expected: list[str | None] = [None] * len(items)
        self.checked: set[int] = set()
        self.golden = False
        path = GOLDEN / f"{workload}.json"
        recorded = json.loads(path.read_text())["seeds"].get(str(seed)) if path.exists() else None
        if recorded is not None:
            if recorded["inputs"] != self.inputs_digest:
                self.inputs_changed = True
                self.notes.append(f"inputs changed: sha256 {self.inputs_digest}, "
                                  f"recorded {recorded['inputs']}")
            else:
                out, n = recorded["outputs"], check.DIGEST_LEN
                self.expected = [out[i:i + n] for i in range(0, len(out), n)]
                self.golden = True

    def _fail(self, item: dict, why: str):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{item['stratum']}: {why}")

    def crashed(self, item: dict, exc: BaseException):
        self.attempted += 1
        self._fail(item, f"unexpected {type(exc).__name__}: {exc}")

    def __call__(self, index: int, item: dict, outcome):
        self.attempted += 1
        found = []
        if index not in self.checked:
            self.checked.add(index)
            found = check.problems(item, outcome)
        digest = check.output_digest(item, outcome)
        want = self.expected[index]
        if want is None:
            self.expected[index] = digest
        elif digest != want:
            found.append("output differs from the recorded output" if self.golden
                         else "output differs from the first run of the same payload")
        if found:
            self._fail(item, "; ".join(found))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.inputs_changed


def one_pass(lib, items: list[dict], judge: Judge,
             per_item: list[list[float]]) -> tuple[int, float, float]:
    """Run every payload once.  Returns (completed, seconds inside the calls,
    the same seconds at the reference speed); per_item gets scaled times.

    The machine's speed is read before the pass and after every BLOCK_S of
    op time, and each op's time is scaled by the readings around its block.
    """
    done, raw, scaled = 0, 0.0, 0.0
    block: list[tuple[int, float]] = []
    before = calibration()
    for index, item in enumerate(items):
        try:
            seconds, outcome = run_item(lib, item)
        except Exception as exc:  # an unexpected library exception is a failed op
            judge.crashed(item, exc)
        else:
            block.append((index, seconds))
            judge(index, item, outcome)
        if block and (index == len(items) - 1 or sum(s for _, s in block) >= BLOCK_S):
            after = calibration()
            scale = speed_scale(before, after)
            for i, seconds in block:
                per_item[i].append(seconds * scale)
                raw += seconds
                scaled += seconds * scale
            done += len(block)
            before, block = after, []
    return done, raw, scaled


# -- runs -------------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float):
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        before = calibration()
        lib, items, took = set_up(workload, seed)
        setups.append(took * speed_scale(before, calibration()))
        raw_setups.append(took)
    judge = Judge(workload, seed, items)
    per_item: list[list[float]] = [[] for _ in items]
    raw_rates = []
    passes = 0
    start = time.perf_counter()
    while True:
        done, raw, _ = one_pass(lib, items, judge, per_item)
        passes += 1
        if raw > 0:
            raw_rates.append(done / raw)
        if time.perf_counter() - start >= seconds:
            break
    # each payload's time is the median of its runs; throughput and
    # percentiles are taken over these per-payload times
    lat = [statistics.median(ts) for ts in per_item if ts]
    p95 = statistics.quantiles(lat, n=100, method="inclusive")[94] if len(lat) > 1 else lat[0]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p95_ms": p95 * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in lat if x > p95)
    runs = sum(len(ts) for ts in per_item)
    counts = {
        "ops_per_s": f"{len(lat)} payloads, median of {passes} passes each",
        "latency_p50_ms": f"n={len(lat)} payloads, {runs} runs",
        "latency_p95_ms": f"n={len(lat)} payloads, {beyond} beyond it",
        "setup_s": f"median of {SETUPS} set-ups",
        "peak_rss_mb": "ru_maxrss",
    }
    lines = [f"{name:16s} {value:14.6f} {END_TO_END_UNITS[name]:6s} ({counts[name]})"
             for name, value in metrics.items()]
    lines.append(f"{'unscaled':16s} {statistics.median(raw_rates):14.6f} ops/s  "
                 f"{statistics.median(raw_setups):.6f} s set-up (wall clock, before the "
                 f"speed scaling; one calibration reading is {CAL_NOMINAL_S} s at the reference)")
    share = judge.failed / judge.attempted if judge.attempted else 1.0
    lines.append(f"{'failed_share':16s} {share:14.6f} {'ratio':6s} "
                 f"({judge.failed} of {judge.attempted} attempted)")
    return judge, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, lines


def traced_run(workload: str, seed: int):
    lib, items, _ = set_up(workload, seed)
    judge = Judge(workload, seed, items)
    per_item: list[list[float]] = [[] for _ in items]
    _, _, plain = one_pass(lib, items, judge, per_item)
    tracer = Tracer()
    lib, items, _ = set_up(workload, seed, tracer)
    tracer.reset()
    _, _, traced = one_pass(lib, items, judge, per_item)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / plain
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "calls": tracer.table(), "spans": tracer.spans}))
    lines = [f"{name:32s} {value:16.6f} {per_layer_unit(name)}" for name, value in metrics.items()]
    return judge, {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pflags" / "__init__.py").is_file():
        print(f"perfbench: no pflags sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        judge, metrics, lines = traced_run(args.workload, args.seed)
    else:
        judge, metrics, lines = timed_run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {judge.inputs_digest}"
          f" ({'recorded outputs' if judge.golden else 'no recorded outputs for this seed'})")
    for line in lines:
        print(line)
    for note in judge.notes:
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
