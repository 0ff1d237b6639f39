"""Record the expected outputs of every benchmark payload for a range of seeds.

    python3 perfbench/make_golden.py            # seeds 0-31, every workload
    python3 perfbench/make_golden.py --seeds 0-3 --workload cli-mix

For each workload and seed this generates the payloads exactly as run.py does,
runs each payload once through the same call path, checks every fact the
generator knows about the output, and stores the digest of the inputs and of
every output in ``perfbench/golden/<workload>.json``.  It refuses to record
an output that raises or fails a check.  Run it only when the canonical
outputs are meant to change; run.py compares against these files.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets up sys.path for the benchmark's own modules

import check  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, seed: int) -> dict:
    lib = run.fresh_import()
    items = workloads.generate(workload, seed)
    outputs = []
    for item in items:
        _, outcome = run.run_item(lib, item)
        found = check.problems(item, outcome)
        if found:
            raise SystemExit(f"{workload} seed {seed} {item['stratum']}: {'; '.join(found)}")
        outputs.append(check.output_digest(item, outcome))
    return {"inputs": check.inputs_digest(items), "outputs": "".join(outputs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, str(run.SRC))
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        path = run.GOLDEN / f"{workload}.json"
        data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        for seed in seeds:
            data["seeds"][str(seed)] = entry = record(workload, seed)
            print(f"{workload} seed {seed}: {len(entry['outputs']) // check.DIGEST_LEN} outputs")
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
