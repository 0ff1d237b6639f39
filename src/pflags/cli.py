"""Command-line front end.

Every subcommand parses a JSON payload (from --input FILE or --inline), runs
one library operation through the shared op table, and emits either a short
text summary or, with --json, a canonical machine-readable report that is
byte-identical across runs.

Exit codes: 0 success; 1 validation or invariant violations (reported, not
crashed); 2 precondition, needs-extension and other library errors; 3 parse
or usage errors.

A command line is parsed once: when its first word names a subcommand, that
subcommand's own parser reads the remaining words, as the top-level parser
would hand them on, and words it leaves over are reported through the
top-level parser.  Any other command line (empty, ``-h``, an unknown name)
goes through the top-level parser.  The modules behind ``selftest``'s
property suites are imported only when ``selftest`` runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from gettext import gettext
from pathlib import Path
from typing import Any, NamedTuple

from . import ops
from .errors import InternalInvariantError, ParseError, PflagsError, PreconditionError
from .jsonio import canonical_dumps, digest

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3


class Subcommand(NamedTuple):
    op: str  # name in ops.OP_TABLE
    key: str | None  # the input is wrapped under this key; None: it is the op payload
    flags: dict[str, int | None]  # integer flags and their defaults; set over the input
    invariants: list[str]
    violations: bool = False  # a nonempty result lists violations (exit 1)


SUBCOMMANDS = {
    "pone-check": Subcommand("validate", "connection", {}, ["infinity-chart-regularity"],
                             violations=True),
    "pone-pcurv": Subcommand("pm1_curvature", "connection", {}, ["connection-valid"]),
    "pone-flag": Subcommand("complete_flag", "connection", {},
                            ["connection-valid", "flag-stability-verified"]),
    "pone-descend": Subcommand("cartier_descent", "connection", {},
                               ["connection-valid", "psi-vanishes", "frame-horizontal",
                                "frame-invertible"]),
    "pone-pullback": Subcommand("frobenius_pullback", "connection", {"s": 1},
                                ["connection-valid"]),
    "ell-profile": Subcommand("atiyah_profile", None, {"r": None, "d": None},
                              ["gcd-invariance", "conservation"]),
    "ell-classes": Subcommand("line_classes", None, {}, ["gcd-invariance", "conservation"]),
    "ell-admits": Subcommand("admits_connection", None, {"p": None}, ["profile-conservation"]),
    "ell-skeleton": Subcommand("flag_skeleton", None, {"p": None},
                               ["connection-existence", "profile-conservation"]),
    "ell-peel": Subcommand("peel_order", None, {}, ["deterministic-order"]),
    "hit-charpoly": Subcommand("char_poly_psi", "chart", {},
                               ["psi-O-linearity", "coefficient-descent"]),
    "hit-dims": Subcommand("hitchin_dims", None, {"g": None, "r": None}, ["genus-bound"]),
    "hit-cert": Subcommand("no_flag_certificate", "chart", {},
                           ["psi-O-linearity", "coefficient-descent"]),
    "hit-nilflag": Subcommand("nilpotent_flag", "chart", {},
                              ["psi-O-linearity", "psi-nilpotent", "gauge-triangularizes"]),
}

FLAG_HELP = {
    "s": "Frobenius pullback steps",
    "r": "rank",
    "d": "degree",
    "g": "genus (>= 2)",
    "p": "characteristic",
}

# library error -> (report status, exit code); the most specific class listed
# wins, so PreconditionError, NeedsExtensionError, InvalidFieldError and any
# other library error are precondition errors
ERROR_STATUS = {
    ParseError: ("parse-error", EXIT_PARSE),
    InternalInvariantError: ("invariant-violation", EXIT_VIOLATION),
    PflagsError: ("precondition-error", EXIT_PRECONDITION),
}


def _error_status(exc: PflagsError) -> tuple[str, int]:
    return next(ERROR_STATUS[cls] for cls in type(exc).__mro__ if cls in ERROR_STATUS)


# built once per process: it depends only on SUBCOMMANDS and FLAG_HELP, each parse
# returns a fresh Namespace, and argparse reads the streams and terminal width at print
# time.  Returns the top-level parser and each subcommand's parser by name, as add_parser
# returned them, so main can hand a command line straight to its subcommand's parser.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pflags",
        description="Exact calculations with flags of flat bundles in characteristic p.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    subparsers = {}
    for name, row in SUBCOMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, help=f"run the {row.op} operation")
        sp.add_argument("--input", help="path to the JSON input payload")
        sp.add_argument("--inline", help="inline JSON input payload")
        sp.add_argument("--json", action="store_true", help="emit the full JSON report")
        for flag, default in row.flags.items():
            sp.add_argument(f"--{flag}", type=int, default=default, help=FLAG_HELP[flag])
    st = subparsers["selftest"] = sub.add_parser(
        "selftest", help="run the fixture corpus and fast property suites")
    st.add_argument("--filter", default="", help="only run items whose name contains this")
    st.add_argument("--seed", type=int, default=0, help="seed for the property suites")
    st.add_argument("--corpus", help="override the fixture corpus directory")
    st.add_argument("--json", action="store_true", help="emit the full JSON report")
    return parser, subparsers


def _load_payload(args) -> Any:
    if args.input and args.inline:
        raise ParseError("give either --input or --inline, not both")
    if args.input:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    elif args.inline:
        text = args.inline
    else:
        return None
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past CPython's digit limit
        raise ParseError(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON input: nested too deeply") from exc


def _assemble(row: Subcommand, args, payload: Any) -> dict:
    """The op payload: the input, wrapped under the row's key or else a JSON
    object, with every flag that was given or has a default set over it.  With
    no input, the flags alone stand in when the row has flags and all are set."""
    flags = {flag: getattr(args, flag) for flag in row.flags}
    if payload is None:
        if row.key is None and flags and None not in flags.values():
            return flags
        raise ParseError("a JSON input payload is required (--input or --inline)")
    if row.key is not None:
        payload = {row.key: payload}
    elif not isinstance(payload, dict):
        raise ParseError("input payload must be a JSON object")
    return {**payload, **{flag: value for flag, value in flags.items() if value is not None}}


def _report(subcommand: str, payload: Any, result: Any, invariants: list[str],
            status: str, exit_code: int, error: str | None = None) -> dict:
    report = {
        "subcommand": subcommand,
        "inputs_digest": digest(payload),
        "result": result,
        "invariants_checked": invariants,
        "status": status,
        "exit_code": exit_code,
    }
    if error is not None:
        report["error"] = error
    return report


def _emit(report: dict, as_json: bool):
    if as_json:
        print(canonical_dumps(report))
        return
    print(f"{report['subcommand']}: {report['status']}")
    if report.get("error"):
        print(f"  error: {report['error']}")
    else:
        print(f"  result: {canonical_dumps(report['result'])}")
    if report["invariants_checked"]:
        print(f"  invariants: {', '.join(report['invariants_checked'])}")


def _run_subcommand(name: str, args) -> int:
    row = SUBCOMMANDS[name]
    try:
        payload = _assemble(row, args, _load_payload(args))
        result = ops.OP_TABLE[row.op](payload)
    except PflagsError as exc:
        status, exit_code = _error_status(exc)
        checked = [] if exit_code == EXIT_PARSE else row.invariants
        _emit(_report(name, None, None, checked, status, exit_code, str(exc)), args.json)
        return exit_code
    violated = bool(row.violations and result)
    status, exit_code = ("violations", EXIT_VIOLATION) if violated else ("ok", EXIT_OK)
    _emit(_report(name, payload, result, row.invariants, status, exit_code), args.json)
    return exit_code


# -- selftest ---------------------------------------------------------------------------


def _load_fixtures(corpus: str | None) -> list[dict]:
    if corpus:
        if not Path(corpus).is_dir():
            raise ValueError(f"{corpus} is not a directory")
        paths = sorted(Path(corpus).glob("*.json"))
        if not paths:
            raise ValueError(f"{corpus} holds no *.json file")
    else:
        from importlib import resources  # only the default corpus needs it
        paths = [resources.files("pflags").joinpath("fixtures/fixtures.json")]
    items: list[dict] = []
    for path in paths:
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path.name}: {exc}") from exc
        if not isinstance(loaded, list) or not all(isinstance(item, dict) for item in loaded):
            raise ValueError(f"{path.name} is not a JSON array of objects")
        for i, item in enumerate(loaded):
            expect = item.get("expect", {})
            if not (isinstance(expect, dict) and isinstance(expect.get("value_subset", {}), dict)
                    and all(isinstance(item.get(key, ""), str) for key in ("name", "op"))):
                raise ValueError(f"{path.name}: item {i} has a malformed name, op or expect")
        items.extend(loaded)
    return items


def _run_fixture(item: dict) -> tuple[bool, str]:
    op = ops.OP_TABLE.get(item.get("op", ""))
    if op is None:
        return False, f"unknown op {item.get('op')!r}"
    expect = item.get("expect", {})
    try:
        result = op(item.get("input", {}))
    except PflagsError as exc:
        if isinstance(exc, PreconditionError) and expect.get("error") == "precondition":
            return True, ""
        return False, f"{_error_status(exc)[0]}: {exc}"
    if "error" in expect:
        return False, f"expected a {expect['error']} error, got a result"
    if "value_subset" in expect:
        subset = expect["value_subset"]
        if not isinstance(result, dict):
            return False, "result is not an object"
        for key, want in subset.items():
            if canonical_dumps(result.get(key)) != canonical_dumps(want):
                return False, f"field {key!r} mismatch"
        return True, ""
    if canonical_dumps(result) != canonical_dumps(expect.get("value")):
        return False, "value mismatch"
    return True, ""


def _run_selftest(args) -> int:
    from . import properties  # with sampling, only selftest needs it

    try:
        fixtures = _load_fixtures(args.corpus)
    except (OSError, ValueError) as exc:
        _emit(_report("selftest", None, None, [], "parse-error", EXIT_PARSE,
                      f"cannot load fixture corpus: {exc}"), args.json)
        return EXIT_PARSE
    lines = []
    failures = []
    for item in fixtures:
        name = item.get("name", "<unnamed>")
        if args.filter and args.filter not in name:
            continue
        ok, detail = _run_fixture(item)
        lines.append({"item": name, "passed": ok, "detail": detail})
        if not ok:
            failures.append(name)
    for res in properties.run_fast_suite(seed=args.seed, name_filter=args.filter):
        lines.append({"item": f"property:{res.name}", "passed": res.passed,
                      "detail": res.detail, "checked": res.checked})
        if not res.passed:
            failures.append(f"property:{res.name}")
    status = "ok" if not failures else "violations"
    exit_code = EXIT_OK if not failures else EXIT_VIOLATION
    report = _report("selftest", {"filter": args.filter, "seed": args.seed},
                     {"items": lines, "failures": failures}, ["fixture-corpus",
                     "fast-property-suites"], status, exit_code)
    if args.json:
        print(canonical_dumps(report))
    else:
        for line in lines:
            mark = "PASS" if line["passed"] else "FAIL"
            detail = f" ({line['detail']})" if line.get("detail") else ""
            print(f"{mark} {line['item']}{detail}")
        print(f"selftest: {len(lines) - len(failures)}/{len(lines)} passed")
        if failures:
            print("failing items: " + ", ".join(failures))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = subparsers.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = parser.parse_args(argv)
        else:  # the words the top-level parser would hand on, parsed once
            args, extras = sub.parse_known_args(argv[1:])
            if extras:  # argparse's own message, from the top-level parser
                parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
            args.subcommand = argv[0]
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    if not args.subcommand:
        parser.print_usage()
        return EXIT_PARSE
    if args.subcommand == "selftest":
        return _run_selftest(args)
    return _run_subcommand(args.subcommand, args)


if __name__ == "__main__":
    sys.exit(main())
