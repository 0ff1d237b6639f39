"""Output checks: facts known from how each payload was built, and digests.

``problems(item, outcome)`` returns a list of strings, empty when the output
agrees with everything the generator knew about it.  ``outcome`` is the op's
JSON result, or for ``cli-mix`` the pair (exit code, captured stdout).
"""

from __future__ import annotations

import hashlib
import json

from workloads import dumps

DIGEST_LEN = 8  # hex digits kept per output; golden/ stores them concatenated


def output_digest(item: dict, outcome) -> str:
    """A short digest of the canonical output (and exit code for the CLI)."""
    if "argv" in item:
        code, stdout = outcome
        text = f"{code}\n{stdout}"
    else:
        text = dumps(outcome)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def inputs_digest(items: list[dict]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(f"{item['op']} {item['payload']} {dumps(item.get('argv'))}\n".encode())
    return h.hexdigest()


def _is_one(rf) -> bool:
    """A rational function JSON equal to 1 (the element 1 is [1, 0, ...] when k > 1)."""
    if not isinstance(rf, dict) or rf.get("num") != rf.get("den"):
        return False
    num = rf["num"]
    if not isinstance(num, list) or len(num) != 1:
        return False
    e = num[0]
    return e == 1 or (isinstance(e, list) and e[:1] == [1] and not any(e[1:]))


def _charpoly_problems(coeffs, n: int) -> list[str]:
    if not isinstance(coeffs, list) or len(coeffs) != n:
        return [f"characteristic polynomial should have {n} coefficients"]
    if not _is_one(coeffs[-1]):
        return ["characteristic polynomial is not monic"]
    return []


def _cli_problems(expect: dict, outcome) -> list[str]:
    code, stdout = outcome
    if code != expect["exit_code"]:
        return [f"exit code {code}, expected {expect['exit_code']}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    if report.get("exit_code") != code:
        return ["report exit_code disagrees with the process exit code"]
    if "result" in expect and dumps(report.get("result")) != dumps(expect["result"]):
        return ["result differs from the fixture value"]
    return []


def problems(item: dict, outcome) -> list[str]:
    expect = item["expect"]
    if "argv" in item:
        return _cli_problems(expect, outcome)
    out = outcome
    op = item["op"]
    found: list[str] = []
    if "descended_degrees" in expect and out.get("descended_degrees") != expect["descended_degrees"]:
        found.append("descended degrees are not d_i / p")
    if "perm" in expect and out.get("perm") != expect["perm"]:
        found.append("nilpotent flag permutation is not the identity")
    if "charpoly_len" in expect:
        if op == "charpoly":
            found += _charpoly_problems(out, expect["charpoly_len"])
        else:
            found += _charpoly_problems(out.get("charpoly"), expect["charpoly_len"])
            if out.get("descent_ok") is not True:
                found.append("p-curvature characteristic polynomial did not descend")
    if "is_null" in expect and (out is None) != expect["is_null"]:
        found.append("square root found for a non-square" if expect["is_null"]
                     else "no square root found for a square")
    if "value" in expect and dumps(out) != dumps(expect["value"]):
        found.append("value differs from the constructed answer")
    if "degree" in expect:
        p, k = expect["irreducible_p"], expect["degree"]
        if not isinstance(out, list) or len(out) != k + 1 or out[-1] != 1:
            found.append(f"not a monic polynomial of degree {k}")
        elif any(_eval_mod(out, a, p) == 0 for a in range(p)):
            found.append("claimed irreducible polynomial has a root in F_p")
    return found


def _eval_mod(coeffs: list[int], a: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * a + c) % p
    return acc
