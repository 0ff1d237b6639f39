import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pflags import GF, cli, jsonio, pone
from pflags.cli import SUBCOMMANDS, main
from pflags.errors import ParseError
from pflags.fields import PRIME_BOUND
from pflags.ops import OP_TABLE

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "pflags" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ell_profile_scalar_flags(capsys):
    code, out = run(capsys, "ell-profile", "--r", "5", "--d", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["degL"] == [0, 1, 2]
    assert report["result"]["m"] == 2 and report["result"]["ell"] == 3
    assert report["status"] == "ok" and report["exit_code"] == 0


def test_hit_dims_matches_pinned_count(capsys):
    code, out = run(capsys, "hit-dims", "--g", "2", "--r", "2", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"dimB": 5, "dimD": 4, "gamma_nondominant": True}


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "ell-profile", "--r", "7", "--d", "5", "--json")
    _, second = run(capsys, "ell-profile", "--r", "7", "--d", "5", "--json")
    assert first == second


def test_json_report_reparses(capsys):
    code, out = run(capsys, "hit-dims", "--g", "3", "--r", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"subcommand", "inputs_digest", "result",
                           "invariants_checked", "status", "exit_code"}


def test_pone_pcurv_on_canonical_fixture(tmp_path, capsys):
    conn = {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [4, 2],
            "A": [[[], []], [[], []]]}
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(conn))
    code, out = run(capsys, "pone-pcurv", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out)["result"]["zero"] is True


def test_pone_check_exit_codes(tmp_path, capsys):
    good = {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [2, 0],
            "A": [[[], [1]], [[], []]]}
    bad = {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [2, 0],
           "A": [[[], []], [[1], []]]}
    code, _ = run(capsys, "pone-check", "--inline", json.dumps(good))
    assert code == 0
    code, out = run(capsys, "pone-check", "--inline", json.dumps(bad), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "violations"
    assert report["result"] == [{"row": 1, "col": 0, "order": 4}]


def test_precondition_exit_code(capsys):
    code, out = run(capsys, "hit-dims", "--g", "1", "--r", "2", "--json")
    assert code == 2
    assert json.loads(out)["status"] == "precondition-error"


def test_parse_error_exit_codes(capsys):
    code, _ = run(capsys, "pone-check", "--inline", "{not json")
    assert code == 3
    code, _ = run(capsys, "pone-flag")  # missing payload
    assert code == 3
    code, _ = run(capsys, "no-such-subcommand")
    assert code == 3


def test_pullback_subcommand(capsys):
    conn = {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [2, 0],
            "A": [[[], []], [[], []]]}
    code, out = run(capsys, "pone-pullback", "--inline", json.dumps(conn),
                    "--s", "1", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["underlying_degrees"] == [4, 0]
    assert result["connection"]["level"] == 1


def test_ell_admits_with_p_flag(capsys):
    payload = {"group": {"factors": [2]}, "atoms": [{"r": 3, "d": 2, "lam": [1]}]}
    code, out = run(capsys, "ell-admits", "--inline", json.dumps(payload),
                    "--p", "2", "--json")
    assert code == 0 and json.loads(out)["result"] is True
    code, out = run(capsys, "ell-skeleton", "--inline",
                    json.dumps({"group": {"factors": [2]},
                                "atoms": [{"r": 5, "d": 3, "lam": [1]}]}),
                    "--p", "3", "--json")
    assert code == 2  # no connection exists


def test_hit_cert_fixture(capsys):
    chart = {"field": {"p": 3, "k": 1}, "r": 2,
             "A": [[[], [1]], [[0, 1], []]]}
    code, out = run(capsys, "hit-cert", "--inline", json.dumps(chart), "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "certified" and result["descent_ok"] is True


def test_hit_nilflag_rejects_certified_fixture(capsys):
    chart = {"field": {"p": 3, "k": 1}, "r": 2,
             "A": [[[], [1]], [[0, 1], []]]}
    code, out = run(capsys, "hit-nilflag", "--inline", json.dumps(chart), "--json")
    assert code == 2


def test_selftest_green(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_filter(capsys):
    code, out = run(capsys, "selftest", "--filter", "elliptic")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert lines and all("elliptic" in l for l in lines)


def test_selftest_corrupted_corpus_named(tmp_path, capsys):
    items = json.loads((FIXTURES / "fixtures.json").read_text())
    items[3]["expect"] = {"value": "corrupted-expectation"}
    corrupted_name = items[3]["name"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "fixtures.json").write_text(json.dumps(items))
    code, out = run(capsys, "selftest", "--corpus", str(corpus))
    assert code == 1
    assert corrupted_name in out
    assert "FAIL" in out


# sha256 of the `pflags selftest --json --seed <n>` report.  Any change to a
# canonical output changes it.  Re-record a digest only when an output is
# meant to change, and say so in CHANGES.md.
SELFTEST_DIGESTS = {
    0: "87f8ed9b849ddd84fa933e6aa5d6a491e1faf11652654249fe0cb2cf44651824",
    7: "d0b5ccd34d71c1d6c057545de781805000fb72c101a67276d87b94013aa4ca5d",
}


@pytest.mark.parametrize("seed", sorted(SELFTEST_DIGESTS))
def test_selftest_json_report_is_pinned(capsys, seed):
    """The selftest report is byte-identical to the recorded one: a change
    meant to keep every output must keep these digests."""
    code, out = run(capsys, "selftest", "--json", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SELFTEST_DIGESTS[seed]


def test_selftest_json_report(capsys):
    code, out = run(capsys, "selftest", "--filter", "hitchin/dims", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["failures"] == []
    assert all(item["passed"] for item in report["result"]["items"])


def test_emitted_connection_reparses_to_equal_value(capsys):
    from pflags.pone import as_level, frobenius_pullback

    conn = {"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [2, 0],
            "A": [[[], [1]], [[], []]]}
    code, out = run(capsys, "pone-pullback", "--inline", json.dumps(conn),
                    "--s", "2", "--json")
    assert code == 0
    emitted = json.loads(out)["result"]["connection"]
    reparsed = jsonio.connection_from_json(emitted)
    expected = frobenius_pullback(as_level(jsonio.connection_from_json(conn).base), 2)
    assert reparsed == expected
    # and the emitted JSON is the canonical serialization of the reparsed value
    assert jsonio.canonical_dumps(jsonio.connection_to_json(reparsed)) == \
        jsonio.canonical_dumps(emitted)


def test_malformed_payloads_exit_3(capsys):
    bad_payloads = [
        ("pone-pcurv", "{}"),  # missing every field
        ("pone-pcurv",  # matrix size does not match the degrees
         '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[2,0],"A":[[[]]]}'),
        ("pone-pcurv",  # non-prime characteristic
         '{"field":{"p":4,"k":1},"level":0,"twist_degrees":[0],"A":[[[]]]}'),
        ("ell-skeleton", '{"group":{"factors":[2]},"atoms":[]}', "--p", "2"),  # empty bundle
        ("ell-admits", "[3]", "--p", "2"),  # not a JSON object
        ("hit-charpoly",  # zero denominator
         '{"field":{"p":3,"k":1},"A":[[{"num":[1],"den":[]}]]}'),
        # JSON booleans are not integers, wherever an integer is read
        ("hit-charpoly", '{"field":{"p":3,"k":true},"A":[[[false],[true]],[[0,true],[0]]]}'),
        ("hit-charpoly", '{"field":{"p":3,"k":1},"A":[[[false],[true]],[[0,true],[0]]]}'),
        ("hit-charpoly", '{"field":{"p":3,"k":1},"r":true,"A":[[[1]]]}'),
        ("hit-charpoly", '{"field":{"p":true,"k":1},"A":[[[1]]]}'),
        ("hit-charpoly", '{"field":{"p":2,"k":2,"modulus":[true,true,true]},"A":[[[1]]]}'),
        ("pone-pcurv", '{"field":{"p":2,"k":1},"level":true,"twist_degrees":[0],"A":[[[]]]}'),
        # p^level above 2^16
        ("pone-pcurv", '{"field":{"p":2,"k":1},"level":17,"twist_degrees":[0],"A":[[[]]]}'),
        ("pone-pcurv", '{"field":{"p":257,"k":1},"level":2,"twist_degrees":[0],"A":[[[]]]}'),
        ("pone-pcurv", '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[true],"A":[[[]]]}'),
        ("pone-pcurv", '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[0],"A":[[[true]]]}'),
        ("ell-skeleton", '{"group":{"factors":[true]},"atoms":[{"r":1,"d":0,"lam":[0]}]}',
         "--p", "2"),
        ("ell-skeleton", '{"group":{"factors":[2]},"atoms":[{"r":true,"d":0,"lam":[0]}]}',
         "--p", "2"),
        ("ell-skeleton", '{"group":{"factors":[2]},"atoms":[{"r":1,"d":false,"lam":[0]}]}',
         "--p", "2"),
        ("ell-skeleton", '{"group":{"factors":[2]},"atoms":[{"r":1,"d":0,"lam":[true]}]}',
         "--p", "2"),
        ("ell-classes", '{"group":{"factors":[2]},"atom":{"r":true,"d":0,"lam":[1]}}'),
        ("ell-profile", '{"r":true,"d":3}'),
    ]
    for sub, inline, *flags in bad_payloads:
        code, _ = run(capsys, sub, "--inline", inline, *flags)
        assert code == 3, (sub, inline)



_DEEP_FAULTS = [
    ("hit-charpoly",
     {"field": {"p": 3, "k": 2},
      "A": [[[1], [0], [2]], [[2], {"num": [1, [0, 1]], "den": [1, [2, 1]]}, [0]],
            [[1], [1], {"num": [[1, 1], [2, 2]], "den": [1, [0, 0, 0]]}]]},
     '{"error":"chart.A[2][2].den[1]: element needs <= 2 residues, got 3","exit_code":3,'
     '"inputs_digest":"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",'
     '"invariants_checked":[],"result":null,"status":"parse-error",'
     '"subcommand":"hit-charpoly"}\n'),
    ("pone-check",
     {"field": {"p": 5, "k": 1}, "level": 0, "twist_degrees": [2, 1, 0],
      "A": [[[], [], []], [[1], [], []], [[0, 1], [1, 2, 3, True], []]]},
     '{"error":"connection.A[2][1][3]: expected an integer or residue array","exit_code":3,'
     '"inputs_digest":"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",'
     '"invariants_checked":[],"result":null,"status":"parse-error",'
     '"subcommand":"pone-check"}\n'),
]


@pytest.mark.parametrize("sub, payload, report", _DEEP_FAULTS)
def test_deep_coefficient_fault_report_is_pinned(capsys, sub, payload, report):
    code, out = run(capsys, sub, "--inline", json.dumps(payload), "--json")
    assert code == 3
    assert out == report


# Chart faults outside the coefficients, pinned when charts began to be parsed
# straight to their cleared pair: the texts are those of the MatRF parse.
_CHART_FAULTS = [
    ("zero-denominator",
     {"field": {"p": 3}, "A": [[[1], {"num": [1], "den": []}], [[0, 1], [2]]]},
     "chart.A[0][1]: zero denominator"),
    ("row-not-a-list", {"field": {"p": 3}, "A": [[[1], [2]], 5]},
     "chart.A: row 1 must have length 2"),
    ("mismatched-r",
     {"field": {"p": 3}, "r": 3, "A": [[[1], [2]], [[0, 1], {"num": [1], "den": [0, 2]}]]},
     "chart: r must match the matrix size"),
]


@pytest.mark.parametrize("payload, error", [c[1:] for c in _CHART_FAULTS],
                         ids=[c[0] for c in _CHART_FAULTS])
def test_chart_fault_report_is_pinned(capsys, payload, error):
    code, out = run(capsys, "hit-charpoly", "--inline", json.dumps(payload), "--json")
    assert code == 3
    assert out == (
        f'{{"error":"{error}","exit_code":3,'
        '"inputs_digest":"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",'
        '"invariants_checked":[],"result":null,"status":"parse-error",'
        '"subcommand":"hit-charpoly"}\n')


def test_extension_degree_above_the_cap_is_a_parse_error(capsys):
    # the default-modulus search for k = 2000 runs past 30 s
    conn = {"A": [[[]]], "field": {"k": 2000, "p": 2}, "level": 0, "twist_degrees": [0]}
    chart = {"field": {"p": 2, "k": 33, "modulus": [1] + [0] * 32 + [1]}, "A": [[[1]]]}
    start = time.perf_counter()
    for sub, payload, where in (("pone-check", conn, "connection.field"),
                                ("hit-charpoly", chart, "chart.field")):
        code, out = run(capsys, sub, "--inline", json.dumps(payload), "--json")
        assert code == 3
        assert json.loads(out)["error"] == f"{where}: k must be <= 32"
    with pytest.raises(ParseError, match="^k must be <= 32$"):
        OP_TABLE["find_irreducible"]({"p": 2, "k": 2000})
    assert time.perf_counter() - start < 5
    assert OP_TABLE["find_irreducible"]({"p": 2, "k": 32})[-1] == 1


def test_extension_field_at_large_p_needs_its_modulus(capsys):
    # the default-modulus search for p = 2^61 - 1, k = 4 runs past 20 s
    big = 2**61 - 1
    start = time.perf_counter()
    for field in ({"p": big, "k": 4}, {"p": 601, "k": 2}):
        code, out = run(capsys, "hit-charpoly", "--inline",
                        json.dumps({"field": field, "A": [[[1]]]}), "--json")
        assert code == 3
        assert json.loads(out)["error"] == ("chart.field: give the modulus: "
                                            "the default is searched for only when p < 600")
    for p in (big, 601):
        with pytest.raises(ParseError, match="^an irreducible of degree k > 1 is searched "
                                             "for only when p < 600$"):
            OP_TABLE["find_irreducible"]({"p": p, "k": 2})
    assert time.perf_counter() - start < 5
    # an explicit modulus, k = 1 and p < 600 name their fields as before
    modulus = [1, 0, 1]  # x^2 + 1, irreducible as p = 3 mod 4
    assert jsonio.field_from_json({"p": big, "k": 2, "modulus": modulus}) is GF(big, 2, modulus)
    assert jsonio.field_from_json({"p": big, "k": 1}) is GF(big)
    assert jsonio.field_from_json({"p": 599, "k": 2}) is GF(599, 2)
    assert OP_TABLE["find_irreducible"]({"p": big, "k": 1}) == [0, 1]
    assert OP_TABLE["find_irreducible"]({"p": 599, "k": 2}) == [1, 0, 1]


def test_chart_p_at_the_cap_is_a_parse_error(capsys):
    # Katz's recurrence takes about p^2 steps: a rank-1 chart at p = 10,007 ran past 20 s
    assert jsonio.P_CHART == 300
    start = time.perf_counter()
    for sub, p in (("hit-charpoly", 307), ("hit-charpoly", 10007), ("hit-cert", 65537),
                   ("hit-nilflag", 2**61 - 1)):
        chart = {"field": {"p": p}, "A": [[[1, 1]]]}
        code, out = run(capsys, sub, "--inline", json.dumps(chart), "--json")
        assert code == 3
        assert json.loads(out)["error"] == "chart.field: a chart needs p < 300"
    assert time.perf_counter() - start < 5
    # the field's own checks answer first: 300 is not prime
    code, out = run(capsys, "hit-charpoly", "--inline", '{"field":{"p":300},"A":[[[1]]]}', "--json")
    assert json.loads(out)["error"] == "chart.field: 300 is not prime"
    # just below the cap a chart is read, and runs, as before
    assert jsonio.chart_from_json({"field": {"p": 293, "k": 2}, "A": [[[1]]]}).field is GF(293, 2)
    code, out = run(capsys, "hit-charpoly", "--inline", '{"field":{"p":293},"A":[[[1,1]]]}', "--json")
    assert code == 0
    assert json.loads(out)["result"]["descent_ok"] is True
    # only a chart is capped: a field alone is read at any p
    assert jsonio.field_from_json({"p": 307}) is GF(307)


def _flat_at(p: int) -> dict:
    """A valid connection with vanishing p-curvature: x + 1 above the diagonal."""
    return {"A": [[[], [1, 1]], [[], []]], "field": {"p": p}, "level": 0,
            "twist_degrees": [p, 0]}


def test_connection_p_at_the_cap_is_a_parse_error_where_t_is_iterated(capsys):
    # pone-descend on this connection took 5.5 s at p = 10,007, its p-curvature as long
    start = time.perf_counter()
    for sub in ("pone-pcurv", "pone-pullback", "pone-descend"):
        for p in (307, 10007):
            code, out = run(capsys, sub, "--inline", json.dumps(_flat_at(p)), "--json")
            assert code == 3
            assert json.loads(out)["error"] == "connection.field: iterating T needs p < 300"
    assert time.perf_counter() - start < 5
    for op in ("pm1_curvature", "frobenius_pullback", "cartier_descent"):
        with pytest.raises(ParseError, match=r"^connection\.field: iterating T needs p < 300$"):
            OP_TABLE[op]({"connection": _flat_at(307), "s": 1})
    # just below the cap the three run as before
    code, out = run(capsys, "pone-descend", "--inline", json.dumps(_flat_at(293)), "--json")
    assert code == 0
    assert json.loads(out)["result"]["descended_degrees"] == [1, 0]
    for sub in ("pone-pcurv", "pone-pullback"):
        code, out = run(capsys, sub, "--inline", json.dumps(_flat_at(293)), "--json")
        assert code == 0
        assert json.loads(out)["result"]["psi"] == [[{"den": [1], "num": []}] * 2] * 2
    # what does not iterate T reads the connection at any p, as does the library
    for sub in ("pone-check", "pone-flag"):
        code, _ = run(capsys, sub, "--inline", json.dumps(_flat_at(10007)), "--json")
        assert code == 0
    d = jsonio.connection_from_json(_flat_at(307))
    assert pone.cartier_descent(d.base)[0].degrees == (1, 0)
    assert pone.pm1_curvature(d).is_zero()

def test_domain_violations_exit_2(capsys):
    bundle = '{"group":{"factors":[2]},"atoms":[{"r":3,"d":2,"lam":[1]}]}'
    cases = [
        ("pone-pullback", "--inline",
         '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[0],"A":[[[]]]}', "--s", "-1"),
        # the pulled-back level has p^level above 2^16
        ("pone-pullback", "--inline",
         '{"field":{"p":2,"k":1},"level":1,"twist_degrees":[0],"A":[[[]]]}', "--s", "16"),
        ("pone-pullback", "--inline",
         '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[2],"A":[[[]]]}', "--s", "20000"),
        ("pone-pullback", "--inline",
         '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[2],"A":[[[]]]}',
         "--s", "2147483648"),
        ("ell-profile", "--r", "0", "--d", "3"),
        ("hit-cert", "--inline", '{"field":{"p":3,"k":1},"r":1,"A":[[[0,1]]]}'),
        ("ell-admits", "--inline", bundle, "--p", "0"),  # characteristic below 2
        ("ell-skeleton", "--inline", bundle, "--p", "0"),
        ("ell-admits", "--inline", bundle, "--p", "-3"),
    ]
    for argv in cases:
        code, _ = run(capsys, *argv)
        assert code == 2, argv


# every subcommand the CLI exposes; selftest is the only one outside SUBCOMMANDS
CLI_SURFACE = [
    "pone-check", "pone-pcurv", "pone-flag", "pone-descend", "pone-pullback",
    "ell-profile", "ell-classes", "ell-admits", "ell-skeleton", "ell-peel",
    "hit-charpoly", "hit-dims", "hit-cert", "hit-nilflag", "selftest",
]


def test_subcommand_rows_name_ops():
    assert [*SUBCOMMANDS, "selftest"] == CLI_SURFACE
    for name, row in SUBCOMMANDS.items():
        assert row.op in OP_TABLE, name


def test_help_lists_every_subcommand(capsys):
    code, out = run(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(CLI_SURFACE) + "}" in out


def test_every_subcommand_without_input_exits_3(capsys):
    for name in SUBCOMMANDS:
        code, out = run(capsys, name, "--json")
        assert code == 3, name
        assert json.loads(out)["status"] == "parse-error", name


def test_flag_overrides_input(capsys):
    code, out = run(capsys, "ell-profile", "--inline", '{"r":5,"d":3}', "--r", "7", "--json")
    assert code == 0
    report = json.loads(out)
    flagged = json.loads(run(capsys, "ell-profile", "--r", "7", "--d", "3", "--json")[1])
    assert report["result"] == flagged["result"]
    assert report["inputs_digest"] == flagged["inputs_digest"]


def test_selftest_reports_library_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    items = [{"name": "bad-field/find_irreducible", "op": "find_irreducible",
              "input": {"p": 4, "k": 2}, "expect": {"value": [1, 1, 1]}}]
    (corpus / "items.json").write_text(json.dumps(items))
    code, out = run(capsys, "selftest", "--corpus", str(corpus), "--filter", "bad-field")
    assert code == 1
    assert "FAIL bad-field/find_irreducible (precondition-error: 4 is not prime)" in out


def test_selftest_names_each_fixture_fault(tmp_path, capsys):
    irreducible = {"op": "find_irreducible", "input": {"p": 3, "k": 1}}
    connection = {"op": "canonical_connection",
                  "input": {"degrees": [0], "field": {"p": 2}, "m": 0}}
    items = [
        {"name": "fault/unknown-op", "op": "no_such_op", "expect": {"value": 1}},
        {"name": "fault/result-for-error", **irreducible, "expect": {"error": "precondition"}},
        {"name": "fault/subset-of-array", **irreducible, "expect": {"value_subset": {"a": 1}}},
        {"name": "fault/subset-mismatch", **connection,
         "expect": {"value_subset": {"level": 0, "twist_degrees": [1]}}},
        {"name": "fault/subset-match", **connection, "expect": {"value_subset": {"level": 0}}},
    ]
    (tmp_path / "items.json").write_text(json.dumps(items))
    code, out = run(capsys, "selftest", "--corpus", str(tmp_path), "--filter", "fault/",
                    "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "violations" and report["exit_code"] == 1
    assert [(line["item"], line["passed"], line["detail"])
            for line in report["result"]["items"]] == [
        ("fault/unknown-op", False, "unknown op 'no_such_op'"),
        ("fault/result-for-error", False, "expected a precondition error, got a result"),
        ("fault/subset-of-array", False, "result is not an object"),
        ("fault/subset-mismatch", False, "field 'twist_degrees' mismatch"),
        ("fault/subset-match", True, ""),
    ]
    assert report["result"]["failures"] == [item["name"] for item in items[:4]]


def test_a_failing_property_suite_is_reported(capsys, monkeypatch):
    from pflags import properties

    assert list(inspect.signature(properties.check_p1_flags).parameters) == ["seed", "n"]
    monkeypatch.setattr(properties, "is_nilpotent", lambda m: False)
    result = properties.check_p1_flags(seed=5, n=3)
    assert result == properties.PropertyResult(
        "pone/complete-flags", False, 0, "p-curvature not nilpotent at trial 0")
    assert result.line() == (
        "FAIL pone/complete-flags: 0 checks (p-curvature not nilpotent at trial 0)")
    code, out = run(capsys, "selftest", "--filter", "pone/complete-flags")
    assert code == 1
    assert out.splitlines() == [
        "FAIL property:pone/complete-flags (p-curvature not nilpotent at trial 0)",
        "selftest: 0/1 passed",
        "failing items: property:pone/complete-flags",
    ]


def test_property_suites_are_registered_once_in_definition_order():
    from pflags import properties

    names = [name for name, *_ in properties.SUITES]
    assert len(names) == len(set(names)) == 19
    checks = [check for _, check, _, _ in properties.SUITES]
    defined = [fn for key, fn in vars(properties).items() if key.startswith("check_")]
    assert checks == defined
    unseeded = [name for name, _, _, seeded in properties.SUITES if not seeded]
    assert unseeded == ["pone/prop6-equivalence", "elliptic/atiyah-recursion",
                        "elliptic/existence-criterion", "hitchin/dimension-count"]


def test_input_and_inline_together_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text('{"r": 5, "d": 3}')
    error = _assert_parse_error(capsys, "ell-profile", "--input", str(path),
                                "--inline", '{"r": 5, "d": 3}', "--json")
    assert error == "give either --input or --inline, not both"


def test_op_payload_faults_are_parse_errors():
    level1 = {"field": {"p": 2}, "level": 1, "twist_degrees": [0], "A": [[[]]]}
    level0 = {**level1, "level": 0}
    cases = [
        ("charpoly", [1], "input payload must be a JSON object"),
        ("admits_level", {"degrees": [2, "x"], "p": 2, "m": 0},
         "degrees must be an integer array"),
        ("admits_level", {"degrees": 2, "p": 2, "m": 0}, "degrees must be an integer array"),
        ("tensor", {"a": level0, "b": level1}, "tensor operates on level-0 connections"),
        ("tensor", {"a": level1, "b": level0}, "tensor operates on level-0 connections"),
        ("dual", {"connection": level1}, "dual operates on level-0 connections"),
        ("cartier_descent", {"connection": level1}, "descent operates on level-0 connections"),
    ]
    for op, payload, error in cases:
        with pytest.raises(ParseError) as info:
            OP_TABLE[op](payload)
        assert str(info.value) == error, op
    for op in ("tensor", "dual", "cartier_descent"):  # each takes the level-0 connection
        OP_TABLE[op]({"a": level0, "b": level0} if op == "tensor" else {"connection": level0})


def test_selftest_refuses_a_tensor_above_the_rank_cap(tmp_path, capsys):
    # two rank-33/32 zero connections: their tensor would be 1056 x 1056
    a, b = ({"A": [[[]] * r] * r, "field": {"k": 1, "p": 2}, "level": 0,
             "twist_degrees": [0] * r} for r in (33, 32))
    items = [{"name": "tensor/above-cap", "op": "tensor", "input": {"a": a, "b": b},
              "expect": {"error": "precondition"}}]
    (tmp_path / "items.json").write_text(json.dumps(items))
    code, out = run(capsys, "selftest", "--corpus", str(tmp_path), "--filter", "tensor/above")
    assert code == 0
    assert "PASS tensor/above-cap" in out


PULLBACK_CONN = json.dumps({"field": {"p": 2, "k": 1}, "level": 0, "twist_degrees": [2, 0],
                            "A": [[[], [1]], [[], []]]})

# help, usage errors, --json on and off, a flag given and then left at its default
REUSE_ARGVS = [
    ["--help"],
    ["ell-profile", "--r", "x"],
    ["ell-profile", "--r", "5", "--d", "3", "--json"],
    ["ell-profile", "--r", "5", "--d", "3"],
    ["no-such-subcommand"],
    [],
    ["pone-pullback", "--help"],
    ["pone-pullback", "--inline", PULLBACK_CONN, "--s", "2", "--json"],
    ["pone-pullback", "--inline", PULLBACK_CONN, "--json"],
    ["hit-dims", "--g", "2", "--r", "2"],
    ["hit-dims", "--g", "2"],
    ["selftest", "--filter", "hitchin/dims", "--json"],
    ["--help"],
]


def _run_all(capsys, fresh: bool) -> list[tuple[int, str, str]]:
    seen = []
    for argv in REUSE_ARGVS:
        if fresh:
            cli._build_parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    return seen


def test_parser_reuse_matches_fresh_parsers(capsys):
    cached = _run_all(capsys, fresh=False)
    assert cached == _run_all(capsys, fresh=True)
    assert [code for code, _, _ in cached] == [0, 3, 0, 0, 3, 3, 0, 0, 0, 0, 3, 0, 0]
    assert json.loads(cached[7][1])["result"]["connection"]["level"] == 2
    assert json.loads(cached[8][1])["result"]["connection"]["level"] == 1


def _nested_main(argv=None) -> int:
    """main as it parsed before the dispatch: the top-level parser's parse_args,
    which hands the words after a subcommand's name to that subcommand's parser."""
    parser = cli._build_parser()[0]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_PARSE if exc.code not in (0, None) else cli.EXIT_OK
    if not args.subcommand:
        parser.print_usage()
        return cli.EXIT_PARSE
    if args.subcommand == "selftest":
        return cli._run_selftest(args)
    return cli._run_subcommand(args.subcommand, args)


def _fixture_argvs() -> list[list[str]]:
    """Each fixture item a subcommand runs, as a benchmark command line."""
    ops = {row.op: name for name, row in SUBCOMMANDS.items()}
    argvs = []
    for item in json.loads((FIXTURES / "fixtures.json").read_text()):
        name = ops.get(item["op"])
        if name is None:
            continue
        row, inp = SUBCOMMANDS[name], item["input"]
        payload = inp if row.key is None else inp[row.key]
        flags = [word for flag in row.flags if row.key and flag in inp
                 for word in (f"--{flag}", str(inp[flag]))]
        argvs.append([name, "--inline", json.dumps(payload), "--json", *flags])
    return argvs


PARITY_ARGVS = [
    *_fixture_argvs(),
    *([name, "--inline", bad, "--json"] for name in SUBCOMMANDS for bad in ('{"r": ', "[3]")),
    *([name, "--inline", "{}", *(w for flag in row.flags for w in (f"--{flag}", "2"))]
      for name, row in SUBCOMMANDS.items()),
    [], ["-h"], ["--help"], ["--he"], ["--json", "hit-dims"], ["no-such-subcommand"],
    ["no-such", "--g", "2"], ["--", "hit-dims"], ["--hit-dims", "--g", "2", "--r", "2"],
    ["hit-dims", "-h"], ["hit-dims", "--he"], ["hit-dims", "--g", "2", "-h"],
    ["hit-dims", "--g", "2", "--r", "2", "--json"], ["hit-dims", "--g=2", "--r=2"],
    ["hit-dims", "-g", "2"], ["hit-dims", "--j", "--g", "2", "--r", "2"],
    ["hit-dims", "--g", "2", "--r", "2", "--"], ["hit-dims", "--", "--g", "2"],
    ["hit-dims", "--g", "2", "--r", "2", "extra", "words"],
    ["hit-dims", "--g", "2", "--r", "2", "--bogus"], ["hit-dims", "--bogus=1", "-x"],
    ["hit-dims", "--g", "x"], ["hit-dims", "--g", "2.5"], ["hit-dims", "--g"],
    ["hit-dims", "--g", "-2", "--r", "2"], ["hit-dims", "--g", "2", "--g", "3", "--r", "2"],
    ["ell-profile", "--inl", '{"r": 2, "d": 1}'], ["ell-profile", "--in", "x"],
    ["pone-pullback", "--s", "2", "--s", "1", "--inline", PULLBACK_CONN],
    ["pone-pullback", "--inline", PULLBACK_CONN, "--inline", "{"],
    ["selftest", "-h"], ["selftest", "--seed", "x"], ["selftest", "--bogus"],
    ["selftest", "--filter", "hitchin/dims", "--json"],
]


def test_dispatch_matches_the_nested_parse(capsys, monkeypatch):
    """The subcommand's parser, called straight, gives every exit code and
    every stdout and stderr byte that the top-level parser's parse_args gave."""
    for argv in PARITY_ARGVS:
        seen = []
        for run_main in (main, _nested_main):
            seen.append((run_main(list(argv)), *capsys.readouterr()))
        assert seen[0] == seen[1], argv
    for argv in (["hit-dims", "--g", "2", "--r", "2"], ["hit-dims", "--bogus"], ["-h"], []):
        monkeypatch.setattr(sys, "argv", ["pflags", *argv])
        assert (main(), *capsys.readouterr()) == (_nested_main(), *capsys.readouterr()), argv


def test_cli_import_leaves_out_the_selftest_modules():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = ("import sys, pflags.cli; "
            "print([m for m in ('pflags.properties', 'pflags.sampling') if m in sys.modules]); "
            "pflags.cli.main(['selftest', '--json', '--seed', '0'])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded, report = done.stdout.split("\n", 1)
    assert loaded == "[]"
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == SELFTEST_DIGESTS[0]


def _assert_parse_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3 and report["status"] == "parse-error"
    assert "Traceback" not in captured.out + captured.err
    return report["error"]


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_bytes(b"\xff\xfe\x00")
    error = _assert_parse_error(capsys, "pone-check", "--input", str(path), "--json")
    assert error.startswith(f"cannot read {path}: ")


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in (["--inline", deep], ["--input", str(path)]):
        error = _assert_parse_error(capsys, "ell-profile", *source, "--json")
        assert error == "malformed JSON input: nested too deeply"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs CPython's limit on the digits of an int read from text")
def test_oversized_json_integer_is_a_parse_error(tmp_path, capsys):
    big = '{"r":1,"d":' + "7" * 5000 + "}"
    path = tmp_path / "big.json"
    path.write_text(big)
    for source in (["--inline", big], ["--input", str(path)]):
        error = _assert_parse_error(capsys, "ell-profile", *source, "--json")
        assert error.startswith("malformed JSON input: ")


def test_rank_above_the_cap_is_a_precondition_error(capsys):
    atoms = '{"group":{"factors":[]},"atoms":[{"r":2147483648,"d":3,"lam":[]}]}'
    for argv in (["ell-profile", "--r", "2147483648", "--d", "3"],
                 ["ell-skeleton", "--inline", atoms, "--p", "3"]):
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and report["status"] == "precondition-error", argv
        assert report["error"] == "rank must be <= 2^16 = 65536, got 2147483648"
        assert "Traceback" not in captured.out + captured.err


def test_total_rank_cap_on_bundles(capsys):
    def bundle(*ranks):
        atoms = [{"r": 65535, "d": 2, "lam": []}] + [{"r": r, "d": 0, "lam": []} for r in ranks]
        return json.dumps({"group": {"factors": []}, "atoms": atoms, "p": 2})

    for sub in ("ell-admits", "ell-skeleton", "ell-peel"):
        code, out = run(capsys, sub, "--inline", bundle(1), "--json")
        assert code == 0 and json.loads(out)["status"] == "ok", sub
        code = main([sub, "--inline", bundle(2), "--json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and report["status"] == "precondition-error", sub
        assert report["error"] == "total rank must be <= 2^16 = 65536, got 65537"
        assert "Traceback" not in captured.out + captured.err


def test_hitchin_dims_above_the_cap_is_a_precondition_error(capsys):
    # dim B of a 2,201-digit r has 4,401 digits, more than json writes; g and
    # r are capped at 2^16, so both dimensions stay below 2^48
    huge = "1" + "0" * 2200
    for argv, what in ((["--g", "2", "--r", huge], "rank"), (["--g", huge, "--r", "2"], "genus")):
        for report in ([], ["--json"]):
            code = main(["hit-dims", *argv, *report])
            captured = capsys.readouterr()
            assert code == 2, (what, report)
            assert "Traceback" not in captured.out + captured.err
        report = json.loads(captured.out)
        assert report["status"] == "precondition-error"
        assert report["error"] == f"{what} must be <= 2^16 = 65536, got {huge}"
    code, out = run(capsys, "hit-dims", "--g", "65536", "--r", "65536", "--json")
    assert code == 0 and json.loads(out)["result"]["dimB"] < 2**48


def test_characteristic_must_be_a_prime_below_the_bound(capsys):
    bundle = '{"group":{"factors":[2]},"atoms":[{"r":1,"d":0,"lam":[1]}]}'
    for p, error in (("4", "a prime, got 4"), ("1", "a prime, got 1"),
                     (str(PRIME_BOUND), f"below the primality bound {PRIME_BOUND}"),
                     ("9" * 4299, f"below the primality bound {PRIME_BOUND}")):
        for sub in ("ell-admits", "ell-skeleton"):
            code = main([sub, "--inline", bundle, "--p", p, "--json"])
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            assert code == 2 and report["status"] == "precondition-error", (sub, p[:8])
            assert report["error"] == f"characteristic must be {error}"
            assert "Traceback" not in captured.out + captured.err
    code, out = run(capsys, "ell-admits", "--inline", bundle, "--p", "2", "--json")
    assert code == 0 and json.loads(out)["result"] is True


def test_zero_connection_with_a_huge_degree_gap_ends_at_once(capsys):
    conn = '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[1000000000,0],"A":[[[],[]],[[],[]]]}'
    for sub in ("pone-check", "pone-flag"):
        start = time.perf_counter()
        code, out = run(capsys, sub, "--inline", conn, "--json")
        assert time.perf_counter() - start < 1.0, sub
        assert code == 0 and json.loads(out)["status"] == "ok", sub


def test_nonzero_entry_across_a_huge_degree_gap_checks_at_once(capsys):
    # validity reads pole orders, so no power of y is formed for the (1, 2) entry
    conn = '{"field":{"p":2,"k":1},"level":0,"twist_degrees":[1000000000,0],"A":[[[],[1]],[[],[]]]}'
    for sub in ("pone-check", "pone-flag"):
        start = time.perf_counter()
        code, out = run(capsys, sub, "--inline", conn, "--json")
        assert time.perf_counter() - start < 1.0, sub
        assert code == 0 and json.loads(out)["status"] == "ok", sub


@pytest.mark.parametrize("content", [b'{"a":1}', b'[1, "s"]', b"\xff\xfe\x00",
                                     b"[" * 100000])
def test_malformed_corpus_file_is_a_parse_error(tmp_path, capsys, content):
    (tmp_path / "items.json").write_bytes(content)
    error = _assert_parse_error(capsys, "selftest", "--corpus", str(tmp_path), "--json")
    assert error.startswith("cannot load fixture corpus: items.json")


@pytest.mark.parametrize("kind", ["missing", "file", "empty-dir"])
def test_corpus_without_fixture_files_is_a_parse_error(tmp_path, capsys, kind):
    corpus = tmp_path / "corpus"
    if kind == "file":
        corpus.write_text("[]")
    elif kind == "empty-dir":
        corpus.mkdir()
        (corpus / "notes.txt").write_text("[]")
    error = _assert_parse_error(capsys, "selftest", "--corpus", str(corpus), "--json")
    reason = "holds no *.json file" if kind == "empty-dir" else "is not a directory"
    assert error == f"cannot load fixture corpus: {corpus} {reason}"


@pytest.mark.parametrize("bad", [{"expect": []}, {"expect": {"value_subset": [1]}},
                                 {"op": []}, {"name": 5}],
                         ids=["expect-array", "value-subset-array", "op-array", "name-int"])
def test_malformed_corpus_item_is_a_parse_error(tmp_path, capsys, bad):
    item = {"name": "bad-item", "op": "find_irreducible", "input": {"k": 1, "p": 3},
            "expect": {"value": [0, 1]}, **bad}
    (tmp_path / "items.json").write_text(json.dumps([item]))
    for mode in (["--json"], []):
        code = main(["selftest", "--corpus", str(tmp_path), "--filter", "bad", *mode])
        captured = capsys.readouterr()
        assert code == 3 and "Traceback" not in captured.out + captured.err
    error = _assert_parse_error(capsys, "selftest", "--corpus", str(tmp_path), "--json")
    assert error == ("cannot load fixture corpus: items.json: "
                     "item 0 has a malformed name, op or expect")


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale with Python's UTF-8 mode and locale coercion off: a
    # locale-decoded read of the non-ASCII bytes below would fail
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    (tmp_path / "payload.json").write_text('{"r": 2, "d": 1, "note": "\u00e9"}',
                                           encoding="utf-8")
    item = {"name": "locale/find-irreducible", "note": "\u00e9", "op": "find_irreducible",
            "input": {"k": 1, "p": 3}, "expect": {"value": [0, 1]}}
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "items.json").write_text(json.dumps([item], ensure_ascii=False),
                                       encoding="utf-8")
    for argv in (["ell-profile", "--input", str(tmp_path / "payload.json")],
                 ["selftest", "--corpus", str(corpus), "--filter", "locale/"]):
        done = subprocess.run([sys.executable, "-m", "pflags.cli", *argv, "--json"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stdout + done.stderr
        assert json.loads(done.stdout)["status"] == "ok"
