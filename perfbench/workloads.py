"""Seeded payload generators for the four benchmark workloads.

Each workload is a stratified list of items: a fixed number of payloads for
every (operation, p, rank or field) stratum, with shapes (degrees, ranks,
which entries are present) fixed per stratum and only the coefficients drawn
from the seed.  That keeps the cost mix of a workload the same from seed to
seed, so throughput and percentiles measure the program and not the draw.

An item is a dict:

* ``op``: an ``OP_TABLE`` name, or the CLI subcommand for ``cli-mix``;
* ``stratum``: a short label such as ``cartier_descent/p7/r4``;
* ``payload``: the canonical JSON text handed to the program;
* ``argv`` (``cli-mix`` only): the arguments passed to ``pflags.cli.main``;
* ``expect``: facts known from how the payload was built, checked against
  every output (see ``check.py``).

``pflags`` is imported inside the generators, never at module level, so a
benchmark set-up that re-imports the library gets fresh objects.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("flat-descent", "chart-charpoly", "ext-field", "cli-mix")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _item(op: str, stratum: str, payload, expect: dict | None = None, **extra) -> dict:
    return {"op": op, "stratum": stratum, "payload": dumps(payload),
            "expect": expect or {}, **extra}


# -- coefficient draws on top of the library's own types ---------------------------


def _poly(rng: random.Random, field, deg: int, monic: bool = False):
    """A polynomial of exact degree ``deg`` (zero when deg < 0)."""
    from pflags.poly import Poly

    if deg < 0:
        return Poly.zero(field)
    lead = 1 if monic else rng.randrange(1, field.q)
    return Poly(field, [rng.randrange(field.q) for _ in range(deg)] + [lead])


def _ratfunc(rng: random.Random, field, num_deg: int, den_deg: int):
    from pflags.ratfunc import RatFunc

    return RatFunc(_poly(rng, field, num_deg), _poly(rng, field, den_deg, monic=True))


def _flat_degrees(p: int, r: int) -> tuple[int, ...]:
    """Descending twist degrees, multiples of p with gaps of at most 2p."""
    return tuple(p * ((r - i) // 2) for i in range(r))


def _flat_conn(rng: random.Random, field, r: int):
    """A valid P^1 connection with zero p-curvature: the trivial connection
    gauged by an upper-triangular bundle automorphism whose entries have the
    largest degree the bundle allows."""
    from pflags.matrix import MatRF, gauge_transform
    from pflags.pone import BundleP1, Conn0
    from pflags.ratfunc import RatFunc

    degs = _flat_degrees(field.p, r)
    zero = RatFunc.zero(field)
    rows = [[zero] * r for _ in range(r)]
    for j in range(r):
        for i in range(j, r):
            gap = degs[j] - degs[i]
            if i == j:
                rows[j][i] = RatFunc.constant(field, rng.randrange(1, field.q))
            elif gap > 0:
                rows[j][i] = RatFunc(_poly(rng, field, gap))
            else:
                rows[j][i] = RatFunc.constant(field, rng.randrange(field.q))
    a = gauge_transform(MatRF.zeros(field, r), MatRF(field, rows))
    if any(not e.den.is_one() for row in a.rows for e in row):
        raise AssertionError("bundle automorphism produced a non-polynomial connection")
    return Conn0(field, BundleP1(degs), [[e.num for e in row] for row in a.rows])


def _nilpotent_chart(rng: random.Random, field, r: int, deg: int = 1):
    """A chart gauge-equivalent to a strictly upper-triangular connection, so
    its p-curvature is nilpotent: N has every entry above the diagonal of
    exact degree ``deg``; the gauge is a constant diagonal times shears at
    (i, i+1) and one shear at (1, 0), each of exact degree ``deg``."""
    from pflags.hitchin import ChartConn
    from pflags.matrix import MatRF, gauge_transform
    from pflags.ratfunc import RatFunc

    zero, one = RatFunc.zero(field), RatFunc.one(field)
    upper = MatRF(field, [[RatFunc(_poly(rng, field, deg)) if j > i else zero
                           for j in range(r)] for i in range(r)])
    g = MatRF(field, [[RatFunc.constant(field, rng.randrange(1, field.q)) if i == j else zero
                       for j in range(r)] for i in range(r)])
    for i, j in [(i, i + 1) for i in range(r - 1)] + [(1, 0)]:
        shear = [[one if s == t else zero for t in range(r)] for s in range(r)]
        shear[i][j] = RatFunc(_poly(rng, field, deg))
        g = g * MatRF(field, shear)
    return ChartConn(field, r, gauge_transform(upper, g))


def _rational_chart(rng: random.Random, field, r: int, num_deg: int = 2, den_deg: int = 1):
    """A chart with rational entries; row i has denominator d_i^den_deg with
    d_i = x - a_i and the a_i distinct while the field allows, so the common
    denominator has the same degree for every seed."""
    from pflags.hitchin import ChartConn
    from pflags.matrix import MatRF
    from pflags.poly import Poly
    from pflags.ratfunc import RatFunc

    roots = rng.sample(range(field.q), min(r, field.q))
    rows = []
    for i in range(r):
        den = Poly(field, (field.neg(roots[i % len(roots)]), 1)) ** den_deg
        rows.append([RatFunc(_poly(rng, field, num_deg), den) for _ in range(r)])
    return ChartConn(field, r, MatRF(field, rows))


# -- flat-descent -----------------------------------------------------------------


# Payloads per stratum.  Strata fall into clusters of similar cost; the counts
# put as many payloads below the middle cluster as above it, so the median
# falls inside that cluster, and give the costliest cluster about a tenth of
# the payloads, so the 95th percentile falls inside it.  A percentile at the
# edge between two clusters would jump with the seed.
# p -> payloads at rank 2, 3, 4; and p -> ((rank, payloads), ...)
DESCENT_COUNTS = {2: (50, 20, 20), 3: (46, 16, 8), 5: (16, 8, 8), 7: (8, 8, 4)}
NILFLAG_COUNTS = {2: ((2, 16), (3, 16)), 3: ((2, 12), (3, 8)), 5: ((2, 8), (3, 36)), 7: ((2, 6),)}


def flat_descent(rng: random.Random) -> list[dict]:
    from pflags import GF, jsonio
    from pflags.pone import as_level

    items = []
    for p in (2, 3, 5, 7):
        field = GF(p)
        for r in (2, 3, 4):
            for _ in range(DESCENT_COUNTS[p][r - 2]):
                c = _flat_conn(rng, field, r)
                items.append(_item(
                    "cartier_descent", f"cartier_descent/p{p}/r{r}",
                    {"connection": jsonio.connection_to_json(as_level(c))},
                    {"descended_degrees": [d // p for d in c.degrees]}))
        for r, count in NILFLAG_COUNTS[p]:
            for _ in range(count):
                chart = _nilpotent_chart(rng, field, r)
                items.append(_item(
                    "nilpotent_flag", f"nilpotent_flag/p{p}/r{r}",
                    {"chart": jsonio.chart_to_json(chart)}, {"perm": list(range(r))}))
    return items


# -- chart-charpoly ---------------------------------------------------------------


# p -> (rank-2 char_poly_psi, rank-3 char_poly_psi, no_flag_certificate) payloads
CHARPOLY_COUNTS = {2: (14, 14, 14), 3: (14, 40, 14), 5: (24, 12, 24), 7: (12, 20, 12)}


def chart_charpoly(rng: random.Random) -> list[dict]:
    from pflags import GF, jsonio

    items = []
    for p in (2, 3, 5, 7):
        field = GF(p)
        rank2, rank3, certificates = CHARPOLY_COUNTS[p]
        for r, count in ((2, rank2), (3, rank3)):
            for _ in range(count):
                chart = _rational_chart(rng, field, r, 2 if r == 2 else 1, 1)
                items.append(_item(
                    "char_poly_psi", f"char_poly_psi/p{p}/r{r}",
                    {"chart": jsonio.chart_to_json(chart)}, {"charpoly_len": r + 1}))
        for _ in range(certificates):
            chart = _rational_chart(rng, field, 2)
            items.append(_item(
                "no_flag_certificate", f"no_flag_certificate/p{p}/r2",
                {"chart": jsonio.chart_to_json(chart)}, {"charpoly_len": 3}))
    return items


# -- ext-field --------------------------------------------------------------------

# (p, k): q <= 128 uses multiplication tables, q > 128 digit arithmetic
TABLE_FIELDS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (5, 3))
DIGIT_FIELDS = ((3, 5), (2, 8))
IRREDUCIBLE_DEGREES = ((2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2))


def _digits(n: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def ext_field(rng: random.Random) -> list[dict]:
    from pflags import GF, jsonio
    from pflags.matrix import MatRF
    from pflags.poly import Poly
    from pflags.ratfunc import RatFunc

    items = []
    for p, k in TABLE_FIELDS + DIGIT_FIELDS:
        field = GF(p, k)
        fj = jsonio.field_to_json(field)
        tag = f"q{field.q}"
        den_deg = 1 if field.q <= 128 else 0  # digit-path fields get polynomial entries
        for _ in range(4):
            m = MatRF(field, [[_ratfunc(rng, field, 1, den_deg) for _ in range(3)]
                              for _ in range(3)])
            items.append(_item("charpoly", f"charpoly/{tag}",
                               {"field": fj, "A": jsonio.matrix_to_json(m)},
                               {"charpoly_len": 4}))
        for square in (True, False) * (5 if field.q <= 128 else 3):
            g = _ratfunc(rng, field, 2, 1)
            f = g * g if square else g * g * RatFunc.x(field)
            items.append(_item("sqrt_ratfunc", f"sqrt_ratfunc/{tag}",
                               {"field": fj, "f": jsonio.ratfunc_to_json(f)},
                               {"is_null": not square}))
        for _ in range(4):
            roots = sorted(rng.randrange(field.q) for _ in range(3))
            f = Poly.one(field)
            for a in roots:
                f = f * Poly(field, (field.neg(a), 1))
            f = f.scale(rng.randrange(1, field.q))
            items.append(_item("roots_in_field", f"roots_in_field/{tag}",
                               {"field": fj, "f": jsonio.poly_to_json(f)},
                               {"value": [_digits(a, p, k) for a in roots]}))
        for k in range(10 if field.q <= 128 else 6):
            inside, s = k % 2 == 0, 1 + k // 2 % 2
            g = _ratfunc(rng, field, 2, 1).compose_xpow(p**s)
            f = g if inside else g * RatFunc.x(field)
            items.append(_item("in_frobenius_subfield", f"in_frobenius_subfield/{tag}",
                               {"field": fj, "f": jsonio.ratfunc_to_json(f), "s": s},
                               {"value": inside}))
        # p-curvature over the digit path only for p <= 3: it applies T p times
        if field.q <= 128 or p <= 3:
            for _ in range(4 if field.q <= 128 else 12):
                chart = _rational_chart(rng, field, 2, 1, 0)
                items.append(_item("char_poly_psi", f"char_poly_psi/{tag}",
                                   {"chart": jsonio.chart_to_json(chart)},
                                   {"charpoly_len": 3}))
    for p, k in IRREDUCIBLE_DEGREES:
        items.append(_item("find_irreducible", f"find_irreducible/p{p}/k{k}",
                           {"p": p, "k": k}, {"irreducible_p": p, "degree": k}))
    return items


# -- cli-mix ----------------------------------------------------------------------

# fixture op -> CLI subcommand that runs it
FIXTURE_SUBCOMMANDS = {
    "validate": "pone-check", "pm1_curvature": "pone-pcurv", "complete_flag": "pone-flag",
    "cartier_descent": "pone-descend", "frobenius_pullback": "pone-pullback",
    "atiyah_profile": "ell-profile", "line_classes": "ell-classes",
    "admits_connection": "ell-admits", "flag_skeleton": "ell-skeleton",
    "peel_order": "ell-peel", "char_poly_psi": "hit-charpoly", "hitchin_dims": "hit-dims",
    "no_flag_certificate": "hit-cert", "nilpotent_flag": "hit-nilflag",
}
CONNECTION_KIND = {"pone-check", "pone-pcurv", "pone-flag", "pone-descend", "pone-pullback"}
CHART_KIND = {"hit-charpoly", "hit-cert", "hit-nilflag"}


def _cli_item(sub: str, stratum: str, inline: str, exit_code: int, extra_argv=(),
              expect_result=None) -> dict:
    expect = {"exit_code": exit_code}
    if expect_result is not None:
        expect["result"] = expect_result
    return {"op": sub, "stratum": f"{sub}/{stratum}", "payload": inline,
            "argv": [sub, "--inline", inline, "--json", *extra_argv], "expect": expect}


def _fixture_items() -> list[dict]:
    from importlib import resources

    fixtures = json.loads(resources.files("pflags").joinpath("fixtures/fixtures.json").read_text())
    items = []
    for fx in fixtures:
        sub = FIXTURE_SUBCOMMANDS.get(fx["op"])
        if sub is None:
            continue
        inp, expect = fx["input"], fx["expect"]
        extra = ()
        if sub in CONNECTION_KIND:
            payload = inp["connection"]
            if sub == "pone-pullback":
                extra = ("--s", str(inp["s"]))
        elif sub in CHART_KIND:
            payload = inp["chart"]
        else:
            payload = inp
        if expect.get("error") == "precondition":
            code = 2
        elif sub == "pone-check" and expect.get("value"):
            code = 1
        else:
            code = 0
        result = expect.get("value") if "value" in expect else None
        items.append(_cli_item(sub, "fixture", dumps(payload), code, extra, result))
    return items


def _atom(rng: random.Random, n: int, r: int, d: int) -> dict:
    return {"r": r, "d": d, "lam": [rng.randrange(n)]}


def cli_mix(rng: random.Random) -> list[dict]:
    from pflags import GF, jsonio
    from pflags.pone import as_level

    items = _fixture_items()
    for _ in range(4):
        for p in (2, 3):
            field = GF(p)
            r = rng.randint(2, 3)
            conn = dumps(jsonio.connection_to_json(as_level(_flat_conn(rng, field, r))))
            for sub in ("pone-check", "pone-pcurv", "pone-flag", "pone-descend"):
                items.append(_cli_item(sub, f"p{p}", conn, 0))
            items.append(_cli_item("pone-pullback", f"p{p}", conn, 0, ("--s", str(rng.randint(1, 2)))))
            # a lower-triangular entry has a pole at infinity: reported, or refused
            bad = json.loads(conn)
            bad["A"][r - 1][0] = [rng.randrange(1, p)]
            bad = dumps(bad)
            items.append(_cli_item("pone-check", f"p{p}/invalid", bad, 1))
            items.append(_cli_item("pone-flag", f"p{p}/invalid", bad, 2))
            # p = 3 charts, three times over, are the cluster the 95th percentile falls in
            for _ in range(3 if p == 3 else 1):
                chart = _rational_chart(rng, field, 2, 1, 1)
                for sub in ("hit-charpoly", "hit-cert"):
                    items.append(_cli_item(sub, f"p{p}", dumps(jsonio.chart_to_json(chart)), 0))
            nil = _nilpotent_chart(rng, field, 2)
            items.append(_cli_item("hit-nilflag", f"p{p}", dumps(jsonio.chart_to_json(nil)), 0))
            chart3 = _rational_chart(rng, field, 3, 1, 0)
            items.append(_cli_item("hit-cert", f"p{p}/rank3", dumps(jsonio.chart_to_json(chart3)), 2))
        for _ in range(3):
            r, d = rng.randint(1, 12), rng.randint(-20, 20)
            items.append(_cli_item("ell-profile", "random", dumps({"r": r, "d": d}), 0))
            n = rng.randint(1, 4)
            group = {"factors": [n]}
            atom = _atom(rng, n, rng.randint(1, 8), rng.randint(-12, 12))
            items.append(_cli_item("ell-classes", "random",
                                   dumps({"group": group, "atom": atom}), 0))
            p = rng.choice((2, 3, 5))
            atoms = [_atom(rng, n, rng.randint(1, 6), rng.randint(-12, 12)) for _ in range(3)]
            items.append(_cli_item("ell-admits", "random",
                                   dumps({"group": group, "atoms": atoms, "p": p}), 0))
            items.append(_cli_item("ell-peel", "random", dumps({"group": group, "atoms": atoms}), 0))
            # r | d with p | d/r admits a connection; p not dividing d/r does not
            good = []
            for _ in range(2):
                ra = rng.randint(1, 4)
                good.append(_atom(rng, n, ra, ra * p * rng.randint(-2, 2)))
            items.append(_cli_item("ell-skeleton", "admits",
                                   dumps({"group": group, "atoms": good, "p": p}), 0))
            ra = rng.randint(1, 4)
            bad_atoms = good + [_atom(rng, n, ra, ra * (p * rng.randint(-2, 2) + 1))]
            items.append(_cli_item("ell-skeleton", "refused",
                                   dumps({"group": group, "atoms": bad_atoms, "p": p}), 2))
            items.append(_cli_item("hit-dims", "random",
                                   dumps({"g": rng.randint(2, 9), "r": rng.randint(1, 6)}), 0))
            items.append(_cli_item("hit-dims", "genus-too-small",
                                   dumps({"g": rng.randint(0, 1), "r": rng.randint(1, 6)}), 2))
        # malformed payloads end in a parse error, exit 3
        subs = sorted(FIXTURE_SUBCOMMANDS.values())
        for sub in rng.sample(subs, 6):
            items.append(_cli_item(sub, "malformed-json", "{\"r\": ", 3))
        for sub in rng.sample(subs, 6):
            items.append(_cli_item(sub, "not-an-object", dumps([rng.randint(0, 9)]), 3))
        items.append(_cli_item("ell-profile", "wrong-type",
                               dumps({"r": "x", "d": rng.randint(0, 9)}), 3))
        items.append(_cli_item("ell-classes", "bad-group",
                               dumps({"group": {"factors": [0]}, "atom": {"r": 1, "d": 0}}), 3))
    return items


GENERATORS = {
    "flat-descent": flat_descent,
    "chart-charpoly": chart_charpoly,
    "ext-field": ext_field,
    "cli-mix": cli_mix,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's items for this seed, in the seed's shuffled run order."""
    rng = random.Random(f"{workload}:{seed}")
    items = GENERATORS[workload](rng)
    rng.shuffle(items)
    return items
