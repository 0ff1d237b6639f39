"""The invariant calculus for indecomposable bundles on a genus-1 curve.

An indecomposable bundle is described by its rank, degree, and the degree-0
class of its terminal line bundle; the canonical filtration is computed purely
from (rank, degree) by the floor-division recursion, and all connection
existence and hom-constraint questions are answered from the resulting line
classes.  The degree-0 class group is modeled by a user-declared finite
abelian group: every implemented criterion depends only on degrees and
equality of classes, which the finite model captures faithfully.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import PflagsError, PreconditionError
from .fields import _require_characteristic


@dataclass(frozen=True)
class Pic0Group:
    """A finite abelian group, given by invariant factors, modeling the
    degree-0 class group; the marked point is the zero class."""

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if any(n < 1 for n in self.factors):
            raise PflagsError("invariant factors must be >= 1")
        object.__setattr__(self, "factors", tuple(int(n) for n in self.factors))

    def reduce(self, tor) -> tuple[int, ...]:
        tor = tuple(int(t) for t in tor)
        if len(tor) != len(self.factors):
            raise PflagsError(
                f"torsion vector needs {len(self.factors)} components, got {len(tor)}"
            )
        return tuple(t % n for t, n in zip(tor, self.factors))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(self.reduce(a), self.reduce(b), self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple(-x % n for x, n in zip(self.reduce(a), self.factors))


@dataclass(frozen=True)
class PicClass:
    """A line bundle class: integer degree plus a degree-0 part."""

    group: Pic0Group
    degree: int
    tor: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tor", self.group.reduce(self.tor))

    def is_multiple_of_origin(self) -> bool:
        """Whether the class is deg * (marked point), i.e. has zero torsion."""
        return self.tor == self.group.zero

    def __repr__(self):
        return f"({self.degree}, {list(self.tor)})"


@dataclass(frozen=True)
class AtiyahAtom:
    """An indecomposable bundle: rank, degree, and the degree-0 twist class
    carried by its terminal line bundle."""

    group: Pic0Group
    r: int
    d: int
    lam: tuple[int, ...] = ()

    def __post_init__(self):
        if self.r < 1:
            raise PreconditionError(f"rank must be >= 1, got {self.r}")
        object.__setattr__(self, "lam", self.group.reduce(self.lam))

    def __repr__(self):
        return f"Atom(r={self.r}, d={self.d}, lam={list(self.lam)})"


@dataclass(frozen=True)
class AtiyahProfile:
    """Output of the canonical filtration recursion on (rank, degree).

    pairs[j] = (r_j, d_j) for j = 0..m; deg_l are the ell line-bundle degrees
    (recursion degrees followed by r_m copies of the terminal degree); and
    gr_ranks[j] is the rank of the j-th graded piece.
    """

    pairs: tuple[tuple[int, int], ...]
    deg_l: tuple[int, ...]
    gr_ranks: tuple[int, ...]
    m: int
    ell: int
    h: int

    @property
    def rank(self) -> int:
        return self.pairs[0][0]

    @property
    def degree(self) -> int:
        return self.pairs[0][1]


@dataclass(frozen=True)
class FlagSkeleton:
    """The multiset of graded line classes of a complete flag refining the
    canonical filtrations, as (class, multiplicity) pairs.

    The peeling order changes extension data that this calculus does not
    carry, so only the multiset is well-defined; entries are kept sorted by
    (degree descending, torsion lexicographic) for determinism.
    """

    entries: tuple[tuple[PicClass, int], ...]

    def __post_init__(self):
        merged: dict[PicClass, int] = {}
        for cls, mult in self.entries:
            if mult < 1:
                raise PflagsError("skeleton multiplicities must be >= 1")
            merged[cls] = merged.get(cls, 0) + mult
        object.__setattr__(self, "entries", tuple(
            sorted(merged.items(), key=lambda cm: (-cm[0].degree, cm[0].tor))
        ))

    @property
    def total_rank(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def total_degree(self) -> int:
        return sum(cls.degree * m for cls, m in self.entries)

    def __repr__(self):
        return "{" + ", ".join(f"{cls}x{m}" for cls, m in self.entries) + "}"


class HomConstraint(enum.Enum):
    """What a bundle map can do to the first filtration step of its source."""

    PRESERVES_FIL1 = "preserves_fil1"
    FORCES_ZERO_ON_FIL1 = "forces_zero_on_fil1"
    NO_CONSTRAINT = "no_constraint"


# -- the recursion -------------------------------------------------------------------


def atiyah_profile(r: int, d: int) -> AtiyahProfile:
    """Run the canonical filtration recursion from (rank, degree) = (r, d).

    Each step peels H^0(L_j^v tensor quotient) copies of L_j with
    deg L_j = floor(d_{j-1}/r_{j-1}); it stops at the first r_m | d_m, after
    which r_m line steps of the terminal degree d_m / r_m remain.  deg_l has
    up to r entries, so r is capped at 2^16 (docs/formats.md).
    """
    if r < 1:
        raise PreconditionError(f"rank must be >= 1, got {r}")
    _check_rank_cap(r)
    pairs = [(r, d)]
    deg_l: list[int] = []
    gr_ranks: list[int] = []
    rj, dj = r, d
    while dj % rj:
        q = dj // rj  # floor division, also for negative degrees
        rem = dj - rj * q
        deg_l.append(q)
        gr_ranks.append(rem)
        rj, dj = rj - rem, dj - q * rem
        pairs.append((rj, dj))
    m = len(pairs) - 1
    tail_deg = dj // rj
    ell = m + rj
    deg_l.extend([tail_deg] * rj)
    gr_ranks.extend([1] * rj)
    h = math.gcd(r, abs(d))
    profile = AtiyahProfile(tuple(pairs), tuple(deg_l), tuple(gr_ranks), m, ell, h)
    _check_profile(profile)
    return profile


def _check_rank_cap(r: int, what: str = "rank"):
    if r > 2**16:
        raise PreconditionError(f"{what} must be <= 2^16 = 65536, got {r}")


def _check_total_rank(bundle: Sequence[AtiyahAtom]):
    """The caps on each rank and on their sum, before any profile is built."""
    for atom in bundle:
        _check_rank_cap(atom.r)
    _check_rank_cap(sum(atom.r for atom in bundle), "total rank")


def _check_profile(pr: AtiyahProfile):
    r, d = pr.pairs[0]
    if any(math.gcd(rj, abs(dj)) != pr.h for rj, dj in pr.pairs):
        raise PflagsError("gcd drifted along the recursion")
    if sum(pr.gr_ranks) != r or sum(g * l for g, l in zip(pr.gr_ranks, pr.deg_l)) != d:
        raise PflagsError("rank or degree not conserved by the recursion")


def line_classes(atom: AtiyahAtom) -> list[PicClass]:
    """The line-bundle classes L_1..L_ell of the canonical filtration: the
    recursion classes are multiples of the marked point; the terminal class
    carries the atom's degree-0 twist."""
    return _line_classes(atom, atiyah_profile(atom.r, atom.d))


def _line_classes(atom: AtiyahAtom, pr: AtiyahProfile) -> list[PicClass]:
    """``line_classes`` of the atom, read off its profile pr."""
    group, zero = atom.group, atom.group.zero
    return [PicClass(group, deg, zero if j < pr.m else atom.lam) for j, deg in enumerate(pr.deg_l)]


def first_line_class(atom: AtiyahAtom) -> PicClass:
    """L_1, read off the profile: a recursion class unless the recursion
    takes no step (m = 0)."""
    pr = atiyah_profile(atom.r, atom.d)
    return PicClass(atom.group, pr.deg_l[0], atom.group.zero if pr.m else atom.lam)


# -- connection existence ------------------------------------------------------------


def admits_connection(x: AtiyahAtom | Sequence[AtiyahAtom], p: int) -> bool:
    """Connection existence: p must divide every line-class degree of every
    atom (the terminal degree included); direct sums are handled atomwise."""
    _require_characteristic(p)
    if isinstance(x, AtiyahAtom):
        return all(deg % p == 0 for deg in atiyah_profile(x.r, x.d).deg_l)
    _check_total_rank(x)
    return all(admits_connection(atom, p) for atom in x)


def flag_skeleton(bundle: Sequence[AtiyahAtom], p: int) -> FlagSkeleton:
    """Graded line classes (with multiplicity) of any complete flag refining
    the canonical filtrations of a connection-admitting direct sum.

    An atom has at most m + 1 distinct classes, its m recursion classes and
    the terminal one, which repeats r_m times, so each is built and checked
    once, with its multiplicity."""
    _require_characteristic(p)
    _check_total_rank(bundle)
    entries: list[tuple[PicClass, int]] = []
    for atom in bundle:
        pr = atiyah_profile(atom.r, atom.d)
        degs = pr.deg_l[:pr.m + 1]
        for j, deg in enumerate(degs):
            if deg % p:
                raise PreconditionError(
                    f"{atom!r} admits no connection: p = {p} does not divide "
                    f"deg L_{j + 1} = {deg}"
                )
        group = atom.group
        entries.extend((PicClass(group, deg, group.zero), rank)
                       for deg, rank in zip(degs[:-1], pr.gr_ranks))
        entries.append((PicClass(group, degs[-1], atom.lam), pr.pairs[-1][0]))
    return FlagSkeleton(entries)


# -- hom constraints and peeling order ------------------------------------------------


def hom_constraint(src: AtiyahAtom, dst: AtiyahAtom) -> HomConstraint:
    """Constraint on maps src -> dst at the first filtration step.

    Strictly larger first-class degree forces the first step to die; equal
    degree with isomorphic classes forces it into the target's first step;
    otherwise this calculus imposes nothing.
    """
    l1 = first_line_class(src)
    l1p = first_line_class(dst)
    if l1.degree > l1p.degree:
        return HomConstraint.FORCES_ZERO_ON_FIL1
    if l1.degree == l1p.degree and l1 == l1p:
        return HomConstraint.PRESERVES_FIL1
    return HomConstraint.NO_CONSTRAINT


def peel_order(bundle: Sequence[AtiyahAtom]) -> list[PicClass]:
    """Distinct first-line classes in peeling order: degree descending, the
    zero-torsion class first among equals, remaining ties by torsion-vector
    lexicographic order."""
    _check_total_rank(bundle)
    distinct = {first_line_class(atom) for atom in bundle}
    return sorted(distinct, key=lambda cls: (-cls.degree, cls.tor))
