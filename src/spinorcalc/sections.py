"""Cohomology on generic linear sections of the spinor tenfold, and a
long-exact-sequence splicing solver.

A codimension-c linear section carries the exterior-algebra resolution of
its structure sheaf, so hypercohomology of a restricted bundle b is read
off a first page with entries H^q(tenfold, b(-p)) repeated binomial(c, p)
times; each column H(b(-p)) is one memoized ``cohomology(b, -p)`` call, so
pages at different codimensions share their columns.  Collapse detection is
conservative: a table is reported ``exact`` when no differential of any page
could join two nonzero entries, or when the page totals E_d, clamped to the
degrees 0..dim of the section, leave at most one degree d, since then the
Euler characteristic fixes h^d = (-1)^d chi.  Otherwise the result is
``euler_only`` with the clamped totals as per-degree upper bounds.  The
Euler characteristic is the alternating page sum either way.

The splice solver extracts the unknown term of a 3- or 4-term exact
sequence of sheaves from the known cohomology tables, by exact interval
propagation on the ranks of the long exact sequence.  The named pipelines
at the bottom assemble the section computations used for the rank-2
bundles E1y on the threefold and E2y on the K3 (the fibers of the
universal families over points of the dual curve and dual surface), whose
dual is the (-H)-twist since both have determinant H.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import Literal, Optional, Sequence, Union

from .bbw import DIM, CohomologyTable, HomogBundle, O, cohomology, make_bundle


UNKNOWN = None   # marks the one unknown term of a splice problem

Status = Literal["exact", "euler_only"]


@dataclass(frozen=True)
class SectionResult:
    """Outcome of a section or splice computation.

    ``table`` is the true cohomology table when ``status == "exact"`` and a
    per-degree upper bound otherwise; ``euler`` is exact in both cases.  A
    section table whose bounds leave a single degree is exact, its entry
    fixed by the Euler number.
    """

    status: Status
    table: CohomologyTable
    euler: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"

    def to_json(self) -> dict:
        return {"status": self.status, "h": self.table.to_json(), "euler": self.euler}


class SpliceError(ValueError):
    """Inconsistent known tables in a splice problem."""


def koszul_page(b: HomogBundle, codim: int) -> dict[tuple[int, int], int]:
    """Nonzero first-page entries (p, q) -> dim for a codim-c section."""
    if not 1 <= codim <= 9:
        raise ValueError(f"codim must be in 1..9, got {codim}")
    page: dict[tuple[int, int], int] = {}
    for p in range(codim + 1):
        mult = comb(codim, p)
        for q, n in cohomology(b, -p).entries:
            page[(p, q)] = mult * n
    return page


def _could_collapse_fail(page: dict[tuple[int, int], int]) -> bool:
    """True when some differential could join two nonzero entries.

    A page-r differential moves (p, q) to (p - r, q - r + 1) for r >= 1.
    """
    cells = list(page)
    for p, q in cells:
        for p2, q2 in cells:
            r = p - p2
            if r >= 1 and q - q2 == r - 1:
                return True
    return False


def section_cohomology(b: Union[HomogBundle, str], codim: int) -> SectionResult:
    """Cohomology of b restricted to a generic codimension-``codim`` section."""
    b = make_bundle(b)
    page = koszul_page(b, codim)
    by_degree: dict[int, int] = {}
    euler = 0
    for (p, q), n in page.items():
        d = q - p
        by_degree[d] = by_degree.get(d, 0) + n
        euler += n if d % 2 == 0 else -n
    top = DIM - codim
    if _could_collapse_fail(page):
        # True cohomology vanishes outside [0, top], so clamping tightens the bounds.
        bounds = {d: n for d, n in by_degree.items() if 0 <= d <= top}
        if len(bounds) > 1:
            return SectionResult("euler_only", CohomologyTable.from_dict(bounds), euler)
        # At most one degree d survives the clamp, so chi = (-1)^d h^d fixes the table.
        by_degree = {d: (-1) ** d * euler for d in bounds}
        if (euler and not bounds) or any(not 0 <= n <= bounds[d] for d, n in by_degree.items()):
            raise ArithmeticError(
                f"Euler number {euler} contradicts the page bounds {bounds} "
                f"for {b} at codim {codim}")
    elif any(d < 0 or d > top for d in by_degree):
        raise ArithmeticError(f"degenerate page for {b} at codim {codim}: {page}")
    return SectionResult("exact", CohomologyTable.from_dict(by_degree), euler)


def section_hilbert(codim: int, k: int) -> int:
    """Euler characteristic of O(k) on the codimension-``codim`` section."""
    return section_cohomology(O(k), codim).euler


# ---------------------------------------------------------------------------
# long-exact-sequence splicing
# ---------------------------------------------------------------------------


Term = Optional[CohomologyTable]


@dataclass(frozen=True)
class SpliceProblem:
    """An exact sequence of sheaves (3 or 4 terms) with one unknown term.

    ``dim`` is the dimension of the ambient space, bounding the degree
    range of every table.
    """

    terms: tuple[Term, ...]
    dim: int

    def __post_init__(self) -> None:
        if len(self.terms) not in (3, 4):
            raise ValueError("splice supports sequences of length 3 or 4")
        if self.terms.count(UNKNOWN) != 1:
            raise ValueError("exactly one UNKNOWN term is required")
        for t in self.terms:
            if t is not UNKNOWN and not isinstance(t, CohomologyTable):
                raise TypeError(f"bad splice term {t!r}")

    @property
    def unknown_index(self) -> int:
        return self.terms.index(UNKNOWN)


def _les_ranks(tables: Sequence[Optional[dict[int, int]]], dim: int):
    """Interval propagation on the ranks of a long exact sequence.

    ``tables`` lists the sheaves of a short exact sequence in order; one
    entry is None (unknown).  The flattened sequence T_0, T_1, ... runs
    through degrees 0..dim.  Returns (lo, hi) interval arrays for the
    flattened dimensions of the unknown, or raises SpliceError.
    """
    width = len(tables)
    n_flat = width * (dim + 1)
    t: list[Optional[int]] = []
    for d in range(dim + 1):
        for tab in tables:
            t.append(None if tab is None else tab.get(d, 0))

    # r[i] = rank of the map into T_i; r[0] and r[n_flat] are zero.
    lo = [0] * (n_flat + 1)
    hi = [0] * (n_flat + 1)
    big = sum(v for v in t if v is not None) + 1
    for i in range(1, n_flat):
        caps = [v for v in (t[i - 1], t[i]) if v is not None]
        hi[i] = min(caps) if caps else big

    changed = True
    while changed:
        changed = False
        for i in range(n_flat):
            if t[i] is None:
                continue
            # r[i] + r[i+1] = t[i]
            new_lo_a = max(lo[i], t[i] - hi[i + 1])
            new_hi_a = min(hi[i], t[i] - lo[i + 1])
            new_lo_b = max(lo[i + 1], t[i] - hi[i])
            new_hi_b = min(hi[i + 1], t[i] - lo[i])
            if new_lo_a > new_hi_a or new_lo_b > new_hi_b:
                raise SpliceError("known tables admit no exact sequence")
            if (new_lo_a, new_hi_a) != (lo[i], hi[i]):
                lo[i], hi[i] = new_lo_a, new_hi_a
                changed = True
            if (new_lo_b, new_hi_b) != (lo[i + 1], hi[i + 1]):
                lo[i + 1], hi[i + 1] = new_lo_b, new_hi_b
                changed = True
    return t, lo, hi


def _solve_ses(tables: Sequence[Term], dim: int) -> SectionResult:
    """Solve a 3-term exact sequence with one unknown sheaf."""
    u = tables.index(UNKNOWN)
    dicts = [None if tab is None else tab.dims() for tab in tables]
    t, lo, hi = _les_ranks(dicts, dim)

    width = len(tables)
    low_table: dict[int, int] = {}
    high_table: dict[int, int] = {}
    forced = True
    for d in range(dim + 1):
        i = width * d + u
        lo_dim = lo[i] + lo[i + 1]
        hi_dim = hi[i] + hi[i + 1]
        if lo_dim != hi_dim:
            forced = False
        if hi_dim:
            high_table[d] = hi_dim
        if lo_dim:
            low_table[d] = lo_dim

    euler = _unknown_euler(tables)
    if forced:
        return SectionResult("exact", CohomologyTable.from_dict(low_table), euler)
    return SectionResult("euler_only", CohomologyTable.from_dict(high_table), euler)


def splice_solve(problem: SpliceProblem) -> SectionResult:
    """Solve for the unknown cohomology table in a 3- or 4-term sequence."""
    terms = problem.terms
    dim = problem.dim
    u = problem.unknown_index

    if len(terms) == 3:
        return _solve_ses(terms, dim)

    a, b, c, d = terms
    # Split 0 -> A -> B -> C -> D -> 0 through M = image(B -> C):
    #   0 -> A -> B -> M -> 0   and   0 -> M -> C -> D -> 0.
    if u in (0, 1):
        mid = _solve_ses([UNKNOWN, c, d], dim)
        if not mid.exact:
            return _loose_four_term(terms, dim)
        first = [a, b, mid.table]
        first[u] = UNKNOWN
        return _solve_ses(first, dim)
    mid = _solve_ses([a, b, UNKNOWN], dim)
    if not mid.exact:
        return _loose_four_term(terms, dim)
    second = [mid.table, c, d]
    second[u - 1] = UNKNOWN
    return _solve_ses(second, dim)


def _unknown_euler(terms: Sequence[Term]) -> int:
    """Euler number of the unknown term: the alternating sum over an exact sequence is zero."""
    known = sum((-1) ** i * t.euler for i, t in enumerate(terms) if t is not UNKNOWN)
    return (-1) ** (terms.index(UNKNOWN) + 1) * known


def _loose_four_term(terms: tuple[Term, ...], dim: int) -> SectionResult:
    """Euler-only fallback when the intermediate sheaf is not forced."""
    neighbors: dict[int, int] = {}
    for t in terms:
        if isinstance(t, CohomologyTable):
            for deg, n in t.entries:
                for d2 in (deg - 1, deg, deg + 1):
                    if 0 <= d2 <= dim:
                        neighbors[d2] = neighbors.get(d2, 0) + n
    return SectionResult("euler_only", CohomologyTable.from_dict(neighbors), _unknown_euler(terms))


# ---------------------------------------------------------------------------
# named splice pipelines
#
# E1y is the rank-2 bundle on the threefold X (codim 7) with c1 = H and
# c2 = 5L attached to a point y of the dual curve; E2y its analogue on the
# K3 section S (codim 8).  Both satisfy dual(Ey) = Ey(-H).  U below is the
# tautological subbundle restricted to the section at hand.  The two
# pipelines the others build on are memoized; their results are frozen.
# ---------------------------------------------------------------------------


def _exact_table(expr: str, codim: int, copies: int = 1) -> CohomologyTable:
    res = section_cohomology(make_bundle(expr), codim)
    if not res.exact:
        raise ArithmeticError(f"expected a collapsed table for {expr} at codim {codim}")
    return res.table if copies == 1 else res.table.scaled(copies)


@functools.lru_cache(maxsize=None)
def pipeline_e1y_vanishing() -> tuple[SectionResult, SectionResult]:
    """H(X, E1y(-H)) = 0 and H(X, E1y x dual(U)(-H)) = 0.

    Both come from the presentation of E1y on the index-2 fourfold
    (codim 6): 0 -> O(-1)^5 -> dual(U)(-1) -> E1y(-H) -> 0, optionally
    tensored with dual(U).
    """
    plain = splice_solve(SpliceProblem(
        (_exact_table("O(-1)", 6, copies=5), _exact_table("dual(U)(-1)", 6), UNKNOWN),
        dim=4,
    ))
    tensored = splice_solve(SpliceProblem(
        (_exact_table("dual(U)(-1)", 6, copies=5),
         _exact_table("dual(U)*dual(U)(-1)", 6), UNKNOWN),
        dim=4,
    ))
    return plain, tensored


@functools.lru_cache(maxsize=None)
def pipeline_e1y_double_twist() -> SectionResult:
    """H(X, E1y(-2H)) via 0 -> E1y(-2H) -> O(-1)^5 -> dual(U)(-1) -> E1y(-H) -> 0.

    The interesting entry is degree 1, which must vanish.
    """
    e1y_minus_h = pipeline_e1y_vanishing()[0].table
    return splice_solve(SpliceProblem(
        (UNKNOWN,
         _exact_table("O(-1)", 7, copies=5),
         _exact_table("dual(U)(-1)", 7),
         e1y_minus_h),
        dim=3,
    ))


def pipeline_e2y_h0() -> SectionResult:
    """H(S, E2y(-H)) via restriction: 0 -> E1y(-2H) -> E1y(-H) -> E2y(-H)|_S -> 0.

    Degree 0 must vanish (stability of E2y).
    """
    e1y_minus_2h = pipeline_e1y_double_twist()
    if not e1y_minus_2h.exact:
        raise ArithmeticError("double-twist table did not collapse")
    e1y_minus_h = pipeline_e1y_vanishing()[0].table
    return splice_solve(SpliceProblem(
        (e1y_minus_2h.table, e1y_minus_h, UNKNOWN),
        dim=3,
    ))


def pipeline_e1y_tensor_u() -> SectionResult:
    """H(X, E1y x U(-H)) = 0 from 0 -> U -> O^10 -> dual(U) -> 0 tensored with E1y(-H)."""
    plain, tensored = pipeline_e1y_vanishing()
    return splice_solve(SpliceProblem(
        (UNKNOWN, plain.table.scaled(10), tensored.table),
        dim=3,
    ))


def pipeline_e1y_tensor_udual_2h() -> SectionResult:
    """H(X, E1y x dual(U)(-2H)) = {3: 1}.

    Uses the dual presentation 0 -> E1y(-H) -> U -> O^5 -> E1y -> 0
    tensored with dual(U)(-H); the one-dimensional degree-3 group is the
    numerical source of the left transform of dual(U) being a line.
    """
    _, tensored = pipeline_e1y_vanishing()
    return splice_solve(SpliceProblem(
        (UNKNOWN,
         _exact_table("U*dual(U)(-1)", 7),
         _exact_table("dual(U)(-1)", 7, copies=5),
         tensored.table),
        dim=3,
    ))
