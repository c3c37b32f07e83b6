"""Cohomology on generic linear sections of the spinor tenfold, and a
long-exact-sequence splicing solver.

A codimension-c linear section carries the exterior-algebra resolution of
its structure sheaf, so hypercohomology of a restricted bundle b is read
off a first page with entries H^q(tenfold, b(-p)) repeated binomial(c, p)
times.  The columns H(b(-p)) are read once per bundle, each through one
``cohomology(b, -p)`` call, into a record keyed on b's untwisted form that
a deeper codimension extends; each codimension folds its per-degree totals
straight from those columns, weighting each cell by binomial(c, p), without
building the page, and the same record keeps the result of each codimension.
With E_d the page total in degree d = q - p and y_d the rank of the
differentials from degree d to d + 1, h^d = E_d - y_{d-1} - y_d; y_d = 0
unless a cell of degree d has a larger p than one of degree d + 1, and
h^d = 0 outside the degrees 0..dim of the section.  With two or more page
degrees in 0..dim, ``_chain`` bounds the y_d: the table is ``exact`` when
every h^d is pinned, else ``euler_only`` with upper bounds; with at most one,
the Euler characteristic pins that degree and one scan checks the page.  The
Euler characteristic is the alternating page sum either way.

The splice solver extracts the unknown term of a 3- or 4-term exact
sequence of sheaves from the known cohomology tables with the same chain,
run over the ranks of the maps of the long exact sequence.  The table
``_PIPELINES`` at the bottom declares the splices that give the cohomology
of the rank-2 bundles E1y on the threefold and E2y on the K3 (the fibers of
the universal families over points of the dual curve and dual surface),
whose dual is the (-H)-twist since both have determinant H.  Each entry
lists the terms of one exact sequence: section tables, results of earlier
entries, and the unknown.  ``pipeline(name)``, one memoized evaluator,
solves an entry, and every known term it splices must be exact.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Literal, NamedTuple, Optional, Sequence, Union

from .bbw import DIM, CohomologyTable, HomogBundle, O, cohomology, make_bundle
from .rootdata import _Frozen


UNKNOWN = None   # marks the one unknown term of a splice problem

Status = Literal["exact", "euler_only"]


class SectionResult(NamedTuple):
    """Outcome of a section or splice computation.

    ``table`` is the true cohomology table when ``status == "exact"`` and
    per-degree upper bounds otherwise; ``euler`` is exact in both cases.  For
    a section table or a 3-term splice the bounds are sharp: each is the
    largest value its degree takes over all ranks of the differentials or
    maps that fit the known data.
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


def _chain(a: Sequence[int], b: Sequence[int],
           free: Sequence[bool]) -> Optional[tuple[list[int], list[int]]]:
    """Bounds on the sums s_k = y_k + y_{k+1}, k < m = len(a), of a chain.

    The links y_0 .. y_m are nonnegative integers with y_0 = y_m = 0, y_k = 0
    unless ``free[k - 1]``, and a_k <= s_k <= b_k.  Returns the (lo, hi) lists
    of the sums, or None when no links satisfy the constraints.  On a path one
    forward and one backward sweep of interval propagation reach the fixpoint,
    and every value left to a link then extends to a solution, so the bounds
    are the exact minimum and maximum of each sum.
    """
    m = len(a)
    lo = [0] * (m + 1)
    hi = [0] + [min(b[k - 1], b[k]) if f else 0 for k, f in enumerate(free, 1)] + [0]
    # comparisons, not max/min calls: verify runs many splices
    for k in range(m):                # forward: y_{k+1} against y_k
        if a[k] - hi[k] > lo[k + 1]:
            lo[k + 1] = a[k] - hi[k]
        if b[k] - lo[k] < hi[k + 1]:
            hi[k + 1] = b[k] - lo[k]
    for k in range(m - 1, -1, -1):    # backward: y_k against y_{k+1}
        if a[k] - hi[k + 1] > lo[k]:
            lo[k] = a[k] - hi[k + 1]
        if b[k] - lo[k + 1] < hi[k]:
            hi[k] = b[k] - lo[k + 1]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return ([max(x, l + l2) for x, l, l2 in zip(a, lo, lo[1:])],
            [min(x, h + h2) for x, h, h2 in zip(b, hi, hi[1:])])


# _BINOMIALS[c][p] = binomial(c, p), the multiplicity of column p on the codim-c page
_BINOMIALS = tuple(tuple(comb(c, p) for p in range(c + 1)) for c in range(10))

Cell = tuple[int, int, int]   # (p, d = q - p, n): one nonzero entry of the column H(b(-p))


@functools.lru_cache(maxsize=None)
def _column_memo(base: tuple, shift: int) -> list:
    """[number of columns read, their cells in order of p, then q, {codim: SectionResult}]
    for the bundle with untwisted form (``base``, ``shift``).  ``_cells`` stores a new pair
    rather than extending the stored list, so the count and the cells always agree."""
    return [0, [], {}]


def _cells(b: HomogBundle, codim: int, memo: list) -> list[Cell]:
    """The cells of b's columns p = 0..codim, and maybe more, from b's record ``memo``;
    each column is read once, by one ``cohomology(b, -p)`` call."""
    read, cells, _ = memo
    if read <= codim:
        cells = cells + [(p, q - p, n) for p in range(read, codim + 1)
                         for q, n in cohomology(b, -p).entries]
        memo[:2] = codim + 1, cells
    return cells


def _check_codim(codim: int) -> None:
    """Raise TypeError unless ``codim`` is an int, not a bool, then ValueError unless
    it is in 1..9."""
    if not isinstance(codim, int) or isinstance(codim, bool):
        raise TypeError(f"codim must be an int, got {codim!r}")
    if not 1 <= codim <= 9:
        raise ValueError(f"codim must be in 1..9, got {codim}")


def koszul_page(b: HomogBundle, codim: int) -> dict[tuple[int, int], int]:
    """Nonzero first-page entries (p, q) -> dim for a codim-c section."""
    _check_codim(codim)
    weights = _BINOMIALS[codim]
    return {(p, d + p): weights[p] * n
            for p, d, n in _cells(b, codim, _column_memo(b._base, b._shift)) if p <= codim}


def section_cohomology(b: Union[HomogBundle, str], codim: int) -> SectionResult:
    """Cohomology of b restricted to a generic codimension-``codim`` section, kept in
    b's record; a call that raises keeps nothing."""
    b = make_bundle(b)
    _check_codim(codim)
    weights = _BINOMIALS[codim]
    memo = _column_memo(b._base, b._shift)
    results = memo[2]
    res = results.get(codim)
    if res is None:
        res = results[codim] = _section_result(b, codim, _cells(b, codim, memo), weights)
    return res


def _section_result(b: HomogBundle, codim: int, cells: Sequence[Cell],
                    weights: Sequence[int]) -> SectionResult:
    """The table of b on the codim section from the page of the cells with p <= codim, in
    order of p, column p weighted ``weights[p]``.  One pass folds the page totals."""
    top = DIM - codim
    totals: dict[int, int] = {}   # E_d, the page total in degree d = q - p
    least: dict[int, int] = {}    # the least and greatest p among the cells of degree d
    most: dict[int, int] = {}
    in_range = []                 # the degrees in [0, top]
    for p, d, n in cells:
        if p > codim:
            break
        if d in totals:
            totals[d] += weights[p] * n
        else:
            totals[d] = weights[p] * n
            least[d] = p
            if 0 <= d <= top:
                in_range.append(d)
        most[d] = p
    euler = 0
    for d, n in totals.items():
        euler += -n if d & 1 else n
    # A differential maps (p, q) to (p - r, q - r + 1), r >= 1: it raises d by one and lowers
    # p, so y_d is 0 unless d joins, that is most[d] > least[d + 1].
    if len(in_range) > 1:
        # h^d = E_d - y_{d-1} - y_d, with h^d >= 0 on [0, top] and h^d = 0 outside it
        joinable = {d for d, p in most.items() if p > least.get(d + 1, p)}
        degrees = range(min(totals), max(totals) + 1)
        e = [totals.get(d, 0) for d in degrees]
        sums = _chain([0 if 0 <= d <= top else n for d, n in zip(degrees, e)], e,
                      [d in joinable for d in degrees[:-1]])
        if sums is None:
            raise ArithmeticError(f"page of {b} at codim {codim} contradicts "
                                  f"h^d >= 0 on [0, {top}] and h^d = 0 outside it")
        lo, hi = sums
        entries = []   # the nonzero upper bounds E_d - s_d, in order of d
        for d, n, s in zip(degrees, e, lo):
            if n != s:
                if d < 0:
                    raise ValueError(f"negative cohomological degree {d}")
                if n < s:
                    raise ValueError(f"negative dimension {n - s} in degree {d}")
                entries.append((d, n - s))
        return SectionResult("exact" if lo == hi else "euler_only",
                             CohomologyTable._canonical(tuple(entries)), euler)
    # At most one degree d0 in [0, top], so chi = (-1)^d0 h^d0 and h^d = 0 elsewhere.  That
    # pins every sum of the chain, which reduces to y_d = E_d - h^d - y_{d-1}: it must stay
    # >= 0 and vanish where d does not join, as after the last degree.
    d0 = in_range[0] if in_range else None
    h = 0 if d0 is None else -euler if d0 & 1 else euler
    y = 0
    for d, n in sorted(totals.items()):
        y = n - y - (h if d == d0 else 0)
        if y and (y < 0 or most[d] <= least.get(d + 1, most[d])):
            break
    if y or h < 0:
        raise ArithmeticError(
            f"Euler number {euler} contradicts the page totals {totals} for {b} at codim {codim}")
    return SectionResult("exact", CohomologyTable._canonical(((d0, h),) if h else ()), euler)


def section_hilbert(codim: int, k: int) -> int:
    """Euler characteristic of O(k) on the codimension-``codim`` section."""
    return section_cohomology(O(k), codim).euler


# ---------------------------------------------------------------------------
# long-exact-sequence splicing
# ---------------------------------------------------------------------------


Term = Optional[CohomologyTable]
Bounds = tuple[list[int], list[int]]   # per-degree (lo, hi) of one term


class SpliceProblem(_Frozen):
    """An exact sequence of sheaves (3 or 4 terms) with one unknown term.

    ``dim``, an int, is the dimension of the ambient space, bounding the
    degree range of every table; ``terms`` is kept as a tuple.
    """

    __slots__ = _fields = ("terms", "dim")
    terms: tuple[Term, ...]
    dim: int

    def __init__(self, terms: Sequence[Term], dim: int) -> None:
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"dim must be an int, got {dim!r}")
        terms = tuple(terms)
        if len(terms) not in (3, 4):
            raise ValueError("splice supports sequences of length 3 or 4")
        if terms.count(UNKNOWN) != 1:
            raise ValueError("exactly one UNKNOWN term is required")
        for t in terms:
            if t is UNKNOWN:
                continue
            if not isinstance(t, CohomologyTable):
                raise TypeError(f"bad splice term {t!r}")
            if t.entries and t.entries[-1][0] > dim:
                raise ValueError(f"splice term {t} has a degree above dim {dim}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dim", dim)

    @property
    def unknown_index(self) -> int:
        return self.terms.index(UNKNOWN)


def _ses(terms: Sequence[Bounds]) -> list[Bounds]:
    """Exact per-degree bounds on the terms of 0 -> T0 -> T1 -> T2 -> 0.

    Each term comes as per-degree (lo, hi) bounds.  In the flattened long
    exact sequence H^0(T0), H^0(T1), H^0(T2), H^1(T0), ... every entry is the
    rank of the map into it plus the rank of the map out of it: a chain.
    """
    a = [n for row in zip(*(lo for lo, _ in terms)) for n in row]
    b = [n for row in zip(*(hi for _, hi in terms)) for n in row]
    sums = _chain(a, b, [True] * (len(a) - 1))
    if sums is None:
        raise SpliceError("known tables admit no exact sequence")
    lo, hi = sums
    return [(lo[j::3], hi[j::3]) for j in range(3)]


def splice_solve(problem: SpliceProblem) -> SectionResult:
    """Solve for the unknown cohomology table in a 3- or 4-term sequence.

    Every term is a per-degree interval: a known table is pinned, and the
    unknown runs from 0 to more than all known entries together.  A 3-term
    sequence is one chain (``_ses``).  A 4-term sequence 0 -> A -> B -> C ->
    D -> 0 splits through M = image(B -> C) into 0 -> A -> B -> M -> 0 and
    0 -> M -> C -> D -> 0, with M a second interval unknown shared by the
    two; the sequence without the unknown runs first, then the two alternate
    until a pass leaves M unchanged.  The result is ``exact`` when every
    degree of the unknown is pinned, else ``euler_only`` with its upper
    bounds; the Euler number is exact either way.
    """
    terms, u = problem.terms, problem.unknown_index
    degrees = range(problem.dim + 1)
    big = 1 + sum(n for t in terms if t is not UNKNOWN for _, n in t.entries)

    def interval(t: Term) -> Bounds:
        if t is UNKNOWN:
            return [0] * len(degrees), [big] * len(degrees)
        dims = t.dims()
        return ([dims.get(d, 0) for d in degrees],) * 2

    bounds = [interval(t) for t in terms]
    if len(bounds) == 3:
        bounds = _ses(bounds)
    else:
        left, right = bounds[:2], bounds[2:]
        # the first pass bounds M by known entries, below big, so the unknown's side always runs
        mid, on_right = interval(UNKNOWN), u < 2
        while True:
            if on_right:
                new_mid, *right = _ses([mid, *right])
            else:
                *left, new_mid = _ses([*left, mid])
            if new_mid == mid:
                break
            mid, on_right = new_mid, not on_right
        bounds = left + right
    lo, hi = bounds[u]
    # the alternating sum of Euler numbers over an exact sequence is zero
    euler = (-1) ** (u + 1) * sum((-1) ** i * t.euler
                                  for i, t in enumerate(terms) if t is not UNKNOWN)
    return SectionResult("exact" if lo == hi else "euler_only",
                         CohomologyTable.from_dict(dict(zip(degrees, hi))), euler)


# ---------------------------------------------------------------------------
# named splice pipelines
#
# E1y is the rank-2 bundle on the threefold X (codim 7) with c1 = H and
# c2 = 5L attached to a point y of the dual curve; E2y its analogue on the
# K3 section S (codim 8).  Both satisfy dual(Ey) = Ey(-H).  U below is the
# tautological subbundle restricted to the section at hand.
# ---------------------------------------------------------------------------


# result name -> (the terms of its exact sequence, dim).  A term is a section table
# (bundle expression, codim, copies), an earlier entry's result (name, copies), or UNKNOWN.
_PIPELINES: dict[str, tuple[tuple[Optional[tuple], ...], int]] = {
    # 0 -> O(-1)^5 -> dual(U)(-1) -> E1y(-H) -> 0 on the index-2 fourfold (codim 6)
    "E1y(-H)": ((("O(-1)", 6, 5), ("dual(U)(-1)", 6, 1), UNKNOWN), 4),
    # 0 -> dual(U)(-1)^5 -> dual(U)*dual(U)(-1) -> E1y*dual(U)(-H) -> 0, the above times dual(U)
    "E1y*dual(U)(-H)": ((("dual(U)(-1)", 6, 5), ("dual(U)*dual(U)(-1)", 6, 1), UNKNOWN), 4),
    # 0 -> E1y(-2H) -> O(-1)^5 -> dual(U)(-1) -> E1y(-H) -> 0 on X
    "E1y(-2H)": ((UNKNOWN, ("O(-1)", 7, 5), ("dual(U)(-1)", 7, 1), ("E1y(-H)", 1)), 3),
    # 0 -> E1y(-2H) -> E1y(-H) -> E2y(-H) -> 0, restricting E1y(-H) from X to S; its H^0
    # vanishes by the stability of E2y
    "E2y(-H)": ((("E1y(-2H)", 1), ("E1y(-H)", 1), UNKNOWN), 3),
    # 0 -> E1y*U(-H) -> E1y(-H)^10 -> E1y*dual(U)(-H) -> 0, from 0 -> U -> O^10 -> dual(U) -> 0
    "E1y*U(-H)": ((UNKNOWN, ("E1y(-H)", 10), ("E1y*dual(U)(-H)", 1)), 3),
    # 0 -> E1y(-H) -> U -> O^5 -> E1y -> 0 tensored with dual(U)(-H); its one line, in
    # degree 3, is the numerical source of the left transform of dual(U) being a line
    "E1y*dual(U)(-2H)": ((UNKNOWN, ("U*dual(U)(-1)", 7, 1), ("dual(U)(-1)", 7, 5),
                          ("E1y*dual(U)(-H)", 1)), 3),
}


@functools.lru_cache(maxsize=None)
def pipeline(name: str) -> SectionResult:
    """The ``_PIPELINES`` entry ``name`` solved for its unknown, memoized; ``_known``
    reads an earlier entry's result from here too."""
    if name not in _PIPELINES:
        raise ValueError(f"unknown pipeline {name!r}; known: {list(_PIPELINES)}")
    terms, dim = _PIPELINES[name]
    return splice_solve(SpliceProblem(tuple(map(_known, terms)), dim=dim))


def _known(term: Optional[tuple]) -> Term:
    """The table of a known term times its copies, which must be exact; UNKNOWN stays."""
    if term is UNKNOWN:
        return UNKNOWN
    if len(term) == 3:
        expr, codim, copies = term
        res, what = section_cohomology(expr, codim), f"{expr} at codim {codim}"
    else:
        name, copies = term
        res, what = pipeline(name), f"the {name} result"
    if not res.exact:
        raise ArithmeticError(f"expected a collapsed table for {what}")
    return res.table if copies == 1 else res.table.scaled(copies)
