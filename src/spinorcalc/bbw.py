"""Equivariant vector bundles on the ten-dimensional spinor variety and
their sheaf cohomology.

A bundle is a formal multiset of irreducible equivariant summands, each
named by its GL5-dominant highest weight.  Rather than committing to one
of the competing highest/lowest-weight conventions in the literature, the
weight dictionary is pinned by two base cases:

* ``O(1)``, the ample generator, is the line bundle of weight
  (1/2, 1/2, 1/2, 1/2, 1/2) and has 16 independent sections;
* ``dual(U)`` is the bundle of weight (1, 0, 0, 0, 0) with 10 sections.

Here ``U`` is the rank-5 tautological subbundle, of weight (0,0,0,0,-1);
its determinant is O(-2), and the canonical bundle of the tenfold is
O(-8).  Twisting by O(k) adds k/2 to every coordinate, dualizing negates
and reverses, and tensor products reduce to irreducibles through the
GL5 Littlewood-Richardson rule.

Cohomology of an irreducible summand is concentrated in a single degree:
the weight is rho-shifted and regularized; singular means no cohomology,
otherwise the degree is the number of positive roots made negative and
the dimension comes from the Weyl dimension formula for D5.  The memo of
these per-weight results runs on the doubled ints: it calls the int kernels
of ``rootdata`` for the regularization and the Weyl dimension and builds no
``Weight``.

``HomogBundle(...)`` validates its summands and puts them in canonical
order; ``twist``, ``dual``, ``*``, ``O`` and ``U`` keep that form by
construction and skip the checks, and ``dual`` works on the ints of the base.
A bundle is stored only in its untwisted form (base, shift): the doubled
weights less the first summand's last doubled coordinate, and that
coordinate, so b and every twist b(j) share one base.
The memos are keyed on bases, as plain ints, with the twist as an offset.
``cohomology(b, k)`` gives H(b(k)) from the table of b's base at shift + k:
the Koszul page columns H(b(-p)), ``hilbert``, plain ``cohomology(b)``
(k = 0) and the same columns of any twist of b share one table per total
shift, and none of them builds the twisted bundle.  ``b * c`` reads the
product of the two bases from a memo and twists it by the sum of the shifts.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb
from typing import Optional, Sequence, Union

from .rootdata import (
    Weight,
    _Frozen,
    _regularize,
    _weyl_dim,
    is_dominant,
    tensor_decompose,
    weyl_dim,
)

DIM = 10                 # dimension of the spinor tenfold
CANONICAL_TWIST = -8     # canonical bundle is O(-8)


class CohomologyTable(_Frozen):
    """Finitely supported map degree -> dimension, with its Euler number."""

    __slots__ = _fields = ("entries",)
    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        clean = tuple(sorted((d, n) for d, n in entries if n))
        for d, n in clean:
            if d < 0:
                raise ValueError(f"negative cohomological degree {d}")
            if n < 0:
                raise ValueError(f"negative dimension {n} in degree {d}")
        if len({d for d, _ in clean}) != len(clean):
            raise ValueError("duplicate degrees in cohomology table")
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_dict(cls, dims: dict[int, int]) -> "CohomologyTable":
        return cls(tuple(dims.items()))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[int, int], ...]) -> "CohomologyTable":
        """The table of ``entries`` that the caller built clean: degrees distinct,
        nonnegative and increasing, dimensions positive.  Skips the validation."""
        t = object.__new__(cls)
        object.__setattr__(t, "entries", entries)
        return t

    def dims(self) -> dict[int, int]:
        return dict(self.entries)

    def dim(self, degree: int) -> int:
        for d, n in self.entries:
            if d == degree:
                return n
        return 0

    @property
    def euler(self) -> int:
        return sum(n if d % 2 == 0 else -n for d, n in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, m: int) -> "CohomologyTable":
        return CohomologyTable(tuple((d, m * n) for d, n in self.entries))

    def __add__(self, other: "CohomologyTable") -> "CohomologyTable":
        merged = Counter(dict(self.entries))
        merged.update(dict(other.entries))
        return CohomologyTable.from_dict(dict(merged))

    def to_json(self) -> dict[str, int]:
        return {str(d): n for d, n in self.entries}

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        return "{" + ", ".join(f"{d}: {n}" for d, n in self.entries) + "}"


class HomogBundle(_Frozen):
    """Formal sum of irreducible equivariant bundles, tagged by weight.

    ``HomogBundle(summands)`` validates and canonicalizes: every multiplicity
    an int (not a bool), checked before merging, every weight a GL5-dominant
    ``Weight``, equal weights merged, zero multiplicities dropped, none
    negative, and the summands in strictly decreasing order of doubled weight.
    A bundle stores only their untwisted form (see ``_untwist``), the key of
    the cohomology and product memos; ``twice`` and ``summands`` derive from it.
    ``twist``, ``dual``, ``*``, ``O`` and ``U`` build through ``_from_base``,
    which keeps the form by construction and skips the checks.
    """

    _fields = ("_base", "_shift")
    __slots__ = _fields + ("__dict__",)   # the cached properties live in __dict__
    _base: tuple[tuple[tuple[int, ...], int], ...]
    _shift: int

    def __init__(self, summands: tuple[tuple[Weight, int], ...]) -> None:
        counts: Counter = Counter()
        for w, m in summands:
            if not isinstance(m, int) or isinstance(m, bool):
                raise TypeError(f"a summand multiplicity must be an int, got {m!r}")
            if not isinstance(w, Weight):
                raise TypeError(f"a summand weight must be a Weight, got {w!r}")
            if not is_dominant(w, "GL5"):
                raise ValueError(f"summand weight {w} is not GL5-dominant")
            counts[w.twice] += m
        clean = tuple(sorted(((t, m) for t, m in counts.items() if m), reverse=True))
        if any(m < 0 for _, m in clean):
            raise ValueError("negative multiplicity")
        base, shift = _untwist(clean)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_shift", shift)

    @classmethod
    def _from_base(cls, base, shift: int) -> "HomogBundle":
        """The bundle with untwisted form (``base``, ``shift``), which the caller
        keeps canonical.  A uniform shift keeps each weight's parity, dominance
        and place in the order; the zero bundle gets shift 0, as ``_untwist`` gives it."""
        b = object.__new__(cls)
        object.__setattr__(b, "_base", base)
        object.__setattr__(b, "_shift", shift if base else 0)
        return b

    @property
    def twice(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The summands as (doubled weight, multiplicity) ints."""
        return tuple((tuple(map(self._shift.__add__, t)), m) for t, m in self._base)

    @functools.cached_property
    def summands(self) -> tuple[tuple[Weight, int], ...]:
        return tuple((Weight._unchecked(t), m) for t, m in self.twice)

    @functools.cached_property
    def rank(self) -> int:
        return sum(m * weyl_dim(w, "GL5") for w, m in self.summands)

    def dual(self) -> "HomogBundle":
        # dual(b(s)) = dual(b)(-s); negating and reversing keeps weights dominant and
        # distinct, but not in order
        base, shift = _untwist(sorted([((-e, -d, -c, -b, -a), m)
                                       for (a, b, c, d, e), m in self._base], reverse=True))
        return HomogBundle._from_base(base, shift - self._shift)

    def twist(self, k: int) -> "HomogBundle":
        """Tensor with O(k): add k/2 to every coordinate, k to the doubled ones.
        The base stays, and k is added to the shift."""
        return HomogBundle._from_base(self._base, self._shift + _int_twist(k))

    def __mul__(self, other: "HomogBundle") -> "HomogBundle":
        # b(i) * c(j) = (b * c)(i + j), with the summands in the same order
        base, shift = _base_product(self._base, other._base)
        return HomogBundle._from_base(base, shift + self._shift + other._shift)

    def __str__(self) -> str:
        return " + ".join(f"{m}*({w})" if m != 1 else f"({w})" for w, m in self.summands)


def _int_twist(k: int) -> int:
    """``k``, checked to be an int, not a bool: the twist of ``O``, ``twist`` and ``cohomology``."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"the twist k must be an int, got {k!r}")
    return k


def _untwist(twice: Sequence) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """(base, shift) of the canonical (doubled weight, multiplicity) pairs ``twice``:
    ``shift`` is the first summand's last doubled coordinate, 0 when there is none, and
    ``base`` the doubled weights less ``shift`` in every coordinate."""
    shift = twice[0][0][-1] if twice else 0
    return tuple([(tuple([d - shift for d in t]), m) for t, m in twice]), shift


@functools.lru_cache(maxsize=None)
def _base_product(base1: tuple, base2: tuple) -> tuple[tuple, int]:
    """(base, shift) of the product of the bundles with bases ``base1`` and ``base2`` and
    shift 0, by the Littlewood-Richardson rule summand by summand."""
    counts: dict[tuple[int, ...], int] = {}
    for t1, m1 in base1:
        w1 = Weight._unchecked(t1)
        for t2, m2 in base2:
            for w, m in tensor_decompose(w1, Weight._unchecked(t2)):
                counts[w.twice] = counts.get(w.twice, 0) + m1 * m2 * m
    return _untwist(sorted(counts.items(), reverse=True))


def O(k: int = 0) -> HomogBundle:
    """The line bundle O(k), of doubled weight (k, k, k, k, k)."""
    return HomogBundle._from_base((((0,) * 5, 1),), _int_twist(k))


def U() -> HomogBundle:
    """The rank-5 tautological subbundle, of doubled weight (0, 0, 0, 0, -2)."""
    return HomogBundle._from_base((((2, 2, 2, 2, 0), 1),), -2)


def irreducible(w: Weight) -> HomogBundle:
    return HomogBundle(((w, 1),))


# ---------------------------------------------------------------------------
# bundle expression grammar:
#   expr   := factor { "*" factor }
#   factor := atom [ "(" integer ")" ] | "dual" "(" expr ")" [ "(" integer ")" ]
#   atom   := "O" | "U"
# An expression holds at most MAX_FACTORS atoms and nests "dual(" at most
# MAX_NESTING deep, which also bounds the recursion of parsing and building;
# a twist is at most MAX_TWIST in absolute value.
# ---------------------------------------------------------------------------

MAX_FACTORS = 16
MAX_NESTING = 16
MAX_TWIST = 1000


class BundleExprError(ValueError):
    """Syntax error in a bundle expression, with the offending offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


def read_twist(text: str, offset: int = 0) -> int:
    """An optionally signed run of ASCII digits, at most MAX_TWIST in absolute value;
    the digits are counted before ``int()``.  Errors are BundleExprErrors at ``offset``."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or any(c not in "0123456789" for c in digits):
        raise BundleExprError("expected integer", offset)
    if len(digits.lstrip("0")) > len(str(MAX_TWIST)) or abs(int(text)) > MAX_TWIST:
        raise BundleExprError(f"twist outside [-{MAX_TWIST}, {MAX_TWIST}]", offset)
    return int(text)


def parse_bundle_expr(text: str) -> tuple:
    """Parse a bundle expression into a tree of ('atom'|'dual'|'twist'|'tensor') nodes."""
    pos = 0
    n = len(text)
    atoms = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise BundleExprError(f"expected {ch!r}", pos)
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        while pos < n and text[pos] in "0123456789":
            pos += 1
        return read_twist(text[start:pos], start)

    def parse_factor(nesting: int) -> tuple:
        nonlocal pos, atoms
        skip_ws()
        if pos >= n:
            raise BundleExprError("expected a bundle factor", pos)
        if text.startswith("dual", pos):
            if nesting == MAX_NESTING:
                raise BundleExprError(f"dual nested more than {MAX_NESTING} deep", pos)
            pos += 4
            expect("(")
            inner = parse_expr(nesting + 1)
            expect(")")
            node: tuple = ("dual", inner)
        elif text[pos] in "OU":
            if atoms == MAX_FACTORS:
                raise BundleExprError(f"more than {MAX_FACTORS} factors", pos)
            atoms += 1
            node = ("atom", text[pos])
            pos += 1
        else:
            raise BundleExprError(f"unexpected {text[pos]!r}", pos)
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            k = parse_int()
            expect(")")
            node = ("twist", node, k)
        return node

    def parse_expr(nesting: int) -> tuple:
        nonlocal pos
        node = parse_factor(nesting)
        while True:
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                node = ("tensor", node, parse_factor(nesting))
            else:
                return node

    tree = parse_expr(0)
    skip_ws()
    if pos != n:
        raise BundleExprError(f"unexpected trailing {text[pos]!r}", pos)
    return tree


def build_bundle(tree: tuple) -> HomogBundle:
    kind = tree[0]
    if kind == "atom":
        return O() if tree[1] == "O" else U()
    if kind == "dual":
        return build_bundle(tree[1]).dual()
    if kind == "twist":
        return build_bundle(tree[1]).twist(tree[2])
    if kind == "tensor":
        return build_bundle(tree[1]) * build_bundle(tree[2])
    raise ValueError(f"malformed bundle tree {tree!r}")


def make_bundle(expr: Union[str, HomogBundle]) -> HomogBundle:
    """Build a bundle from an expression string; a bundle passes through."""
    if isinstance(expr, HomogBundle):
        return expr
    if not isinstance(expr, str):
        raise TypeError(f"a bundle is built from text or a HomogBundle, got {expr!r}")
    return build_bundle(parse_bundle_expr(expr))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _irreducible_cohomology(twice: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """(degree, dimension) of the one nonzero cohomology group of the irreducible
    bundle of doubled weight ``twice``, or None when it has none: the length of the
    rho-shifted regularization and the D5 Weyl dimension of the regularized weight,
    read on ints, with no Weight built."""
    reg = _regularize(twice)
    if reg is None:
        return None
    length, dom = reg
    return length, _weyl_dim(dom, "D5")


@functools.lru_cache(maxsize=None)
def _twisted_table(base: tuple[tuple[tuple[int, ...], int], ...], k: int) -> CohomologyTable:
    """H(b(k)) for the bundle b with untwisted form (``base``, 0).

    Twisting adds k to every doubled coordinate; a GL5-dominant weight stays
    dominant, so no twisted bundle is built except to name it in an error.
    """
    dims: dict[int, int] = {}
    for t, m in base:
        hit = _irreducible_cohomology(tuple(map(k.__add__, t)))
        if hit is not None:
            degree, dim = hit
            dims[degree] = dims.get(degree, 0) + m * dim
    # degrees count roots, so they are >= 0, and m and the Weyl dimensions are > 0
    entries = tuple(sorted(dims.items()))
    if entries and entries[-1][0] > DIM:
        raise ArithmeticError(
            f"cohomological degree above {DIM} for {HomogBundle._from_base(base, k)}")
    return CohomologyTable._canonical(entries)


def cohomology(b: HomogBundle, k: int = 0) -> CohomologyTable:
    """Sheaf cohomology of the twist b(k) on the tenfold, summand by summand."""
    return _twisted_table(b._base, b._shift + _int_twist(k))


def hilbert(b: HomogBundle, k: int) -> int:
    """Euler characteristic of b(k), from the same memoized table as
    ``cohomology(b, k)``; a polynomial of degree <= 10 in k."""
    return cohomology(b, k).euler


def tenfold_degree() -> int:
    """10! times the leading coefficient of k -> chi(O(k)); equals 12."""
    acc = 0
    o = O()
    for j in range(DIM + 1):
        acc += (-1) ** (DIM - j) * comb(DIM, j) * hilbert(o, j)
    return acc  # the 10th finite difference of a degree-10 polynomial is 10! a_10
