"""Exact weight-lattice and Weyl-group combinatorics for D5 and its GL5 Levi.

Weights live in epsilon-coordinates: 5-tuples of rationals that are either
all integers or all half-odd-integers (the two parity classes of the D5
weight lattice).  The Weyl vector is rho = (4, 3, 2, 1, 0).  W(D5) acts by
permutations composed with even numbers of sign changes; the Levi Weyl
group W(GL5) = S5 acts by permutations alone.  The 20 positive roots of D5
are e_i - e_j and e_i + e_j for i < j; GL5 keeps only the differences.

A weight is stored as its doubled coordinates, a tuple of plain ints in
which half-integers are the odd numbers, and every computation here runs
on those ints.  Fractions appear only at the edges: when a weight is built
from, or read back as, rationals, and when it is parsed from or printed as
text; text becomes a rational only through ``read_rational``, which bounds
its size.  The arithmetic stays exact; no floating point enters anywhere.
All functions are pure; the two memos, of Littlewood-Richardson products
and of the horizontal strips they are built from, are observationally pure,
so concurrent use is safe.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Optional

Flavor = Literal["D5", "GL5"]

RANK = 5
RHO = (4, 3, 2, 1, 0)
_RHO2 = tuple(2 * r for r in RHO)


class RationalSyntaxError(ValueError):
    """Text that is not one ASCII rational number within the size bound."""


class WeightSyntaxError(RationalSyntaxError):
    """A weight written in text is not RANK comma-separated rationals."""


# Bound on a rational token: its length in characters and the size of its
# decimal exponent, so a parsed value has at most a few hundred digits.
_MAX_TOKEN = 256

_RATIONAL = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<int>(?:\d+(?:_\d+)*)?)
    (?:/(?P<den>\d+(?:_\d+)*)
     | (?:\.(?P<frac>(?:\d+(?:_\d+)*)?))? (?:e(?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE | re.ASCII)


def read_rational(text: str) -> Fraction:
    """Read one ASCII rational exactly: an integer, ``p/q``, or a decimal with
    an optional exponent (``0.1`` is 1/10, ``1.5e3`` is 1500).

    Raises RationalSyntaxError for anything else, for a zero denominator and
    for a token past the size bound.
    """
    if len(text) > _MAX_TOKEN:
        raise RationalSyntaxError(f"rational longer than {_MAX_TOKEN} characters")
    m = _RATIONAL.match(text)
    if m is None:
        raise RationalSyntaxError(f"not a rational number: {text.strip()!r}")
    num = int(m["int"] or "0")
    if m["den"] is not None:
        den = int(m["den"])
        if den == 0:
            raise RationalSyntaxError(f"zero denominator in {text.strip()!r}")
    else:
        frac = (m["frac"] or "").replace("_", "")
        exp = int(m["exp"] or "0") - len(frac)
        if abs(exp) > _MAX_TOKEN:
            raise RationalSyntaxError(f"exponent too large in {text.strip()!r}")
        num = num * 10 ** len(frac) + int(frac or "0")
        num, den = (num * 10 ** exp, 1) if exp >= 0 else (num, 10 ** -exp)
    return Fraction(-num if m["sign"] == "-" else num, den)


def _exact(c: int | Fraction | str) -> int | Fraction:
    """An exact coordinate: an int or Fraction as given, text through
    ``read_rational``; anything else, floats and bools too, is a TypeError."""
    if isinstance(c, str):
        return read_rational(c)
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"cannot build an exact coordinate from {c!r}")
    return c


def _halves(twice: tuple[int, ...]) -> tuple[Fraction, ...]:
    return tuple(Fraction(d, 2) for d in twice)


def _text(twice: tuple[int, ...]) -> str:
    """The doubled coordinates ``twice`` halved and written in the CLI weight syntax."""
    return ",".join(str(d >> 1) if d & 1 == 0 else f"{d}/2" for d in twice)


def _check_twice(twice: tuple[int, ...]) -> None:
    """Raise ValueError unless ``twice`` is RANK doubled coordinates of one parity."""
    if len(twice) != RANK:
        raise ValueError(f"expected {RANK} coordinates, got {len(twice)}")
    t0, t1, t2, t3, t4 = twice
    if ((t1 - t0) | (t2 - t0) | (t3 - t0) | (t4 - t0)) & 1:
        raise ValueError(f"mixed integer/half-integer coordinates: {_text(twice)}")


def _rebuild(cls: type, slots: dict) -> "_Frozen":
    """The ``cls`` instance with these slot values: how pickle and copy restore one."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(obj, name, value)
    return obj


class _Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``_fields``: they decide equality, which
    also needs the same class, the hash, which is that of the tuple of their
    values, and the repr.  Its constructors set them with ``object.__setattr__``;
    any other assignment or deletion raises AttributeError, so pickle and copy
    rebuild an instance through ``_rebuild``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        slots = [f for f in type(self).__slots__ if f != "__dict__"]
        return _rebuild, (type(self), {f: getattr(self, f) for f in slots})


class Weight(_Frozen):
    """A lattice point in epsilon-coordinates.

    Coordinates must all be integers or all half-odd-integers; mixing the
    two parity classes is a constructor-time error, since it always
    indicates a caller bug (no irreducible summand mixes them).  The
    constructor takes ints (a bool is refused), Fractions or strings such
    as ``"-3/2"``, which go through ``read_rational``; ``coords``, iteration
    and indexing give the coordinates back as Fractions, while ``twice``
    holds the doubled coordinates as ints.  Weights are immutable.
    """

    __slots__ = _fields = ("twice",)
    twice: tuple[int, ...]

    def __init__(self, coords: Iterable) -> None:
        cs = [_exact(c) for c in coords]
        if len(cs) != RANK:
            raise ValueError(f"expected {RANK} coordinates, got {len(cs)}")
        doubled = [2 * c for c in cs]
        if any(isinstance(d, Fraction) and d.denominator != 1 for d in doubled):
            raise ValueError(f"coordinates must be integers or half-integers: "
                             f"{','.join(map(str, cs))}")
        twice = tuple(int(d) for d in doubled)
        if len({d & 1 for d in twice}) > 1:
            raise ValueError(f"mixed integer/half-integer coordinates: {','.join(map(str, cs))}")
        object.__setattr__(self, "twice", twice)

    @classmethod
    def _from_twice(cls, twice: tuple[int, ...]) -> "Weight":
        """The weight with doubled coordinates ``twice``, skipping the Fraction work."""
        _check_twice(twice)
        return cls._unchecked(twice)

    @classmethod
    def _unchecked(cls, twice: tuple[int, ...]) -> "Weight":
        """The weight with doubled coordinates ``twice``, which the caller knows
        to be RANK ints of one parity."""
        w = object.__new__(cls)
        object.__setattr__(w, "twice", twice)
        return w

    def __repr__(self) -> str:
        return f"Weight(coords={self.coords!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Weight | Iterable") -> "Weight":
        o = other if isinstance(other, Weight) else Weight(other)
        return Weight._from_twice(tuple(a + b for a, b in zip(self.twice, o.twice)))

    def __sub__(self, other: "Weight | Iterable") -> "Weight":
        o = other if isinstance(other, Weight) else Weight(other)
        return Weight._from_twice(tuple(a - b for a, b in zip(self.twice, o.twice)))

    def __neg__(self) -> "Weight":
        return Weight._from_twice(tuple(-d for d in self.twice))

    def shifted(self, t) -> "Weight":
        """Add the scalar t to every coordinate (a determinant twist)."""
        return self + (t,) * RANK

    def dual(self) -> "Weight":
        """Highest weight of the dual representation: negate and reverse."""
        return Weight._from_twice(tuple(-d for d in reversed(self.twice)))

    def total(self) -> Fraction:
        return Fraction(sum(self.twice), 2)

    # -- conversions ------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return _halves(self.twice)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    @classmethod
    def from_text(cls, text: str) -> "Weight":
        """Parse the CLI syntax: comma-separated rationals, e.g. ``1/2,1/2,1/2,1/2,-1/2``.

        Malformed text raises WeightSyntaxError; well-formed rationals off
        the weight lattice raise the constructor's ValueError.
        """
        parts = text.split(",")
        if len(parts) != RANK:
            raise WeightSyntaxError(f"expected {RANK} comma-separated rationals, got {len(parts)}")
        try:
            coords = [read_rational(part) for part in parts]
        except RationalSyntaxError as exc:
            raise WeightSyntaxError(str(exc)) from None
        return cls(coords)

    def __str__(self) -> str:
        return _text(self.twice)


SPINOR = Weight((Fraction(1, 2),) * RANK)          # highest weight of the 16-dim half-spin rep
VECTOR = Weight((1, 0, 0, 0, 0))                   # highest weight of the 10-dim vector rep


def _gl5_dominant(c: tuple[int, ...]) -> bool:
    """Whether the doubled coordinates ``c`` are weakly decreasing."""
    return c[0] >= c[1] >= c[2] >= c[3] >= c[4]


def is_dominant(w: Weight, flavor: Flavor) -> bool:
    """Fundamental-chamber test: weakly decreasing; for D5 also c4 >= |c5|.

    An unknown flavor raises ValueError, whatever the weight.
    """
    if flavor != "GL5" and flavor != "D5":
        raise ValueError(f"unknown flavor {flavor!r}")
    c = w.twice
    return _gl5_dominant(c) and (flavor == "GL5" or c[3] >= abs(c[4]))


def _regularize(twice: tuple[int, ...]) -> Optional[tuple[int, tuple[int, ...]]]:
    """Rho-shifted D5 regularization of the weight lam with doubled coordinates
    ``twice``, which must be RANK ints of one parity (else ValueError).

    Let v = 2(lam + rho).  If v is singular (two coordinates of equal absolute
    value, two zeros included) return None.  Otherwise return (length, dom)
    where dom = w.v is the unique D5-dominant orbit representative (absolute
    values sorted descending, with the last sign flipped when v has an odd
    number of negative coordinates) and length counts the positive roots alpha
    with <v, alpha> < 0.  Doubling changes none of the signs or equalities.
    """
    _check_twice(twice)
    t0, t1, t2, t3, v4 = twice
    v0, v1, v2, v3 = t0 + 8, t1 + 6, t2 + 4, t3 + 2   # twice + _RHO2, without a loop
    a0, a1, a2, a3, a4 = sorted([x if x >= 0 else -x for x in (v0, v1, v2, v3, v4)],
                                reverse=True)
    if a0 == a1 or a1 == a2 or a2 == a3 or a3 == a4:
        return None
    # v_i < v_j counts the root e_i - e_j, v_i < -v_j the root e_i + e_j
    length = ((v0 < v1) + (v0 < v2) + (v0 < v3) + (v0 < v4) + (v1 < v2) + (v1 < v3)
              + (v1 < v4) + (v2 < v3) + (v2 < v4) + (v3 < v4)
              + (v0 < -v1) + (v0 < -v2) + (v0 < -v3) + (v0 < -v4) + (v1 < -v2)
              + (v1 < -v3) + (v1 < -v4) + (v2 < -v3) + (v2 < -v4) + (v3 < -v4))
    if ((v0 < 0) + (v1 < 0) + (v2 < 0) + (v3 < 0) + (v4 < 0)) & 1:
        a4 = -a4
    return length, (a0, a1, a2, a3, a4)


def bbw_regularize(lam: Weight) -> Optional[tuple[int, Weight]]:
    """Rho-shifted regularization of a weight under W(D5): None when lam + rho
    is singular, else (length, w.(lam + rho)) as ``_regularize`` describes."""
    reg = _regularize(lam.twice)
    return None if reg is None else (reg[0], Weight._unchecked(reg[1]))


def _root_product(v: tuple[int, ...], flavor: Flavor) -> int:
    """Product of <v, alpha> over the positive roots alpha of the flavor: the
    factors v_i - v_j for i < j, and for D5 also v_i + v_j, which pair up into
    v_i^2 - v_j^2."""
    if flavor == "D5":
        v = [x * x for x in v]
    a, b, c, d, e = v
    return (a - b) * (a - c) * (a - d) * (a - e) * (b - c) * (b - d) * (b - e) \
        * (c - d) * (c - e) * (d - e)


_WEYL_DENOMINATOR = {flavor: _root_product(_RHO2, flavor) for flavor in ("D5", "GL5")}


def _weyl_dim(v: tuple[int, ...], flavor: Flavor) -> int:
    """Weyl dimension of the highest weight lam with v = 2(lam + rho), ints of one
    parity: prod <v, a> / <2 rho, a> over the flavor's positive roots a.

    lam must be dominant, else ValueError: v strictly decreasing, for D5 also
    v[3] > |v[4]|, which with one parity is lam weakly decreasing and, for D5,
    lam[3] >= |lam[4]|.  A quotient that is not a positive integer is an
    ArithmeticError.
    """
    v0, v1, v2, v3, v4 = v
    if not (v0 > v1 > v2 > v3 > v4 and (flavor == "GL5" or v3 > -v4)):
        raise ValueError(f"{_text(_unshift(v))} is not {flavor}-dominant")
    num = _root_product(v, flavor)
    den = _WEYL_DENOMINATOR[flavor]
    d, rest = divmod(num, den)
    if rest or d <= 0:
        raise ArithmeticError(f"Weyl dimension of {_halves(_unshift(v))} came out as "
                              f"{Fraction(num, den)}")
    return d


def _unshift(v: tuple[int, ...]) -> tuple[int, ...]:
    """The doubled weight lam of v = 2(lam + rho)."""
    return tuple([a - b for a, b in zip(v, _RHO2)])


def weyl_dim(lam: Weight, flavor: Flavor) -> int:
    """Weyl dimension formula: prod <lam+rho, a> / <rho, a> over positive roots.

    An unknown flavor raises ValueError, as a weight that is not dominant does.
    """
    if flavor != "GL5" and flavor != "D5":
        raise ValueError(f"unknown flavor {flavor!r}")
    return _weyl_dim(tuple([a + b for a, b in zip(lam.twice, _RHO2)]), flavor)


@functools.lru_cache(maxsize=None)
def _strips(shape: tuple[int, ...], size: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every horizontal strip of ``size`` boxes on the partition ``shape``
    within RANK rows, as (new shape, cumulative row counts) pairs.

    Row r > 0 takes b_r boxes, at most the gap shape[r-1] - shape[r] so the
    strip stays horizontal; the loops choose b4, b3, b2, b1 in that order,
    each bounded by its gap and by the boxes still left, and row 0 takes
    the rest.  r_k counts the boxes in rows 0..k-1.
    """
    s0, s1, s2, s3, s4 = shape
    out = []
    for b4 in range(min(s3 - s4, size) + 1):
        r4 = size - b4
        for b3 in range(min(s2 - s3, r4) + 1):
            r3 = r4 - b3
            for b2 in range(min(s1 - s2, r3) + 1):
                r2 = r3 - b2
                for b1 in range(min(s0 - s1, r2) + 1):
                    b0 = r2 - b1
                    out.append(((s0 + b0, s1 + b1, s2 + b2, s3 + b3, s4 + b4),
                                (b0, r2, r3, r4, size)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _lr_products(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Littlewood-Richardson expansion of two partitions, truncated to 5 rows.

    Returns (doubled shape, multiplicity) pairs, shapes in decreasing order;
    every doubled entry is even.
    Adds the letters of mu one at a time, each as a horizontal strip, under
    the ballot condition: letter i+1 puts no more boxes in rows 0..r+1 than
    letter i put in rows 0..r.  A state is (shape, caps), caps[r] being the
    most boxes the next letter may put in rows 0..r; it maps to the number
    of partial tableaux that reach it, so equal states are extended once.
    """
    states = {(lam, (sum(mu),) * RANK): 1}
    for size in filter(None, mu):
        reached: dict = {}
        get = reached.get
        for (shape, (c0, c1, c2, c3, c4)), n in states.items():
            if size > c4:
                continue
            for new, (b0, b1, b2, b3, _) in _strips(shape, size):
                if b0 <= c0 and b1 <= c1 and b2 <= c2 and b3 <= c3:
                    key = (new, (0, b0, b1, b2, b3))
                    reached[key] = get(key, 0) + n
        states = reached
    out: Counter = Counter()
    for (shape, _), n in states.items():
        out[tuple(2 * c for c in shape)] += n
    return tuple(sorted(out.items(), reverse=True))


def tensor_decompose(lam: Weight, mu: Weight) -> tuple[tuple[Weight, int], ...]:
    """GL5 tensor product decomposition (rational determinant twists allowed).

    Splits a determinant power off both factors so they become partitions,
    expands by the Littlewood-Richardson rule, discards anything with more
    than five rows, and restores the combined twist.  Returns the
    (weight, multiplicity) pairs, weights distinct and in decreasing order.
    A hit in the LR memo is cheap: dominance is read off the doubled
    coordinates, both argument orders share one memo key, and the returned
    weights are built from ints that are known to be canonical.
    """
    lt = lam.twice
    mt = mu.twice
    if not _gl5_dominant(lt):
        raise ValueError(f"{lam} is not GL5-dominant")
    if not _gl5_dominant(mt):
        raise ValueError(f"{mu} is not GL5-dominant")
    a = lt[4]
    b = mt[4]
    lam_p = tuple([(d - a) >> 1 for d in lt])
    mu_p = tuple([(d - b) >> 1 for d in mt])
    # c^nu_{lam,mu} = c^nu_{mu,lam}: key the LR cache on the pair with the
    # larger partition first (by size, then entries), so the smaller one's
    # letters are placed
    if (sum(lam_p), lam_p) < (sum(mu_p), mu_p):
        lam_p, mu_p = mu_p, lam_p
    shift = a + b
    unchecked = Weight._unchecked
    # the doubled shapes are even, so adding one shift keeps every entry's parity equal
    return tuple([(unchecked(tuple([d + shift for d in shape])), m)
                  for shape, m in _lr_products(lam_p, mu_p)])
