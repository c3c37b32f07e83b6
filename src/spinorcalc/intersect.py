"""Truncated rational cohomology rings and Riemann-Roch arithmetic.

The models (all with exact rational coefficients):

* ``X``: the degree-12 Fano threefold section, basis 1, H, L, P with
  H^2 = 12 L, H L = P (so H^3 = 12 P); Todd class 1 + H/2 + 3L + P.
* ``S`` and ``Sd``: the degree-12 K3 sections, basis 1, H, P with
  H^2 = 12 P; Todd class 1 + 2P.
* ``C``: the genus-7 canonical curve, basis 1, pt with pt = H/12 (the
  hyperplane class is 12 pt); Todd class 1 - 6 pt.
* pairwise products carry the Kunneth tensor basis with labels "a*b";
  the threefold-curve product has one extra even class ``eta`` of
  codimension 2, squaring to a rational multiple of the point class and
  killed by every positive-codimension pullback (it is the shadow of the
  odd-cohomology block in the second Chern class of the universal
  bundle).

Representation.  A model numbers its basis (``index``: label -> position;
``grades``: codimensions, unit first) and holds one sparse integer
structure-constant table over one positive denominator ``den``:
``table[i * n + j]`` lists the (k, c) with e_i e_j = sum (c / den) e_k.  The
Kunneth class (a, b) sits at ``a * n_right + b`` and ``eta`` after them, so
product tables and the maps between models are index arithmetic: a lift and a
fiber integral are the pull and push of a memoized projection
(``_projection``).  A factor model is generated by its hyperplane class H:
basis class i is a fixed rational multiple of H^i, and the model carries H and
its Todd class as data.  Its grade-2 basis class (L on the threefold, P on a
K3; the curve has none) is its codimension-2 class.  A class holds integer
numerators over one positive denominator, not necessarily in lowest terms: the
common factor is divided out only where the denominator is multiplied (a ring
product, a scaling by a non-integral rational, a division by an int), and
equality cross-multiplies.  Every ring operation runs on these ints; Fractions
appear only at the edges (``coeffs``, ``coefficient``, ``integrate``, the JSON
round trip and ``repr``, which all read the reduced value) and in the results
of the linear solves, which eliminate on ints.  A class is also the one type
for Chern data: its ``rank`` is the integral degree-zero coefficient, and
``chern_classes`` and ``from_chern`` convert through Newton's identities.

Only even polarized classes get basis elements; integrality is never
asserted beyond what the underlying geometry forces, so coefficients stay
in Q throughout.  Models are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm
from typing import Callable, Literal, NamedTuple, Optional, Sequence, Union

from .rootdata import _exact, _Frozen, read_rational

Q = Fraction


class ClassSyntaxError(ValueError):
    """Class input that is not an object mapping labels to exact rationals."""


# Value kinds CohClass.from_json refuses, named as JSON names them.
_JSON_KINDS = {bool: "a boolean", type(None): "null", float: "a float", list: "an array",
               dict: "an object"}

ETA = "eta"

# rows[i] = ((k, c), ...): a sparse integer image of basis class i.
Row = tuple[tuple[int, int], ...]
Rows = tuple[Row, ...]


def _over_common_den(values: Sequence[Union[int, Q]]) -> tuple[list[int], int]:
    """Integer numerators of the rationals over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class RingModel(_Frozen):
    """A truncated cohomology ring: indexed graded basis, products, integration.

    Two models are equal only when they are the same object."""

    __slots__ = ("name", "basis", "grades", "table", "den", "factors", "todd", "hyperplane",
                 "index", "cells", "dim", "top_index")
    name: str
    basis: tuple[str, ...]
    grades: tuple[int, ...]
    table: Rows
    den: int
    factors: Optional[tuple["RingModel", "RingModel"]]
    todd: Optional[tuple[tuple[int, ...], int]]   # a factor's Todd class, num over den
    hyperplane: Optional[tuple[tuple[int, ...], int]]   # a factor's H, num over den
    index: dict[str, int]
    cells: tuple[tuple[tuple[int, Row], ...], ...]
    dim: int
    top_index: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, basis: tuple[str, ...], grades: tuple[int, ...], table: Rows,
                 den: int, factors: Optional[tuple["RingModel", "RingModel"]] = None,
                 todd: Optional[tuple[tuple[int, ...], int]] = None,
                 hyperplane: Optional[tuple[tuple[int, ...], int]] = None) -> None:
        dim = max(grades)
        # cells[i] = the (j, table[i * n + j]) with a nonzero product e_i e_j
        n = len(basis)
        cells: list[list[tuple[int, Row]]] = [[] for _ in range(n)]
        for p, row in enumerate(table):
            if row:
                cells[p // n].append((p % n, row))
        for f, value in zip(self.__slots__, (
                name, basis, grades, table, den, factors, todd, hyperplane,
                {l: i for i, l in enumerate(basis)}, tuple(map(tuple, cells)), dim,
                grades.index(dim))):
            object.__setattr__(self, f, value)

    def __repr__(self) -> str:
        return f"RingModel({self.name})"


class CohClass:
    """A rational class over a fixed ring model: ``num[i] / den`` on basis class i."""

    __slots__ = ("model", "num", "den")

    def __init__(self, model: RingModel, coeffs: Optional[dict[str, Q]] = None) -> None:
        values: list[Union[int, Q]] = [0] * len(model.basis)
        for label, c in (coeffs or {}).items():
            if label not in model.index:
                raise ValueError(f"unknown basis class {label!r} on {model.name}")
            c = _exact(c)
            values[model.index[label]] = c if type(c) is int else Q(c)
        self.model = model
        self.num, self.den = _reduced(*_over_common_den(values))

    @classmethod
    def _make(cls, model: RingModel, num: tuple[int, ...], den: int) -> "CohClass":
        """The class with numerators ``num`` over ``den`` > 0, stored as given."""
        obj = object.__new__(cls)
        obj.model = model
        obj.num = num
        obj.den = den
        return obj

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, model: RingModel) -> "CohClass":
        return cls._make(model, (0,) * len(model.basis), 1)

    @classmethod
    def unit(cls, model: RingModel) -> "CohClass":
        return cls._make(model, (1,) + (0,) * (len(model.basis) - 1), 1)

    @classmethod
    def basis_class(cls, model: RingModel, label: str, coeff: Union[Q, int, str] = 1) -> "CohClass":
        i = model.index.get(label)
        if i is None or type(coeff) is not int:
            return cls(model, {label: coeff})
        num = [0] * len(model.basis)
        num[i] = coeff
        return cls._make(model, tuple(num), 1)

    @classmethod
    def from_chern(cls, rank: int, cs: Sequence["CohClass"], model: RingModel) -> "CohClass":
        """The character of the given rank with Chern classes c_1, c_2, ... = ``cs``."""
        e = list(cs) + [cls.zero(model)] * (model.dim - len(cs))
        ch = cls.unit(model).scale(rank)
        for k, p in enumerate(_newton(model, e, power_sums=False), 1):
            ch = ch + p._divided(factorial(k))
        return ch

    # -- ring operations --------------------------------------------------

    def _check(self, other: "CohClass") -> None:
        if self.model is not other.model:
            raise ValueError(f"model mismatch: {self.model.name} vs {other.model.name}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return CohClass._make(self.model,
                              tuple([a * fa + b * fb for a, b in zip(self.num, other.num)]), den)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass._make(self.model, tuple([-a for a in self.num]), self.den)

    def scale(self, t: Union[Q, int, str]) -> "CohClass":
        if type(t) is not int and type(t) is not Q:
            t = _exact(t)
        n, d = t.numerator, t.denominator
        if d != 1:
            return CohClass._make(self.model, *_reduced([n * a for a in self.num], self.den * d))
        return CohClass._make(self.model, tuple([n * a for a in self.num]), self.den)

    def _divided(self, k: int) -> "CohClass":
        """This class divided by the positive int ``k``."""
        return CohClass._make(self.model, *_reduced(self.num, self.den * k))

    def __rmul__(self, t: Union[Q, int]) -> "CohClass":
        return self.scale(t)

    def __mul__(self, other: Union["CohClass", Q, int]) -> "CohClass":
        if not isinstance(other, CohClass):
            return self.scale(other)
        self._check(other)
        model = self.model
        right = other.num
        out = [0] * len(right)
        for a, cells in zip(self.num, model.cells):
            if a:
                for j, row in cells:
                    b = right[j]
                    if b:
                        ab = a * b
                        for k, s in row:
                            out[k] += ab * s
        return CohClass._make(model, *_reduced(out, self.den * other.den * model.den))

    def __pow__(self, n: int) -> "CohClass":
        acc = CohClass.unit(self.model)
        for _ in range(n):
            acc = acc * self
        return acc

    def twisted(self, line: "CohClass") -> "CohClass":
        """Tensor with the line bundle of first Chern class ``line``."""
        return self * exp_class(line)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass) or self.model is not other.model:
            return False
        da, db = self.den, other.den
        if da == db:
            return self.num == other.num
        return all(a * db == b * da for a, b in zip(self.num, other.num))

    def __hash__(self) -> int:
        return hash((id(self.model), *_reduced(self.num, self.den)))

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- grading ----------------------------------------------------------

    def component(self, k: int) -> "CohClass":
        grades = self.model.grades
        return CohClass._make(self.model,
                              tuple([a if g == k else 0 for a, g in zip(self.num, grades)]),
                              self.den)

    def coefficient(self, label: str) -> Q:
        i = self.model.index.get(label)
        return Q(0) if i is None else Q(self.num[i], self.den)

    @property
    def coeffs(self) -> dict[str, Q]:
        """The nonzero coefficients by label, in basis order."""
        return {l: Q(a, self.den) for l, a in zip(self.model.basis, self.num) if a}

    def dual(self) -> "CohClass":
        """Componentwise (-1)^codim; eta counts as its even codimension 2."""
        grades = self.model.grades
        return CohClass._make(self.model,
                              tuple([-a if g % 2 else a for a, g in zip(self.num, grades)]),
                              self.den)

    def integrate(self) -> Q:
        """Coefficient of the top class (zero when there is no top part)."""
        return Q(self.num[self.model.top_index], self.den)

    @property
    def rank(self) -> int:
        """The degree-zero coefficient; a ValueError unless it is an integer."""
        rank, rest = divmod(self.num[0], self.den)
        if rest:
            raise ValueError(f"non-integral rank {Q(self.num[0], self.den)}")
        return rank

    def chern_classes(self) -> list["CohClass"]:
        """c_1 .. c_dim recovered from the character by Newton's identities."""
        dim = self.model.dim
        return _newton(self.model, [self.component(k).scale(factorial(k))
                                    for k in range(1, dim + 1)], power_sums=True)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {l: str(c) for l, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, model: RingModel, data: object) -> "CohClass":
        """Read an object mapping labels to exact rationals: strings go through
        ``rootdata.read_rational``, ints and Fractions pass; any other value
        (a float, a boolean, null, an array, an object) is a ClassSyntaxError."""
        if not isinstance(data, dict):
            raise ClassSyntaxError("a JSON class must be an object mapping labels to rationals")
        coeffs = {}
        for label, value in data.items():
            if isinstance(value, str):
                value = read_rational(value)
            elif isinstance(value, bool) or not isinstance(value, (int, Q)):
                kind = _JSON_KINDS.get(type(value), type(value).__name__)
                raise ClassSyntaxError(f"coefficient of {label!r} is {kind}, not a rational number")
            coeffs[label] = value
        return cls(model, coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{label}" if label != "1" else f"{c}"
                          for label, c in self.coeffs.items())


def _reduced(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """``num`` over ``den`` in lowest terms."""
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple([a // g for a in num]), den // g


def exp_class(a: CohClass) -> CohClass:
    """exp of a positive-codimension class (nilpotent, so a finite sum)."""
    if a.component(0).coeffs:
        raise ValueError("exp requires a class of positive codimension")
    acc = CohClass.unit(a.model)
    term = CohClass.unit(a.model)
    for k in range(1, a.model.dim + 1):
        term = term * a
        if term.is_zero:
            break
        acc = acc + term._divided(factorial(k))
    return acc


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def _build_factor(name: str, labels: Sequence[str], dens: Sequence[int],
                  todd_class: tuple[Sequence[int], int]) -> RingModel:
    """A ring generated by H with basis label i representing H^i / dens[i]; the
    Todd class is given as integer numerators over a denominator."""
    n = len(labels)
    # (H^i / d_i)(H^j / d_j) = (d_k / (d_i d_j)) * (H^k / d_k) with k = i + j, zero past
    # the top; each constant in lowest terms, then all over the lcm of their denominators
    pairs = [(i, j) for i in range(n) for j in range(n) if i + j < n]
    consts = [_reduced((dens[i + j],), dens[i] * dens[j]) for i, j in pairs]
    den = lcm(*(q for _, q in consts))
    entries = {i * n + j: ((i + j, p * (den // q)),) for (i, j), ((p,), q) in zip(pairs, consts)}
    table = tuple(entries.get(c, ()) for c in range(n * n))
    # H is dens[1] times basis class 1
    hyperplane = ((0, dens[1]) + (0,) * (n - 2), 1)
    return RingModel(name, tuple(labels), tuple(range(n)), table, den,
                     todd=_reduced(*todd_class), hyperplane=hyperplane)


@functools.lru_cache(maxsize=None)
def model_x() -> RingModel:
    # H^2 = 12 L and H L = P: L is H^2/12 and P is H^3/12; Todd class 1 + H/2 + 3L + P.
    return _build_factor("X", ("1", "H", "L", "P"), (1, 1, 12, 12), ((2, 1, 6, 2), 2))


@functools.lru_cache(maxsize=None)
def model_s(name: str = "S") -> RingModel:
    return _build_factor(name, ("1", "H", "P"), (1, 1, 12), ((1, 0, 2), 1))


def model_sdual() -> RingModel:
    return model_s("Sd")


@functools.lru_cache(maxsize=None)
def model_curve() -> RingModel:
    return _build_factor("C", ("1", "pt"), (1, 12), ((1, -6), 1))


@functools.lru_cache(maxsize=None)
def _product_model(left: RingModel, right: RingModel, eta_square: Optional[Q]) -> RingModel:
    """The Kunneth product of two factor models; with ``eta_square`` not None,
    the same product extended by eta, whose square is eta_square times the top
    Kunneth class.  The factor tables are multiplied once per factor pair: an
    eta model copies the rows of the memoized eta-free product."""
    if eta_square is not None:
        return _with_eta(_product_model(left, right, None), eta_square)
    nl, nr = len(left.basis), len(right.basis)
    n = nl * nr
    entries: dict[int, tuple[tuple[int, int], ...]] = {}
    for (a1, a2), (b1, b2) in product(product(range(nl), repeat=2), product(range(nr), repeat=2)):
        lrow, rrow = left.table[a1 * nl + a2], right.table[b1 * nr + b2]
        if lrow and rrow:
            entries[(a1 * nr + b1) * n + a2 * nr + b2] = tuple(
                (ka * nr + kb, ca * cb) for ka, ca in lrow for kb, cb in rrow)
    labels = tuple(f"{a}*{b}" for a in left.basis for b in right.basis)
    grades = tuple(ga + gb for ga in left.grades for gb in right.grades)
    table = tuple(entries.get(p, ()) for p in range(n * n))
    return RingModel(f"{left.name}x{right.name}", labels, grades, table,
                     left.den * right.den, (left, right))


def _with_eta(base: RingModel, eta_square: Q) -> RingModel:
    """``base`` with eta appended: fixed by the unit (index 0), killed by positive
    codimension, squaring to eta_square times the top class.  Every constant is
    scaled by q so that eta^2 = (p/q) top fits the integer table."""
    n_kunneth = len(base.basis)
    eta, q = n_kunneth, eta_square.denominator
    den = q * base.den
    rows = [tuple((k, q * c) for k, c in row) if q != 1 else row for row in base.table]
    table: list[tuple[tuple[int, int], ...]] = []
    for i in range(n_kunneth):
        table += rows[i * n_kunneth:(i + 1) * n_kunneth]
        table.append(((eta, den),) if i == 0 else ())
    table.append(((eta, den),))
    table += [()] * (n_kunneth - 1)
    table.append(((base.top_index, eta_square.numerator * base.den),) if eta_square else ())
    return RingModel(base.name, base.basis + (ETA,), base.grades + (2,), tuple(table), den,
                     base.factors)


def s_times_sdual() -> RingModel:
    return _product_model(model_s(), model_sdual(), None)


def x_times_sdual() -> RingModel:
    return _product_model(model_x(), model_sdual(), None)


def s_times_curve() -> RingModel:
    return _product_model(model_s(), model_curve(), None)


def x_times_curve(eta_square: Optional[Union[Q, int]] = None) -> RingModel:
    """The threefold-curve product; eta_square defaults to the solved value."""
    if eta_square is None:
        eta_square = eta_square_solve()
    return _product_model(model_x(), model_curve(), Q(eta_square))


# -- named classes per factor model -----------------------------------------


def hyperplane(model: RingModel) -> CohClass:
    """The hyperplane class of a factor model: the basis class H, or 12 pt on the curve."""
    if model.hyperplane is None:
        raise ValueError(f"no hyperplane class on {model.name}")
    return CohClass._make(model, *model.hyperplane)


def point_class(model: RingModel) -> CohClass:
    return CohClass.basis_class(model, model.basis[model.top_index])


@functools.lru_cache(maxsize=None)
def todd(model: RingModel) -> CohClass:
    """Todd class (memoized per model); multiplies across product factors."""
    if model.factors is not None:
        left, right = model.factors
        return lift_left(model, todd(left)) * lift_right(model, todd(right))
    if model.todd is None:
        raise ValueError(f"no Todd class for {model.name}")
    return CohClass._make(model, *model.todd)


# -- product helpers: the slot layout of the Kunneth block (both factor units sit
# at index 0, and eta, past the Kunneth block, never enters a slot) ------------


def _slots(prod: RingModel, side: str, at: int) -> slice:
    """Indices of the classes (i, at) for side "left", of (at, j) for side "right"."""
    nl, nr = len(prod.factors[0].basis), len(prod.factors[1].basis)
    return slice(at, nl * nr, nr) if side == "left" else slice(at * nr, at * nr + nr)


def lift_left(prod: RingModel, a: CohClass) -> CohClass:
    """Pullback along the projection to the left factor."""
    return _projection(prod, "left").pull(a)


def lift_right(prod: RingModel, b: CohClass) -> CohClass:
    return _projection(prod, "right").pull(b)


def integrate_left_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Pushforward along the projection to the right factor."""
    return _projection(prod, "right").push(a)


def integrate_right_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Pushforward along the projection to the left factor."""
    return _projection(prod, "left").push(a)


def restrict_to_left_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Restrict to (left factor) x (point): keep the classes with trivial right part."""
    if a.model is not prod:
        raise ValueError(f"restrict to the left fiber: class not on {prod.name}")
    return CohClass._make(prod.factors[0], a.num[_slots(prod, "left", 0)], a.den)


def _factor_hyperplanes(prod: RingModel) -> tuple[CohClass, CohClass]:
    """The hyperplane classes of the two factors, lifted to the product model."""
    left, right = prod.factors
    return lift_left(prod, hyperplane(left)), lift_right(prod, hyperplane(right))


# ---------------------------------------------------------------------------
# Newton's identities and the pairing
# ---------------------------------------------------------------------------


def _newton(model: RingModel, known: Sequence[CohClass], power_sums: bool) -> list[CohClass]:
    """Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i between the
    Chern classes e_k and the power sums p_k = k! ch_k, for k = 1..dim.

    ``known`` lists the p_k when ``power_sums`` is true, else the e_k; the
    other sequence is returned.
    """
    e, p = [CohClass.unit(model)], [CohClass.zero(model)]
    for k in range(1, model.dim + 1):
        # the terms i = 1..k-1 of the sum; the term i = k is (-1)^(k-1) p_k
        mixed = sum(((e[k - i] * p[i]).scale((-1) ** (i - 1)) for i in range(1, k)),
                    CohClass.zero(model))
        sign = (-1) ** (k - 1)
        if power_sums:
            p.append(known[k - 1])
            e.append((mixed + p[k].scale(sign))._divided(k))
        else:
            e.append(known[k - 1])
            p.append((e[k].scale(k) - mixed).scale(sign))
    return e[1:] if power_sums else p[1:]


@functools.lru_cache(maxsize=None)
def _pairing(model: RingModel) -> tuple[Rows, int]:
    """The Euler form of the model: rows[i] = the (j, g) with integral
    e_i^dual e_j td = g / den, the dual's sign on odd grades folded in.

    One walk of the structure table: first t_k = integral e_k td, the top slot
    of e_k td, then the integral of e_i e_j td as the sum of c t_k over the
    product e_i e_j = sum (c / model.den) e_k."""
    td = todd(model)
    top = model.top_index
    t = [sum(td.num[j] * c for j, row in cells for k, c in row if k == top)
         for cells in model.cells]
    rows = []
    for cells, g in zip(model.cells, model.grades):
        sign = -1 if g % 2 else 1
        row = ((j, sign * sum(c * t[k] for k, c in row)) for j, row in cells)
        rows.append(tuple((j, v) for j, v in row if v))
    return tuple(rows), model.den * model.den * td.den


def chi(model: RingModel, a: CohClass, b: CohClass) -> Q:
    """The pairing integral ch(a)^dual * ch(b) * td over the model, read from
    its Euler form (``_pairing``)."""
    a._check(b)
    if a.model is not model:
        raise ValueError(f"model mismatch: {a.model.name} vs {model.name}")
    rows, den = _pairing(model)
    right = b.num
    total = 0
    for x, row in zip(a.num, rows):
        if x:
            total += x * sum(g * right[j] for j, g in row)
    return Q(total, a.den * b.den * den)


# ---------------------------------------------------------------------------
# tautological and universal Chern data
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tautological_x() -> CohClass:
    """ch of the tautological subbundle on the threefold: 5 - 2H + P.

    Rank 5 and c1 = -2H are forced by the polarization (the restriction to
    a conic has degree -4).  The degree-2 part vanishes because the
    defining four-term sequence makes ch(dual U) - ch(U_-) purely odd, and
    the remaining degree-3 coefficient is the unique solution of
    chi(X, U) = 0; chi(X, dual(U)(-1)) = 0 then holds automatically and is
    asserted.
    """
    m = model_x()
    h = hyperplane(m)
    base = CohClass(m, {"1": Q(5), "H": Q(-2)})
    probe = CohClass.basis_class(m, "P")
    # chi is affine in the P-coefficient t: solve chi(base + t P, O) = 0.
    c0 = chi(m, CohClass.unit(m), base)
    c1 = chi(m, CohClass.unit(m), base + probe) - c0
    t = -c0 / c1
    ch = base + probe.scale(t)
    dual_tw = ch.dual().twisted(-1 * h)
    if chi(m, CohClass.unit(m), dual_tw) != 0:
        raise ArithmeticError("tautological normalization failed the dual-twist check")
    return ch


def tautological_ch(model: RingModel) -> CohClass:
    """ch of the tautological rank-5 subbundle restricted to a factor model.

    The threefold carries the plus side, the curve and dual K3 the minus
    side; the K3 section inherits the restriction of the threefold answer.
    """
    if model is model_x():
        return _tautological_x()
    if model is model_s():
        ch = geom_map("alpha").pull(_tautological_x())
        if ch.rank != 5:
            raise ValueError(f"the restriction to {model.name} has rank {ch.rank}, not 5")
        return ch
    if model in (model_sdual(), model_curve()):
        # Minus side: same polarization data, truncated to the factor.
        return CohClass.unit(model).scale(5) - hyperplane(model).scale(2)
    raise ValueError(f"no tautological bundle on {model.name}")


def _kernel_basis(rows: Sequence[Sequence[Union[int, Q]]]) -> list[list[Q]]:
    """Kernel of a small exact rational matrix by Gauss-Jordan elimination on ints.

    Each row is scaled to integers over its common denominator; a row update
    cross-multiplies and divides out the gcd of the new row.  Rows stay
    proportional to those of the reduced row echelon form, which is unique, so
    a kernel vector -m[r][fc] / m[r][pc] is the same Fraction as the rational
    elimination gives."""
    if not rows:
        return []
    n = len(rows[0])
    mat = [num for num, _ in map(_over_common_den, rows) if any(num)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    ker = []
    for fc in free:
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = Q(-row[fc], row[pc])
        ker.append(vec)
    return ker


def _solve_linear(rows: Sequence[Sequence[Union[int, Q]]]) -> tuple[Q, Q]:
    """Solve {ea * x + eb * y = rhs} exactly, given as the rows [ea, eb, -rhs]:
    their kernel must be the one line through (x, y, 1)."""
    ker = _kernel_basis(rows)
    if len(ker) > 1:
        raise ArithmeticError("underdetermined ansatz equations")
    if not ker or ker[0][2] == 0:
        raise ArithmeticError("inconsistent ansatz equations")
    x, y, w = ker[0]
    return x / w, y / w


@functools.lru_cache(maxsize=None)
def _universal_ansatz(left: RingModel, right: RingModel) -> CohClass:
    """ch of the universal bundle on the eta-free Kunneth product, solved once
    per factor pair.

    The odd character comes from ch(dual U_+) - ch(U_-) being twice the odd
    part; c2 is a * cross + b * fiber_term, with (a, b) solved from the
    rank-2 identity 3 c1 c2 = ch1^3 - 6 ch3 together with the fiberwise
    constraint that each left fiber has c2 = 5 times its line or point class.
    The character is rebuilt from c1 = ch1 and c2, and its odd part must match.
    """
    prod = _product_model(left, right, None)
    plus = tautological_ch(left).dual()     # ch(dual U_+) on the left factor
    minus = tautological_ch(right)          # ch(U_-) on the right factor
    diff = lift_left(prod, plus) - lift_right(prod, minus)
    for k in range(0, prod.dim + 1, 2):
        if not diff.component(k).is_zero:
            raise ArithmeticError("defining difference has a nonzero even part")
    ch1 = diff.component(1)._divided(2)
    ch3 = diff.component(3)._divided(2)

    h_left, h_right = _factor_hyperplanes(prod)
    cross = h_left * h_right
    fiber_term = CohClass.zero(prod)
    for lift, factor in ((lift_left, left), (lift_right, right)):
        if 2 in factor.grades:
            fiber_term = fiber_term + lift(prod, _codim2_class(factor))

    # Each condition is affine in (a, b) and listed as its (a, b, constant) parts:
    # the rank-2 identity, and c2 = 5 lines/points on every left fiber.
    conditions = [
        ((ch1 * cross).scale(3), (ch1 * fiber_term).scale(3), ch3.scale(6) - ch1 * ch1 * ch1),
        (restrict_to_left_fiber(prod, cross), restrict_to_left_fiber(prod, fiber_term),
         _codim2_class(left).scale(-5)),
    ]
    # one equation per basis class: its three parts over their common denominator
    rows: list[tuple[int, ...]] = []
    for parts in conditions:
        den = lcm(*(part.den for part in parts))
        rows += zip(*([x * (den // part.den) for x in part.num] for part in parts))
    a, b = _solve_linear(rows)
    ch = CohClass.from_chern(2, [ch1, cross.scale(a) + fiber_term.scale(b)], prod)
    if ch.component(1) != ch1 or ch.component(3) != ch3:
        raise ArithmeticError("rank-2 character does not match its Chern classes")
    return ch


def _onto(prod: RingModel, a: CohClass) -> CohClass:
    """A class of the eta-free Kunneth product as the same class on ``prod``,
    whose Kunneth block has the same indices (eta, if any, comes after it)."""
    return CohClass._make(prod, a.num + (0,) * (len(prod.basis) - len(a.num)), a.den)


@functools.lru_cache(maxsize=None)
def universal_ch(prod: RingModel) -> CohClass:
    """ch of the universal rank-2 bundle on a moduli product model.

    ``prod`` is ``x_times_curve(...)`` (threefold times dual curve, at any
    eta^2) or ``s_times_sdual()`` (K3 times dual K3); any other model is a
    ValueError.  c1 is ch1 and c2 is the Kunneth ansatz of
    ``_universal_ansatz``, plus eta on the threefold product.

    The eta-free character is solved and rebuilt from its Chern classes once
    per factor pair; eta enters in closed form.  With c2 = K + eta, where eta
    kills every positive-codimension class (so c1 eta = K eta = 0 and
    c2^2 = K^2 + eta^2), the rank-2 Newton identities

        ch2 = (c1^2 - 2 c2) / 2
        ch3 = (c1^3 - 3 c1 c2) / 6
        ch4 = (c1^4 - 4 c1^2 c2 + 2 c2^2) / 24

    give ch(E) = ch(E without eta) - eta + eta^2 / 12: ch2 loses eta, ch3
    does not change and ch4 gains 2 eta^2 / 24 (``_ETA_TERMS``).  The ansatz
    itself does not see eta, which adds exactly zero to both of its conditions.
    """
    if prod.factors not in ((model_x(), model_curve()), (model_s(), model_sdual())):
        raise ValueError(f"no universal bundle on {prod.name}: "
                         "only threefold x curve and K3 x dual K3 are moduli products")
    ch = _onto(prod, _universal_ansatz(*prod.factors))
    if ETA not in prod.index:
        return ch
    eta = CohClass.basis_class(prod, ETA)
    return ch + eta.scale(_ETA_TERMS[0]) + (eta * eta).scale(_ETA_TERMS[1])


def _codim2_class(model: RingModel) -> CohClass:
    """The grade-2 basis class: the line class L on the threefold, the point class on a K3."""
    return CohClass.basis_class(model, model.basis[model.grades.index(2)])


_UNIVERSAL_SELF_PAIRING = Q(12)
# Self-pairing of the universal class over the threefold-curve product:
# one section algebra in degree 0 and the tangent directions of the
# genus-7 moduli curve in degree 1 give (1 - g) + (3g - 3) = 2g - 2 = 12.
_ETA_TERMS = (Q(-1), Q(1, 12))
# (c, c'): universal_ch adds c eta + c' eta^2 to the eta-free character, and
# eta_square_solve reads the same two coefficients.


@functools.lru_cache(maxsize=None)
def eta_square_solve() -> Q:
    """Solve for eta^2 (as a multiple of the product point class).

    Write E = K + c eta + c' eta^2 with K the eta-free character and
    (c, c') = ``_ETA_TERMS``.  Eta kills positive codimension and eta^2 = s
    top, so over the threefold-curve product chi(E, E) = chi(K, K) +
    s (c^2 + 2 rank c'), with chi(K, K) read once on the eta-free product.
    Imposing the moduli value 12 determines s.  A zero slope raises, which
    is the guard against dropping eta from c2.
    """
    base = _product_model(model_x(), model_curve(), None)
    k = universal_ch(base)
    c, c_square = _ETA_TERMS
    slope = c * c + 2 * k.rank * c_square
    if slope == 0:
        raise ArithmeticError("pairing does not see eta^2; the eta term is missing from c2")
    return (_UNIVERSAL_SELF_PAIRING - chi(base, k, k)) / slope


# ---------------------------------------------------------------------------
# pushforward / pullback along the section embeddings and projections
# ---------------------------------------------------------------------------


# (rows, den): basis class i goes to sum (c / den) e_k over rows[i].
Matrix = tuple[Rows, int]


def _apply(model: RingModel, matrix: Matrix, a: CohClass) -> CohClass:
    rows, den = matrix
    out = [0] * len(model.basis)
    for x, row in zip(a.num, rows):
        if x:
            for k, c in row:
                out[k] += x * c
    return CohClass._make(model, tuple(out), a.den * den)


class GeomMap(NamedTuple):
    """A named map with exact push/pull matrices on the indexed bases."""

    name: str
    source: RingModel
    target: RingModel
    pushforward: Matrix
    pullback: Matrix

    def push(self, a: CohClass) -> CohClass:
        if a.model is not self.source:
            raise ValueError(f"push along {self.name}: class not on {self.source.name}")
        return _apply(self.target, self.pushforward, a)

    def pull(self, a: CohClass) -> CohClass:
        if a.model is not self.target:
            raise ValueError(f"pull along {self.name}: class not on {self.target.name}")
        return _apply(self.source, self.pullback, a)


def _matrix(source: RingModel, target: RingModel, images: dict[str, dict[str, int]]) -> Matrix:
    """An integer matrix written as label -> {label: coefficient}; absent rows are zero."""
    return tuple(tuple((target.index[l2], c) for l2, c in images.get(l, {}).items())
                 for l in source.basis), 1


def _kron(a: Matrix, b: Matrix, source: RingModel, target: RingModel) -> Matrix:
    """Factor matrices tensored between product models; eta dies under every push or pull."""
    nr = len(target.factors[1].basis)
    rows = [tuple((ka * nr + kb, ca * cb) for ka, ca in ra for kb, cb in rb)
            for ra in a[0] for rb in b[0]]
    rows += [()] * (len(source.basis) - len(rows))
    return tuple(rows), a[1] * b[1]


def _tensor_map(name: str, prod_src: RingModel, prod_tgt: RingModel,
                left_map: Optional[GeomMap], right_map: Optional[GeomMap]) -> GeomMap:
    """Product of a map on one factor with the identity (or a map) on the other."""
    lm = left_map or _identity_map(prod_src.factors[0])
    rm = right_map or _identity_map(prod_src.factors[1])
    return GeomMap(name, prod_src, prod_tgt,
                   _kron(lm.pushforward, rm.pushforward, prod_src, prod_tgt),
                   _kron(lm.pullback, rm.pullback, prod_tgt, prod_src))


def _identity_map(model: RingModel) -> GeomMap:
    eye = tuple(((i, 1),) for i in range(len(model.basis))), 1
    return GeomMap("id", model, model, eye, eye)


@functools.lru_cache(maxsize=None)
def _projection(prod: RingModel, keep: Literal["left", "right"]) -> GeomMap:
    """The projection of a product to its ``keep`` factor, read off the slot
    layout: the lift pulls e_i to the slot (i, unit), and fiber integration
    pushes the slot (i, fiber top) to e_i and every other class, eta
    included, to 0.  Named ``p:<product>`` (left) or ``q:<product>``."""
    factor, fiber = prod.factors if keep == "left" else prod.factors[::-1]
    slots = range(len(prod.basis))
    push: list[Row] = [()] * len(prod.basis)
    for i, k in enumerate(slots[_slots(prod, keep, fiber.top_index)]):
        push[k] = ((i, 1),)
    pull = tuple([((k, 1),) for k in slots[_slots(prod, keep, 0)]])
    return GeomMap(f"{'p' if keep == 'left' else 'q'}:{prod.name}", prod, factor,
                   (tuple(push), 1), (pull, 1))


# The product models by name.  Only x_times_curve solves eta^2, so a map that
# touches no threefold-curve product never solves it.
_PRODUCTS: dict[str, Callable[[], RingModel]] = {
    "XxC": x_times_curve, "SxSd": s_times_sdual, "XxSd": x_times_sdual, "SxC": s_times_curve,
}

# name -> (source product, target product, left factor map, right factor map);
# a factor without a map carries the identity.
_TENSOR_MAPS: dict[str, tuple[str, str, Optional[str], Optional[str]]] = {
    "lambda1": ("SxC", "XxC", "alpha", None),
    "lambda2": ("SxC", "SxSd", None, "beta"),
    "mu1": ("XxC", "XxSd", None, "beta"),
    "mu2": ("SxSd", "XxSd", "alpha", None),
    "nu": ("SxC", "XxSd", "alpha", "beta"),
}

# "p:<product>" projects to the left factor, "q:<product>" to the right one.
_PROJECTIONS: dict[str, tuple[str, Literal["left", "right"]]] = {
    f"{side}:{prod}": (prod, keep)
    for prod in _PRODUCTS for side, keep in (("p", "left"), ("q", "right"))
}


@functools.lru_cache(maxsize=None)
def geom_map(name: str) -> GeomMap:
    """A named embedding or projection; apply it with ``.push`` or ``.pull``.

    Embeddings: alpha (K3 into threefold), beta (curve into dual K3),
    lambda1, lambda2, mu1, mu2, nu (their products).  Projections are
    named ``p:<product>`` (to the left factor) and ``q:<product>``.  Each
    map is built on first use, with only the models it touches.
    """
    if name == "alpha":
        S, X = model_s(), model_x()
        return GeomMap("alpha", S, X, _matrix(S, X, {"1": {"H": 1}, "H": {"L": 12}, "P": {"P": 1}}),
                       _matrix(X, S, {"1": {"1": 1}, "H": {"H": 1}, "L": {"P": 1}}))
    if name == "beta":
        C, Sd = model_curve(), model_sdual()
        return GeomMap("beta", C, Sd, _matrix(C, Sd, {"1": {"H": 1}, "pt": {"P": 1}}),
                       _matrix(Sd, C, {"1": {"1": 1}, "H": {"pt": 12}}))
    if name in _TENSOR_MAPS:
        src, tgt, left, right = _TENSOR_MAPS[name]
        return _tensor_map(name, _PRODUCTS[src](), _PRODUCTS[tgt](),
                           geom_map(left) if left else None,
                           geom_map(right) if right else None)
    if name in _PROJECTIONS:
        prod, keep = _PROJECTIONS[name]
        return _projection(_PRODUCTS[prod](), keep)
    known = sorted(["alpha", "beta", *_TENSOR_MAPS, *_PROJECTIONS])
    raise ValueError(f"unknown map {name!r}; known: {known}")
