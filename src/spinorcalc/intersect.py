"""Truncated rational cohomology rings and Riemann-Roch arithmetic.

The models (all with exact rational coefficients):

* ``X``: the degree-12 Fano threefold section, basis 1, H, L, P with
  H^2 = 12 L, H L = P (so H^3 = 12 P); Todd class 1 + H/2 + 3L + P.
* ``S`` and ``Sd``: the degree-12 K3 sections, basis 1, H, P with
  H^2 = 12 P; Todd class 1 + 2P.
* ``C``: the genus-7 canonical curve, basis 1, pt; the hyperplane class
  is 12 pt and the Todd class is 1 - 6 pt.
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
product tables, lifts, fiber integrals and the maps between models are index
arithmetic.  A class holds integer numerators over one positive denominator
with no common factor, and every ring operation runs on these ints;
Fractions appear only at the edges (``coeffs``, ``coefficient``,
``integrate``, the JSON round trip and ``repr``).

Only even polarized classes get basis elements; integrality is never
asserted beyond what the underlying geometry forces, so coefficients stay
in Q throughout.  Models are immutable after construction and every
operation is pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm
from typing import Callable, Literal, Optional, Sequence, Union

from .rootdata import read_rational

Q = Fraction


class ClassSyntaxError(ValueError):
    """Class input that is not an object mapping labels to exact rationals."""


# Value kinds CohClass.from_json refuses, named as JSON names them.
_JSON_KINDS = {bool: "a boolean", type(None): "null", float: "a float", list: "an array",
               dict: "an object"}

ETA = "eta"

# rows[i] = ((k, c), ...): a sparse integer image of basis class i.
Rows = tuple[tuple[tuple[int, int], ...], ...]


def _over_common_den(values: Sequence[Union[int, Q]]) -> tuple[list[int], int]:
    """Integer numerators of the rationals over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass(frozen=True, eq=False)
class RingModel:
    """A truncated cohomology ring: indexed graded basis, products, integration."""

    name: str
    basis: tuple[str, ...]
    grades: tuple[int, ...]
    table: Rows
    den: int
    factors: Optional[tuple["RingModel", "RingModel"]] = None
    todd: Optional[tuple[tuple[int, ...], int]] = None   # a factor's Todd class, num over den
    index: dict[str, int] = field(init=False)
    codim: dict[str, int] = field(init=False)
    dim: int = field(init=False)
    top_index: int = field(init=False)
    top: str = field(init=False)

    def __post_init__(self) -> None:
        dim = max(self.grades)
        object.__setattr__(self, "index", {l: i for i, l in enumerate(self.basis)})
        object.__setattr__(self, "codim", dict(zip(self.basis, self.grades)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "top_index", self.grades.index(dim))
        object.__setattr__(self, "top", self.basis[self.top_index])

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
            values[model.index[label]] = c if type(c) is int else Q(c)
        self.model = model
        self.num, self.den = _reduced(*_over_common_den(values))

    @classmethod
    def _make(cls, model: RingModel, num: Sequence[int], den: int) -> "CohClass":
        """The class with numerators ``num`` over ``den`` > 0, reduced."""
        obj = object.__new__(cls)
        obj.model = model
        obj.num, obj.den = _reduced(num, den)
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
        return cls(model, {label: coeff})

    # -- ring operations --------------------------------------------------

    def _check(self, other: "CohClass") -> None:
        if self.model is not other.model:
            raise ValueError(f"model mismatch: {self.model.name} vs {other.model.name}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return CohClass._make(self.model,
                              [a * fa + b * fb for a, b in zip(self.num, other.num)], den)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass._make(self.model, [-a for a in self.num], self.den)

    def scale(self, t: Union[Q, int, str]) -> "CohClass":
        if not isinstance(t, (int, Q)):
            t = Q(t)
        n = t.numerator
        return CohClass._make(self.model, [n * a for a in self.num], self.den * t.denominator)

    def __rmul__(self, t: Union[Q, int]) -> "CohClass":
        return self.scale(t)

    def __mul__(self, other: Union["CohClass", Q, int]) -> "CohClass":
        if not isinstance(other, CohClass):
            return self.scale(other)
        self._check(other)
        model = self.model
        n = len(model.basis)
        table = model.table
        right = [(j, b) for j, b in enumerate(other.num) if b]
        out = [0] * n
        for i, a in enumerate(self.num):
            if a:
                base = i * n
                for j, b in right:
                    for k, s in table[base + j]:
                        out[k] += a * b * s
        return CohClass._make(model, out, self.den * other.den * model.den)

    def __pow__(self, n: int) -> "CohClass":
        acc = CohClass.unit(self.model)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CohClass) and self.model is other.model
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((id(self.model), self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- grading ----------------------------------------------------------

    def component(self, k: int) -> "CohClass":
        grades = self.model.grades
        return CohClass._make(self.model,
                              [a if g == k else 0 for a, g in zip(self.num, grades)], self.den)

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
                              [-a if g % 2 else a for a, g in zip(self.num, grades)], self.den)

    def integrate(self) -> Q:
        """Coefficient of the top class (zero when there is no top part)."""
        return Q(self.num[self.model.top_index], self.den)

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
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(a // g for a in num), den // g


def mul(a: CohClass, b: CohClass) -> CohClass:
    """Product in the truncated ring (same model required)."""
    return a * b


def integrate(a: CohClass) -> Q:
    """Integration functional: the coefficient of the top class."""
    return a.integrate()


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
        acc = acc + term.scale(Q(1, factorial(k)))
    return acc


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def _build_factor(name: str, labels: Sequence[str], h_scale: Sequence[Q],
                  todd_class: Sequence[Q]) -> RingModel:
    """A ring generated by H with basis label i representing h_scale[i] * H^i."""
    n = len(labels)
    # (s_i H^i)(s_j H^j) = (s_i s_j / s_k) * (s_k H^k) with k = i + j, zero past the top
    pairs = [(i, j) for i in range(n) for j in range(n) if i + j < n]
    nums, den = _over_common_den([h_scale[i] * h_scale[j] / h_scale[i + j] for i, j in pairs])
    entries = {i * n + j: ((i + j, c),) for (i, j), c in zip(pairs, nums)}
    table = tuple(entries.get(p, ()) for p in range(n * n))
    return RingModel(name, tuple(labels), tuple(range(n)), table, den,
                     todd=_reduced(*_over_common_den(todd_class)))


@functools.lru_cache(maxsize=None)
def model_x() -> RingModel:
    # H^2 = 12 L and H L = P: L is H^2/12 and P is H^3/12.
    return _build_factor("X", ("1", "H", "L", "P"), (Q(1), Q(1), Q(1, 12), Q(1, 12)),
                         (Q(1), Q(1, 2), Q(3), Q(1)))


@functools.lru_cache(maxsize=None)
def model_s(name: str = "S") -> RingModel:
    return _build_factor(name, ("1", "H", "P"), (Q(1), Q(1), Q(1, 12)), (Q(1), Q(0), Q(2)))


def model_sdual() -> RingModel:
    return model_s("Sd")


@functools.lru_cache(maxsize=None)
def model_curve() -> RingModel:
    return _build_factor("C", ("1", "pt"), (Q(1), Q(1)), (Q(1), Q(-6)))


@functools.lru_cache(maxsize=None)
def _product_model(left: RingModel, right: RingModel, eta_square: Optional[Q]) -> RingModel:
    nl, nr = len(left.basis), len(right.basis)
    n_kunneth = nl * nr
    n = n_kunneth + (eta_square is not None)
    # Every constant is scaled by q so that eta^2 = (p/q) top fits the integer table.
    q = 1 if eta_square is None else eta_square.denominator
    entries: dict[int, tuple[tuple[int, int], ...]] = {}
    for (a1, a2), (b1, b2) in product(product(range(nl), repeat=2), product(range(nr), repeat=2)):
        lrow, rrow = left.table[a1 * nl + a2], right.table[b1 * nr + b2]
        if lrow and rrow:
            entries[(a1 * nr + b1) * n + a2 * nr + b2] = tuple(
                (ka * nr + kb, q * ca * cb) for ka, ca in lrow for kb, cb in rrow)
    den = q * left.den * right.den
    labels = [f"{a}*{b}" for a in left.basis for b in right.basis]
    grades = [ga + gb for ga in left.grades for gb in right.grades]
    if eta_square is not None:
        # eta is fixed by the unit (index 0), killed by positive codimension, and
        # squares to eta_square times the top Kunneth class.
        eta = n_kunneth
        top = left.top_index * nr + right.top_index
        labels.append(ETA)
        grades.append(2)
        entries[eta] = entries[eta * n] = ((eta, den),)
        if eta_square:
            entries[eta * n + eta] = ((top, eta_square.numerator * left.den * right.den),)
    table = tuple(entries.get(p, ()) for p in range(n * n))
    return RingModel(f"{left.name}x{right.name}", tuple(labels), tuple(grades), table, den,
                     (left, right))


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
    """The hyperplane class: the basis class H, or 12 pt on the curve."""
    if "H" in model.codim:
        return CohClass.basis_class(model, "H")
    if model.name == "C":
        return CohClass.basis_class(model, "pt", 12)
    raise ValueError(f"no hyperplane class on {model.name}")


def point_class(model: RingModel) -> CohClass:
    return CohClass.basis_class(model, model.top)


def todd(model: RingModel) -> CohClass:
    """Todd class; multiplies across product factors."""
    if model.factors is not None:
        left, right = model.factors
        return lift_left(model, todd(left)) * lift_right(model, todd(right))
    if model.todd is None:
        raise ValueError(f"no Todd class for {model.name}")
    return CohClass._make(model, *model.todd)


# -- product helpers: slices of the numerators (both factor units sit at index 0,
# and eta, past the Kunneth block, never enters a slice) ----------------------


def _slots(prod: RingModel, side: str, at: int) -> slice:
    """Indices of the classes (i, at) for side "left", of (at, j) for side "right"."""
    nl, nr = len(prod.factors[0].basis), len(prod.factors[1].basis)
    return slice(at, nl * nr, nr) if side == "left" else slice(at * nr, at * nr + nr)


def _lift(prod: RingModel, a: CohClass, side: str) -> CohClass:
    if a.model is not prod.factors[side == "right"]:
        raise ValueError(f"class does not live on the {side} factor")
    num = [0] * len(prod.basis)
    num[_slots(prod, side, 0)] = a.num
    return CohClass._make(prod, num, a.den)


def lift_left(prod: RingModel, a: CohClass) -> CohClass:
    """Pullback along the projection to the left factor."""
    return _lift(prod, a, "left")


def lift_right(prod: RingModel, b: CohClass) -> CohClass:
    return _lift(prod, b, "right")


def integrate_left_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Pushforward along the projection to the right factor."""
    left, right = prod.factors
    return CohClass._make(right, a.num[_slots(prod, "right", left.top_index)], a.den)


def integrate_right_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Pushforward along the projection to the left factor."""
    left, right = prod.factors
    return CohClass._make(left, a.num[_slots(prod, "left", right.top_index)], a.den)


def restrict_to_left_fiber(prod: RingModel, a: CohClass) -> CohClass:
    """Restrict to (left factor) x (point): keep the classes with trivial right part."""
    return CohClass._make(prod.factors[0], a.num[_slots(prod, "left", 0)], a.den)


# ---------------------------------------------------------------------------
# Chern data and conversions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernData:
    """A rank together with a Chern character class."""

    rank: int
    ch: CohClass

    def __post_init__(self) -> None:
        if self.ch.num[0] != self.rank * self.ch.den:
            raise ValueError("rank and degree-zero Chern character disagree")

    @property
    def model(self) -> RingModel:
        return self.ch.model

    def chern_classes(self) -> list[CohClass]:
        """c_1 .. c_dim recovered from the character by Newton's identities."""
        model = self.model
        p = [CohClass.zero(model)]
        for k in range(1, model.dim + 1):
            p.append(self.ch.component(k).scale(factorial(k)))
        e = [CohClass.unit(model)]
        for k in range(1, model.dim + 1):
            acc = CohClass.zero(model)
            for i in range(1, k + 1):
                term = e[k - i] * p[i]
                acc = acc + (term if i % 2 == 1 else -term)
            e.append(acc.scale(Q(1, k)))
        return e[1:]

    @classmethod
    def from_chern(cls, rank: int, cs: Sequence[CohClass], model: RingModel) -> "ChernData":
        e = [CohClass.unit(model)] + list(cs)
        while len(e) <= model.dim:
            e.append(CohClass.zero(model))
        p = [CohClass.zero(model)]
        for k in range(1, model.dim + 1):
            acc = e[k].scale(k if k % 2 == 1 else -k)
            for i in range(1, k):
                term = e[i] * p[k - i]
                acc = acc + (term if i % 2 == 1 else -term)
            p.append(acc)
        ch = CohClass.unit(model).scale(rank)
        for k in range(1, model.dim + 1):
            ch = ch + p[k].scale(Q(1, factorial(k)))
        return cls(rank, ch)

    def dual(self) -> "ChernData":
        return ChernData(self.rank, self.ch.dual())

    def twisted(self, line: CohClass) -> "ChernData":
        """Tensor with the line bundle of first Chern class ``line``."""
        return ChernData(self.rank, self.ch * exp_class(line))

    def __add__(self, other: "ChernData") -> "ChernData":
        return ChernData(self.rank + other.rank, self.ch + other.ch)

    def __sub__(self, other: "ChernData") -> "ChernData":
        return ChernData(self.rank - other.rank, self.ch - other.ch)


def chi(model: RingModel, a: CohClass, b: CohClass) -> Q:
    """The pairing integral ch(a)^dual * ch(b) * td over the model."""
    return (a.dual() * b * todd(model)).integrate()


# ---------------------------------------------------------------------------
# tautological and universal Chern data
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tautological_x() -> ChernData:
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
    dual_tw = ChernData(5, ch).dual().twisted(-1 * h).ch
    if chi(m, CohClass.unit(m), dual_tw) != 0:
        raise ArithmeticError("tautological normalization failed the dual-twist check")
    return ChernData(5, ch)


def tautological_ch(model: RingModel) -> ChernData:
    """ch of the tautological rank-5 subbundle restricted to a factor model.

    The threefold carries the plus side, the curve and dual K3 the minus
    side; the K3 section inherits the restriction of the threefold answer.
    """
    if model is model_x():
        return _tautological_x()
    if model is model_s():
        return ChernData(5, pushpull("alpha", "pull", _tautological_x().ch))
    if model in (model_sdual(), model_curve()):
        # Minus side: same polarization data, truncated to the factor.
        return ChernData(5, CohClass.unit(model).scale(5) - hyperplane(model).scale(2))
    raise ValueError(f"no tautological bundle on {model.name}")


def _solve_linear(equations: list[tuple[Q, Q, Q]]) -> tuple[Q, Q]:
    """Solve {ea * x + eb * y = rhs} exactly; reject under/overdetermined systems."""
    pivot = None
    for i, (ea, eb, rhs) in enumerate(equations):
        if ea != 0:
            pivot = i
            break
    if pivot is None:
        raise ArithmeticError("underdetermined ansatz: no equation involves the first unknown")
    ea, eb, rhs = equations[pivot]
    reduced = []
    for j, (fa, fb, frhs) in enumerate(equations):
        if j == pivot:
            continue
        factor = fa / ea
        reduced.append((fb - factor * eb, frhs - factor * rhs))
    second = next(((b, r) for b, r in reduced if b != 0), None)
    if second is None:
        raise ArithmeticError("underdetermined ansatz: one independent equation only")
    y = second[1] / second[0]
    x = (rhs - eb * y) / ea
    for fa, fb, frhs in equations:
        if fa * x + fb * y != frhs:
            raise ArithmeticError("inconsistent ansatz equations")
    return x, y


def universal_ch(product: Union[str, RingModel] = "XxC") -> ChernData:
    """Chern data of the universal rank-2 bundle on a moduli product.

    ``product`` is "XxC" (threefold times dual curve) or "SxS" (K3 times
    dual K3).  The odd character comes from ch(dual U_+) - ch(U_-) being
    twice the odd part; c2 is a Kunneth ansatz (cross term, fiber terms,
    plus eta on the threefold product) solved from the rank-2 identity
    3 c1 c2 = ch1^3 - 6 ch3 together with the fiberwise constraint that
    each fiber has c2 = 5 times the point or line class.
    """
    if isinstance(product, RingModel):
        prod = product
    elif product == "XxC":
        prod = x_times_curve()
    elif product == "SxS":
        prod = s_times_sdual()
    else:
        raise ValueError(f"unknown product {product!r}")
    return _universal_ch_on(prod)


@functools.lru_cache(maxsize=None)
def _universal_ch_on(prod: RingModel) -> ChernData:
    left, right = prod.factors
    plus = tautological_ch(left).dual()     # ch(dual U_+) on the left factor
    minus = tautological_ch(right)          # ch(U_-) on the right factor
    diff = lift_left(prod, plus.ch) - lift_right(prod, minus.ch)
    for k in range(0, prod.dim + 1, 2):
        if not diff.component(k).is_zero:
            raise ArithmeticError("defining difference has a nonzero even part")
    ch1 = diff.component(1).scale(Q(1, 2))
    ch3 = diff.component(3).scale(Q(1, 2))

    cross = lift_left(prod, hyperplane(left)) * lift_right(prod, hyperplane(right))
    fiber2_left = lift_left(prod, _codim2_class(left))
    if left.name == "X":
        fiber_term = fiber2_left
        extra = CohClass.basis_class(prod, ETA)
    else:
        fiber_term = fiber2_left + lift_right(prod, _codim2_class(right))
        extra = CohClass.zero(prod)

    # c2 = a * cross + b * fiber_term + extra; equations are linear in (a, b).
    target = ch1 * ch1 * ch1 - ch3.scale(6)

    def identity_defect(a: Q, b: Q) -> CohClass:
        c2 = cross.scale(a) + fiber_term.scale(b) + extra
        return (ch1 * c2).scale(3) - target

    d00 = identity_defect(Q(0), Q(0))
    d10 = identity_defect(Q(1), Q(0)) - d00
    d01 = identity_defect(Q(0), Q(1)) - d00
    labels = set(d00.coeffs) | set(d10.coeffs) | set(d01.coeffs)
    equations = [(d10.coefficient(l), d01.coefficient(l), -d00.coefficient(l)) for l in labels]

    fiber_target = _codim2_class(left).scale(5)   # fibers are rank 2 with c2 = 5 points/lines
    f00 = restrict_to_left_fiber(prod, extra) - fiber_target
    f10 = restrict_to_left_fiber(prod, cross)
    f01 = restrict_to_left_fiber(prod, fiber_term)
    for l in set(f00.coeffs) | set(f10.coeffs) | set(f01.coeffs):
        equations.append((f10.coefficient(l), f01.coefficient(l), -f00.coefficient(l)))

    a, b = _solve_linear(equations)
    c2 = cross.scale(a) + fiber_term.scale(b) + extra
    ch2 = (ch1 * ch1).scale(Q(1, 2)) - c2
    ch4 = (ch1 ** 4 - (ch1 * ch1 * c2).scale(4) + (c2 * c2).scale(2)).scale(Q(1, 24))
    ch = CohClass.unit(prod).scale(2) + ch1 + ch2 + ch3 + ch4

    data = ChernData(2, ch)
    recon = ChernData.from_chern(2, [ch1, c2], prod)
    if recon.ch != ch:
        raise ArithmeticError("rank-2 character does not match its Chern classes")
    return data


def _codim2_class(model: RingModel) -> CohClass:
    """The line class L on the threefold, the point class on a surface."""
    if model.name == "X":
        return CohClass.basis_class(model, "L")
    if model.name in ("S", "Sd"):
        return CohClass.basis_class(model, "P")
    raise ValueError(f"no codimension-2 class on {model.name}")


_UNIVERSAL_SELF_PAIRING = Q(12)
# Self-pairing of the universal class over the threefold-curve product:
# one section algebra in degree 0 and the tangent directions of the
# genus-7 moduli curve in degree 1 give (1 - g) + (3g - 3) = 2g - 2 = 12.


@functools.lru_cache(maxsize=None)
def eta_square_solve() -> Q:
    """Solve for eta^2 (as a multiple of the product point class).

    The pairing chi(E, E) over the threefold-curve product is affine in
    the square; imposing the moduli value 12 determines it.  The solver
    fails loudly when the dependence degenerates, which is the guard
    against dropping eta from c2.
    """
    values = []
    for e in (Q(0), Q(1)):
        prod = x_times_curve(eta_square=e)
        uni = _universal_ch_on(prod)
        values.append(chi(prod, uni.ch, uni.ch))
    slope = values[1] - values[0]
    if slope == 0:
        raise ArithmeticError("pairing does not see eta^2; the eta term is missing from c2")
    return (_UNIVERSAL_SELF_PAIRING - values[0]) / slope


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
    return CohClass._make(model, out, a.den * den)


@dataclass(frozen=True)
class GeomMap:
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


def _matrix_of(fn: Callable[[CohClass], CohClass], source: RingModel) -> Matrix:
    """The matrix of a linear map on classes, read off the images of the basis classes."""
    images = [fn(CohClass.basis_class(source, l)) for l in source.basis]
    den = lcm(*(img.den for img in images))
    return tuple(tuple((k, a * (den // img.den)) for k, a in enumerate(img.num) if a)
                 for img in images), den


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
    eye = _matrix_of(lambda a: a, model)
    return GeomMap("id", model, model, eye, eye)


def _projection(name: str, prod: RingModel, keep: Literal["left", "right"]) -> GeomMap:
    """Projection to a factor: fiber integration pushes, the lift pulls."""
    factor, fiber, lift = ((prod.factors[0], integrate_right_fiber, lift_left) if keep == "left"
                           else (prod.factors[1], integrate_left_fiber, lift_right))
    return GeomMap(name, prod, factor, _matrix_of(lambda a: fiber(prod, a), prod),
                   _matrix_of(lambda a: lift(prod, a), factor))


@functools.lru_cache(maxsize=None)
def _maps() -> dict[str, GeomMap]:
    X, S, Sd, C = model_x(), model_s(), model_sdual(), model_curve()
    alpha = GeomMap("alpha", S, X, _matrix(S, X, {"1": {"H": 1}, "H": {"L": 12}, "P": {"P": 1}}),
                    _matrix(X, S, {"1": {"1": 1}, "H": {"H": 1}, "L": {"P": 1}}))
    beta = GeomMap("beta", C, Sd, _matrix(C, Sd, {"1": {"H": 1}, "pt": {"P": 1}}),
                   _matrix(Sd, C, {"1": {"1": 1}, "H": {"pt": 12}}))
    XxC, SxS, XxS, SxC = x_times_curve(), s_times_sdual(), x_times_sdual(), s_times_curve()
    table = {
        "alpha": alpha,
        "beta": beta,
        "lambda1": _tensor_map("lambda1", SxC, XxC, alpha, None),
        "lambda2": _tensor_map("lambda2", SxC, SxS, None, beta),
        "mu1": _tensor_map("mu1", XxC, XxS, None, beta),
        "mu2": _tensor_map("mu2", SxS, XxS, alpha, None),
        "nu": _tensor_map("nu", SxC, XxS, alpha, beta),
    }
    for prod in (XxC, SxS, XxS, SxC):
        table[f"p:{prod.name}"] = _projection(f"p:{prod.name}", prod, "left")
        table[f"q:{prod.name}"] = _projection(f"q:{prod.name}", prod, "right")
    return table


def geom_map(name: str) -> GeomMap:
    maps = _maps()
    if name not in maps:
        raise ValueError(f"unknown map {name!r}; known: {sorted(maps)}")
    return maps[name]


def pushpull(name: str, direction: Literal["push", "pull"], a: CohClass) -> CohClass:
    """Apply a named embedding or projection to a class.

    Embeddings: alpha (K3 into threefold), beta (curve into dual K3),
    lambda1, lambda2, mu1, mu2, nu (their products).  Projections are
    named ``p:<product>`` (to the left factor) and ``q:<product>``.
    """
    m = geom_map(name)
    if direction == "push":
        return m.push(a)
    if direction == "pull":
        return m.pull(a)
    raise ValueError(f"direction must be push or pull, got {direction!r}")
