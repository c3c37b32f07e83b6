"""Numerical integral transforms, semiorthogonality reports, class-level
mutations, and the conic computations.

Everything works on Chern characters (CohClass) over the ring models; the
pairing is ``intersect.chi``.  A kernel on a product induces the transform

    a  |->  parity * push( pull(ch(a) * td(source)) * ch(kernel) ),

with the Todd class of the source riding along the pullback; shifts enter
only through the parity sign.  Each kernel holds that map as integer rows,
the images of the source basis classes, read once from the product's
structure table at the lift and fiber-top slots of ``intersect._projection``;
a transform applies them to the class.  The convention is pinned by the
adjunction identities chi(transform(b), a) = chi(b, adjoint_transform(a)),
which the test suite checks over full bases, not by a literature choice.

The kernels are the rows of one table, ``_KERNELS``, each built once by
``kernel(name)``; ``KERNELS`` names the six public ones.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Literal, NamedTuple, Optional, Sequence

from .intersect import (
    CohClass,
    Matrix,
    RingModel,
    _apply,
    _factor_hyperplanes,
    _kernel_basis,
    _projection,
    chi,
    exp_class,
    hyperplane,
    lift_left,
    lift_right,
    model_curve,
    model_s,
    model_sdual,
    model_x,
    point_class,
    s_times_sdual,
    tautological_ch,
    todd,
    universal_ch,
    x_times_curve,
    x_times_sdual,
)
from .rootdata import _Frozen

Q = Fraction


# ---------------------------------------------------------------------------
# kernels and transforms
# ---------------------------------------------------------------------------


Side = Literal["left", "right"]


class KernelSpec(_Frozen):
    """A cohomological integral-transform kernel on a product model.

    ``rows`` is the transform as a matrix from the source basis to the target
    basis: row i is the image of basis class e_i, the source-fibre-top slots
    of lift(e_i td) * kernel_ch times the parity.  It is computed once, when
    the kernel is built, and takes no part in comparisons, hashing or the repr."""

    _fields = ("name", "product", "source_side", "kernel_ch", "shift_parity")
    __slots__ = _fields + ("rows",)
    name: str
    product: RingModel
    source_side: Side
    kernel_ch: CohClass
    shift_parity: int
    rows: Matrix

    def __init__(self, name: str, product: RingModel, source_side: Side, kernel_ch: CohClass,
                 shift_parity: int) -> None:
        if kernel_ch.model is not product:
            raise ValueError("kernel class must live on the product model")
        if shift_parity not in (1, -1):
            raise ValueError("shift parity must be +1 or -1")
        for f, value in zip(self._fields, (name, product, source_side, kernel_ch, shift_parity)):
            object.__setattr__(self, f, value)
        object.__setattr__(self, "rows", self._transform_rows())

    def _transform_rows(self) -> Matrix:
        """The images of the source basis classes, read from the product's structure table."""
        prod, ch, src, td = self.product, self.kernel_ch.num, self.source, todd(self.source)
        target_side = "right" if self.source_side == "left" else "left"
        # the slot of each lifted source basis class (the lift's unit rows), and the
        # target index of each source-fibre-top slot (the fibre integral's unit rows)
        lifts = [k for row in _projection(prod, self.source_side).pullback[0] for k, _ in row]
        target = {k: t for k, row in enumerate(_projection(prod, target_side).pushforward[0])
                  for t, _ in row}
        width = len(target)
        # images[m]: the fibre-top slots of lift(e_m) * kernel_ch, over kernel_ch.den * prod.den
        images = []
        for m in lifts:
            image = [0] * width
            for j, row in prod.cells[m]:
                for k, c in row:
                    if k in target:
                        image[target[k]] += ch[j] * c
            images.append(image)
        # row i: the parity times the image of e_i td = sum (td_j c / (td.den src.den)) e_m
        rows = []
        for cells in src.cells:
            row = [0] * width
            for j, products in cells:
                for m, c in products:
                    f = self.shift_parity * td.num[j] * c
                    row = [a + f * b for a, b in zip(row, images[m])]
            rows.append(row)
        den = self.kernel_ch.den * prod.den * src.den * td.den
        g = gcd(den, *chain.from_iterable(rows))
        return tuple(tuple((k, a // g) for k, a in enumerate(row) if a) for row in rows), den // g

    @property
    def source(self) -> RingModel:
        return self.product.factors[0 if self.source_side == "left" else 1]

    @property
    def target(self) -> RingModel:
        return self.product.factors[1 if self.source_side == "left" else 0]


def transform(K: KernelSpec, a: CohClass) -> CohClass:
    """Apply the numerical transform of the kernel to a class on its source."""
    if a.model is not K.source:
        raise ValueError(f"class lives on {a.model.name}, kernel source is {K.source.name}")
    return _apply(K.target, K.rows, a)


# name -> (source side, character, twist (a, b) by exp(a H_left + b H_right),
# shift parity).  A character is built on first use, and the kernel lives on the
# product its character lives on.  The first six rows are the public kernels: E1
# and E2, their adjoints E1(-2H_X - H_C)[1], dual(E1)(H_C)[1] and E2(-H_S - H_Sd),
# and the glued kernel on threefold x dual-K3, twisted by -H_X - H_Sd.  Its
# character is ch(dual U_+) - ch(U_-), the cone of the tautological pairing map,
# so the transform splits into a chi(a, O)-multiple of U_-(-H_Sd) and a
# chi(a, U_+)-multiple of O(-H_Sd).  The last two rows are those split pieces,
# for the factorization check; the glued kernel takes its twist from them.
_KERNELS = {
    "phi1": ("right", lambda: universal_ch(x_times_curve()), (0, 0), 1),
    "phi1-left": ("left", lambda: universal_ch(x_times_curve()), (-2, -1), -1),
    "phi1-shriek": ("left", lambda: universal_ch(x_times_curve()).dual(), (0, 1), -1),
    "phi2": ("right", lambda: universal_ch(s_times_sdual()), (0, 0), 1),
    "phi2-left": ("left", lambda: universal_ch(s_times_sdual()), (-1, -1), 1),
    "E-tilde": ("left", lambda: (kernel("u-piece-quotient-dual").kernel_ch
                                 - kernel("u-piece-sub").kernel_ch), (0, 0), -1),
    "u-piece-sub": ("left", lambda: lift_right(x_times_sdual(), tautological_ch(model_sdual())),
                    (-1, -1), -1),
    "u-piece-quotient-dual": ("left", lambda: lift_left(x_times_sdual(),
                                                        tautological_ch(model_x()).dual()),
                              (-1, -1), -1),
}

# the public kernels, the choices of ``fm --kernel``
KERNELS = tuple(_KERNELS)[:6]


@functools.lru_cache(maxsize=None)
def kernel(name: str) -> KernelSpec:
    """The kernel of the ``_KERNELS`` row ``name``, built once."""
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; known: {list(_KERNELS)}")
    side, character, (a, b), parity = _KERNELS[name]
    ch = character()
    if (a, b) != (0, 0):
        h_left, h_right = _factor_hyperplanes(ch.model)
        ch = ch * exp_class(h_left.scale(a) + h_right.scale(b))
    return KernelSpec(name, ch.model, side, ch, parity)


# ---------------------------------------------------------------------------
# named classes
# ---------------------------------------------------------------------------


def class_u_plus() -> CohClass:
    return tautological_ch(model_x())


def class_u_plus_dual() -> CohClass:
    return tautological_ch(model_x()).dual()


def class_o_conic() -> CohClass:
    """Structure class of a conic: a degree-2 rational curve, chi(O) = 1.

    Arithmetic genus zero forces ch = 2L with no point correction.
    """
    return CohClass.basis_class(model_x(), "L", 2)


def _point_image(name: str, label: str) -> CohClass:
    """The image of the source point class under the kernel ``name``: a rank-2 bundle."""
    K = kernel(name)
    out = transform(K, point_class(K.source))
    if out.rank != 2:
        raise ValueError(f"{label} has rank {out.rank}, not 2")
    return out


@functools.lru_cache(maxsize=None)
def class_e1y() -> CohClass:
    """The rank-2 threefold bundle attached to a point of the dual curve."""
    return _point_image("phi1", "E1y")


@functools.lru_cache(maxsize=None)
def class_e2y() -> CohClass:
    """The rank-2 K3 bundle attached to a point of the dual K3."""
    return _point_image("phi2", "E2y")


NAMED_CLASSES = {
    "O": lambda: CohClass.unit(model_x()),
    "O_X": lambda: CohClass.unit(model_x()),
    "U": class_u_plus,
    "U-plus": class_u_plus,
    "O_R": class_o_conic,
    "E1y": class_e1y,
    "pt_X": lambda: point_class(model_x()),
    "O_C": lambda: CohClass.unit(model_curve()),
    "pt": lambda: point_class(model_curve()),
    "O_S": lambda: CohClass.unit(model_s()),
    "E2y": class_e2y,
    "pt_S": lambda: point_class(model_s()),
    "O_Sd": lambda: CohClass.unit(model_sdual()),
    "pt_Sd": lambda: point_class(model_sdual()),
}


def named_class(name: str, model: Optional[RingModel] = None) -> CohClass:
    """Look up a named constant class, optionally checking its model."""
    if name not in NAMED_CLASSES:
        raise ValueError(f"unknown class {name!r}; known: {sorted(NAMED_CLASSES)}")
    cls = NAMED_CLASSES[name]()
    if model is not None and cls.model is not model:
        raise ValueError(f"class {name} lives on {cls.model.name}, not {model.name}")
    return cls


# ---------------------------------------------------------------------------
# Gram reports, mutations, the commuting-diagram check
# ---------------------------------------------------------------------------


class GramReport(NamedTuple):
    """Pairing matrix of a collection with exceptionality/orthogonality flags.

    ``blocks`` partitions the collection into consecutive blocks; the
    semiorthogonality verdict asks every pairing from a later block into
    an earlier one to vanish.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Q, ...], ...]
    blocks: tuple[int, ...]
    exceptional: tuple[bool, ...]
    semiorthogonal: bool

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "blocks": list(self.blocks),
            "exceptional": list(self.exceptional),
            "semiorthogonal": self.semiorthogonal,
        }


def gram(collection: Sequence[tuple[str, CohClass]], model: RingModel,
         blocks: Optional[Sequence[int]] = None) -> GramReport:
    """Full Euler-pairing matrix with numerical SOD verdicts."""
    labels = tuple(label for label, _ in collection)
    classes = [cls for _, cls in collection]
    matrix = tuple(tuple(chi(model, a, b) for b in classes) for a in classes)
    sizes = tuple(blocks) if blocks is not None else tuple(1 for _ in classes)
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    if sum(sizes) != len(classes):
        raise ValueError("block sizes must sum to the collection length")
    block_of = []
    for bi, s in enumerate(sizes):
        block_of.extend([bi] * s)
    semi = all(matrix[i][j] == 0
               for i in range(len(classes)) for j in range(len(classes))
               if block_of[i] > block_of[j])
    exceptional = tuple(matrix[i][i] == 1 for i in range(len(classes)))
    return GramReport(labels, matrix, sizes, exceptional, semi)


def mutate(a: CohClass, through: CohClass, model: RingModel) -> CohClass:
    """Class-level right mutation: the reflection chi(a, through) through - a;
    mutating through an orthogonal object returns the class up to sign."""
    out = through.scale(chi(model, a, through)) - a
    if out.coefficient(model.basis[0]).denominator != 1:
        raise ArithmeticError("mutation produced a non-integral rank")
    return out


class OrthogonalityError(ValueError):
    """A class failed the numerical orthogonality precondition."""


def commdiag_check(a: CohClass) -> bool:
    """Check the vanishing of the glued-kernel transform on an orthogonal class.

    Precondition: chi(a, U_+) = chi(a, O) = 0 (numerical membership in the
    left orthogonal of the exceptional pair).  Verifies that the two split
    pieces of the glued kernel evaluate to the predicted chi-multiples and
    that the glued transform itself vanishes identically.
    """
    m = model_x()
    chi_u = chi(m, a, class_u_plus())
    chi_o = chi(m, a, CohClass.unit(m))
    if chi_u != 0 or chi_o != 0:
        raise OrthogonalityError(
            f"class pairs to chi(a,U)={chi_u}, chi(a,O)={chi_o}; both must vanish")

    sd = model_sdual()
    h_sd = hyperplane(sd)
    # Piece through U_-: -(chi(a, O)) * ch(U_-(-H)); piece through dual U_+:
    # -(chi(a, U_+)) * ch(O(-H)).  Serre duality on the threefold gives the signs.
    piece_sub = transform(kernel("u-piece-sub"), a)
    expect_sub = tautological_ch(sd).twisted(-1 * h_sd).scale(chi_o)
    piece_quot = transform(kernel("u-piece-quotient-dual"), a)
    expect_quot = exp_class(-1 * h_sd).scale(chi_u)
    if piece_sub != expect_sub or piece_quot != expect_quot:
        raise ArithmeticError("split pieces of the glued kernel missed their chi-multiples")
    return transform(kernel("E-tilde"), a).is_zero


def orthogonal_complement_basis() -> list[CohClass]:
    """A rational basis of the numerical left orthogonal of (U_+, O).

    Exact kernel computation of the 2 x 4 pairing matrix against the
    model basis of the threefold.
    """
    m = model_x()
    basis = [CohClass.basis_class(m, l) for l in m.basis]
    u = class_u_plus()
    o = CohClass.unit(m)
    rows = [[chi(m, v, u) for v in basis], [chi(m, v, o) for v in basis]]
    ker = _kernel_basis(rows)
    out = []
    for vec in ker:
        cls = CohClass(m, dict(zip(m.basis, vec)))
        cls = cls.scale(cls.coefficient("1").denominator)
        cls.rank   # an integral rank: a ValueError otherwise
        out.append(cls)
    return out


def matrix_rank(rows: list[list[Q]]) -> int:
    return len(rows[0]) - len(_kernel_basis(rows)) if rows else 0


def transform_matrix(K: KernelSpec) -> list[list[Q]]:
    """Matrix of the transform on the source model basis, rows = images."""
    rows, den = K.rows
    width = len(K.target.basis)
    out = [[Q(0)] * width for _ in rows]
    for image, row in zip(out, rows):
        for k, c in row:
            image[k] = Q(c, den)
    return out
