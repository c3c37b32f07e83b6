"""Independent oracles for cross-checking the library.

Deliberately different algorithms from the implementation: the Weyl group
is enumerated element by element, Weyl dimensions are Fraction products over
a written-out list of the positive roots, weight multiplicities come from
Gelfand-Tsetlin patterns, tensor products use the Klimyk formula, and
horizontal strips are found among all shapes in a box around the partition;
bundle products are formed summand by summand, against the product memo
on untwisted bases.  The cohomology rings are recomputed as truncated
polynomial rings in the hyperplane variables, from the relations stated in
the intersect module docstring, with no structure-constant tables.
Section tables and splices are found by enumerating every rank of every
differential or map, with no interval propagation.  Chern characters of
bundle expressions are built in the ring from their parse trees, for
Riemann-Roch against the Koszul side.  Kernels of rational matrices come
from Gauss-Jordan elimination in Fractions, against the integer
elimination of the library.  Euler pairings and integral transforms are
also computed by their defining full ring products, against the per-model
pairing form and the per-kernel transform rows of the library.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from spinorcalc.intersect import (
    ETA,
    CohClass,
    RingModel,
    hyperplane,
    integrate_left_fiber,
    integrate_right_fiber,
    lift_left,
    lift_right,
    tautological_ch,
    todd,
)
from spinorcalc.rootdata import RANK, RHO, Weight, tensor_decompose

Q = Fraction


@functools.lru_cache(maxsize=None)
def weyl_group_d5() -> tuple:
    """All 1920 elements of W(D5) as (permutation, signs) pairs."""
    elements = []
    for perm in permutations(range(RANK)):
        for signs in product((1, -1), repeat=RANK):
            if signs.count(-1) % 2 == 0:
                elements.append((perm, signs))
    assert len(elements) == 1920
    return tuple(elements)


def _act(elem, v):
    """The image of coordinate vector v: u[i] = signs[i] * v[perm[i]]."""
    perm, signs = elem
    return tuple(signs[i] * v[perm[i]] for i in range(RANK))


def _root_is_positive(i, si, j, sj):
    """A root si*e_i + sj*e_j (i != j) is positive iff the lower index has sign +."""
    if i > j:
        i, si, j, sj = j, sj, i, si
    return si == 1


def element_length(elem) -> int:
    """Number of positive roots sent to negative roots."""
    perm, signs = elem
    # w(e_k) = signs[i] e_i where perm[i] = k
    image = {}
    for i in range(RANK):
        image[perm[i]] = (i, signs[i])
    count = 0
    for i in range(RANK):
        for j in range(i + 1, RANK):
            ii, si = image[i]
            jj, sj = image[j]
            # w(e_i - e_j) and w(e_i + e_j)
            if not _root_is_positive(ii, si, jj, -sj):
                count += 1
            if not _root_is_positive(ii, si, jj, sj):
                count += 1
    return count


def regularize_oracle(lam: Weight):
    """BBW regularization by explicit Weyl-group search."""
    v = tuple(a + b for a, b in zip(lam.coords, RHO))
    if len({abs(x) for x in v}) < RANK:
        return None
    for elem in weyl_group_d5():
        u = _act(elem, v)
        if all(u[i] >= u[i + 1] for i in range(RANK - 1)) and u[3] >= abs(u[4]):
            return element_length(elem), Weight(u)
    raise AssertionError(f"no Weyl element regularizes {lam}")


# The 20 positive roots of D5, written out: e_i - e_j, then e_i + e_j, for i < j.
# The GL5 roots are the first ten.
D5_POSITIVE_ROOTS = tuple(tuple(Q(x) for x in root) for root in (
    (1, -1, 0, 0, 0), (1, 0, -1, 0, 0), (1, 0, 0, -1, 0), (1, 0, 0, 0, -1),
    (0, 1, -1, 0, 0), (0, 1, 0, -1, 0), (0, 1, 0, 0, -1),
    (0, 0, 1, -1, 0), (0, 0, 1, 0, -1),
    (0, 0, 0, 1, -1),
    (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1),
    (0, 1, 1, 0, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 1),
    (0, 0, 1, 1, 0), (0, 0, 1, 0, 1),
    (0, 0, 0, 1, 1),
))


def weyl_dim_oracle(lam: Weight, flavor: str) -> int:
    """Weyl dimension formula in Fractions over the listed positive roots:
    the product of <lam + rho, a> / <rho, a>, for a dominant weight lam."""
    roots = D5_POSITIVE_ROOTS if flavor == "D5" else D5_POSITIVE_ROOTS[:10]
    shifted = [c + r for c, r in zip(lam.coords, RHO)]
    for a in roots:
        assert sum(c * x for c, x in zip(lam.coords, a)) >= 0, f"{lam} is not {flavor}-dominant"
    out = Q(1)
    for a in roots:
        out *= sum(v * x for v, x in zip(shifted, a)) / sum(r * x for r, x in zip(RHO, a))
    assert out.denominator == 1 and out > 0, out
    return out.numerator


def orbit_size_d5(w: Weight) -> int:
    """Size of the W(D5)-orbit; the dimension of a minuscule representation."""
    v = w.coords
    return len({_act(elem, v) for elem in weyl_group_d5()})


@functools.lru_cache(maxsize=None)
def gt_weight_multiplicities(top: tuple[int, ...]) -> Counter:
    """GL5 weight multiplicities of the irreducible with partition ``top``,
    enumerated through Gelfand-Tsetlin patterns."""
    assert len(top) == RANK

    def interlacings(row: tuple[int, ...]):
        k = len(row) - 1
        ranges = [range(row[i + 1], row[i] + 1) for i in range(k)]
        for lower in product(*ranges):
            if all(lower[i] >= lower[i + 1] for i in range(k - 1)):
                yield lower

    weights: Counter = Counter()

    def descend(row: tuple[int, ...], sums: list[int]) -> None:
        if len(row) == 1:
            full = sums + [row[0]]
            # weight component k = |row_k| - |row_{k-1}| reading rows of size 1..5
            totals = full[::-1]
            w = []
            prev = 0
            for t in totals:
                w.append(t - prev)
                prev = t
            weights[tuple(w)] += 1
            return
        for lower in interlacings(row):
            descend(tuple(lower), sums + [sum(row)])

    descend(tuple(top), [])
    return weights


def horizontal_strips(shape: tuple[int, ...], size: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every horizontal strip of ``size`` boxes on the partition ``shape`` in five
    rows, as sorted (new shape, cumulative boxes added in rows 0..r) pairs.

    Brute force over the shapes nu with shape[i] <= nu[i] <= shape[i] + size:
    nu/shape is a horizontal strip when nu[i+1] <= shape[i] for every i.
    """
    assert len(shape) == 5
    out = []
    for nu in product(*(range(row, row + size + 1) for row in shape)):
        if sum(nu) - sum(shape) == size and all(nu[i + 1] <= shape[i] for i in range(4)):
            added = [n - row for n, row in zip(nu, shape)]
            out.append((nu, tuple(sum(added[:r + 1]) for r in range(5))))
    return sorted(out)


@functools.lru_cache(maxsize=None)
def klimyk_tensor(lam: Weight, mu: Weight) -> dict[Weight, int]:
    """GL5 tensor decomposition by the Klimyk formula.

    Sum over the weights w of the second factor: regularize lam + w + rho
    under S5, with the sign of the sorting permutation; singular terms
    (repeated entries) drop out.  Internally everything is doubled so the
    hot loop runs on plain integers even for half-integer weights.
    """
    b = mu.coords[-1]
    mu_p = tuple(int(c - b) for c in mu.coords)
    lam2 = [int(2 * c) for c in lam.coords]
    rho2 = [int(2 * r) for r in RHO]
    out: Counter = Counter()
    for w, mult in gt_weight_multiplicities(mu_p).items():
        v2 = tuple(lam2[i] + 2 * w[i] + rho2[i] for i in range(RANK))
        if len(set(v2)) < RANK:
            continue
        order = sorted(range(RANK), key=v2.__getitem__, reverse=True)
        inversions = sum(1 for i in range(RANK) for j in range(i + 1, RANK)
                         if order[i] > order[j])
        sign = -1 if inversions % 2 else 1
        out[tuple(v2[i] for i in order)] += sign * mult
    result: dict[Weight, int] = {}
    for v2sorted, m in out.items():
        if m == 0:
            continue
        assert m > 0, "Klimyk cancellation failed"
        target = Weight(tuple(Q(x, 2) - r for x, r in zip(v2sorted, RHO))).shifted(b)
        result[target] = m
    return result


def tensor_oracle(b, c) -> tuple[tuple[Weight, int], ...]:
    """The summands of the product of the bundles ``b`` and ``c`` (``bbw.HomogBundle``),
    decomposed summand by summand through ``tensor_decompose`` and merged, in decreasing
    order of doubled weight: the product without the memo on untwisted bases."""
    weights: dict[tuple[int, ...], Weight] = {}
    counts: dict[tuple[int, ...], int] = {}
    for w1, m1 in b.summands:
        for w2, m2 in c.summands:
            for w, m in tensor_decompose(w1, w2):
                t = w.twice
                weights[t] = w
                counts[t] = counts.get(t, 0) + m1 * m2 * m
    return tuple((weights[t], counts[t]) for t in sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# ring oracle: truncated polynomial rings in the hyperplane variables
# ---------------------------------------------------------------------------

# Each factor is Q[h]/(h^(d+1)) and its basis label i stands for scale * h^i.
# On X, H^2 = 12 L and H L = P, so L = h^2/12 and P = h^3/12; on a K3,
# H^2 = 12 P, so P = h^2/12; on the curve the generator is the point class.
FACTOR_BASES = {
    "X": (("1", Q(1)), ("H", Q(1)), ("L", Q(1, 12)), ("P", Q(1, 12))),
    "S": (("1", Q(1)), ("H", Q(1)), ("P", Q(1, 12))),
    "Sd": (("1", Q(1)), ("H", Q(1)), ("P", Q(1, 12))),
    "C": (("1", Q(1)), ("pt", Q(1))),
}

# Todd classes and hyperplane classes as stated in the docstring, by label.
FACTOR_TODD = {"X": {"1": 1, "H": Q(1, 2), "L": 3, "P": 1}, "S": {"1": 1, "P": 2},
               "Sd": {"1": 1, "P": 2}, "C": {"1": 1, "pt": -6}}
FACTOR_HYPERPLANE = {"X": {"H": 1}, "S": {"H": 1}, "Sd": {"H": 1}, "C": {"pt": 12}}


class PolyRing:
    """Q[h_1, .., h_r]/(h_i^(d_i + 1)) for r = 1 or 2 factors, plus eta on request.

    An element is a dict from monomials to Fractions; a monomial is the tuple
    of h-exponents followed by the eta exponent (0 or 1).  eta times the unit
    is eta, eta times any positive-degree monomial is 0, and eta^2 is
    ``eta_square`` times the top Kunneth basis class.
    """

    def __init__(self, factors: tuple[str, ...], eta_square=None) -> None:
        self.factors = factors
        self.bases = [FACTOR_BASES[f] for f in factors]
        self.tops = tuple(len(b) - 1 for b in self.bases)
        self.eta_square = None if eta_square is None else Q(eta_square)
        self.labels: dict[str, tuple] = {}
        for combo in product(*(enumerate(b) for b in self.bases)):
            label = "*".join(name for _, (name, _) in combo)
            self.labels[label] = tuple(i for i, _ in combo)
        if self.eta_square is not None:
            self.labels[ETA] = None

    def _scale(self, exps: tuple) -> Q:
        out = Q(1)
        for basis, i in zip(self.bases, exps):
            out *= basis[i][1]
        return out

    def from_labels(self, coeffs: dict) -> dict:
        poly: dict = {}
        for label, c in coeffs.items():
            if label == ETA:
                mono, value = (0,) * len(self.bases) + (1,), Q(c)
            else:
                exps = self.labels[label]
                mono, value = exps + (0,), Q(c) * self._scale(exps)
            poly[mono] = poly.get(mono, Q(0)) + value
        return poly

    def to_labels(self, poly: dict) -> dict:
        out = {}
        for mono, c in poly.items():
            if c == 0:
                continue
            if mono[-1] == 1:
                out[ETA] = c
            else:
                exps = mono[:-1]
                label = "*".join(b[i][0] for b, i in zip(self.bases, exps))
                out[label] = c / self._scale(exps)
        return out

    def mul(self, p: dict, q: dict) -> dict:
        out: dict = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                exps = tuple(a + b for a, b in zip(m1[:-1], m2[:-1]))
                if any(e > d for e, d in zip(exps, self.tops)):
                    continue
                eta = m1[-1] + m2[-1]
                c = c1 * c2
                if eta and any(exps):
                    continue
                if eta == 2:
                    # eta^2 = eta_square * (top Kunneth class) = eta_square * prod(scale_top h^top)
                    exps, eta = self.tops, 0
                    c *= self.eta_square * self._scale(self.tops)
                mono = exps + (eta,)
                out[mono] = out.get(mono, Q(0)) + c
        return {m: c for m, c in out.items() if c != 0}

    def add(self, *polys: dict, scales=None) -> dict:
        out: dict = {}
        for k, p in enumerate(polys):
            t = Q(1) if scales is None else Q(scales[k])
            for m, c in p.items():
                out[m] = out.get(m, Q(0)) + t * c
        return {m: c for m, c in out.items() if c != 0}

    def unit(self) -> dict:
        return {(0,) * (len(self.bases) + 1): Q(1)}

    def power(self, p: dict, n: int) -> dict:
        acc = self.unit()
        for _ in range(n):
            acc = self.mul(acc, p)
        return acc

    def exp(self, p: dict) -> dict:
        """exp of a nilpotent element: the sum of p^n / n! up to the total degree."""
        terms = [self.add(self.power(p, n), scales=[Q(1, factorial(n))])
                 for n in range(sum(self.tops) + 1)]
        return self.add(*terms)

    def lift(self, slot: int, factor_poly: dict) -> dict:
        """A factor polynomial (one h-exponent) seen on this product at position slot."""
        out = {}
        for mono, c in factor_poly.items():
            exps = [0] * len(self.bases)
            exps[slot] = mono[0]
            out[tuple(exps) + (0,)] = c
        return out

    def todd(self) -> dict:
        acc = self.unit()
        for slot, f in enumerate(self.factors):
            acc = self.mul(acc, self.lift(slot, PolyRing((f,)).from_labels(FACTOR_TODD[f])))
        return acc

    def hyperplane(self, slot: int) -> dict:
        f = self.factors[slot]
        return self.lift(slot, PolyRing((f,)).from_labels(FACTOR_HYPERPLANE[f]))

    def dual(self, p: dict) -> dict:
        """(-1)^degree on each monomial; eta is even."""
        return {m: (-c if sum(m[:-1]) % 2 else c) for m, c in p.items()}

    def integrate(self, p: dict) -> Q:
        """The coefficient of the top Kunneth basis class."""
        return p.get(self.tops + (0,), Q(0)) / self._scale(self.tops)

    def push(self, slot: int, p: dict) -> dict:
        """Integrate a two-factor polynomial over the factor at ``slot``.

        The result is a polynomial of the one-factor ring of the other
        factor.  Only monomials of top degree at ``slot`` survive, and the
        top basis class scale * h^top integrates to 1; eta pushes to zero.
        """
        top, scale = self.tops[slot], self.bases[slot][-1][1]
        out: dict = {}
        for mono, c in p.items():
            if mono[-1] == 0 and mono[slot] == top:
                key = (mono[1 - slot], 0)
                out[key] = out.get(key, Q(0)) + c / scale
        return {m: c for m, c in out.items() if c != 0}

    def chi(self, a: dict, b: dict) -> Q:
        return self.integrate(self.mul(self.mul(self.dual(a), b), self.todd()))

    def rank2_ch(self, c1: dict, c2: dict) -> dict:
        """ch of a rank-2 bundle from c1, c2 by the closed forms through degree 4."""
        c1sq = self.mul(c1, c1)
        ch2 = self.add(c1sq, c2, scales=[Q(1, 2), -1])
        ch3 = self.add(self.mul(c1sq, c1), self.mul(c1, c2), scales=[Q(1, 6), Q(-1, 2)])
        ch4 = self.add(self.mul(c1sq, c1sq), self.mul(c1sq, c2), self.mul(c2, c2),
                       scales=[Q(1, 24), Q(-1, 6), Q(1, 12)])
        return self.add(self.unit(), c1, ch2, ch3, ch4, scales=[2, 1, 1, 1, 1])


def bundle_ch(model: RingModel, tree: tuple) -> CohClass:
    """ch of the bundle a parsed expression (``bbw.parse_bundle_expr``) names, restricted
    to ``model``, built in its ring: O is 1, U its tautological character, a dual, a
    twist by k and a tensor product are ``dual()``, ``twisted(k H)`` and the product."""
    kind = tree[0]
    if kind == "atom":
        return CohClass.unit(model) if tree[1] == "O" else tautological_ch(model)
    if kind == "dual":
        return bundle_ch(model, tree[1]).dual()
    if kind == "twist":
        return bundle_ch(model, tree[1]).twisted(hyperplane(model).scale(tree[2]))
    if kind == "tensor":
        return bundle_ch(model, tree[1]) * bundle_ch(model, tree[2])
    raise ValueError(f"malformed bundle tree {tree!r}")


def chi_oracle(model: RingModel, a: CohClass, b: CohClass) -> Q:
    """The Euler pairing by its definition: the top coefficient of the full ring
    product ch(a)^dual * ch(b) * td."""
    return (a.dual() * b * todd(model)).integrate()


def transform_oracle(K, a: CohClass) -> CohClass:
    """The integral transform of the kernel ``K`` (a ``mukai.KernelSpec``) by its
    definition: lift ch(a) td(source) to the product, multiply by the kernel,
    integrate over the source fibre and apply the shift parity."""
    lift, integrate_fiber = ((lift_left, integrate_left_fiber) if K.source_side == "left"
                             else (lift_right, integrate_right_fiber))
    w = lift(K.product, a * todd(K.source)) * K.kernel_ch
    return integrate_fiber(K.product, w).scale(K.shift_parity)


def kernel_basis_oracle(rows: list[list[Q]]) -> list[list[Q]]:
    """Kernel of a small exact rational matrix by Gaussian elimination."""
    if not rows:
        return []
    n = len(rows[0])
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    ker = []
    for fc in free:
        vec = [Q(0)] * n
        vec[fc] = Q(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        ker.append(vec)
    return ker


# ---------------------------------------------------------------------------
# section and splice oracle: every assignment of differential and map ranks
# ---------------------------------------------------------------------------


def page_tables(page: dict[tuple[int, int], int], top: int) -> set[tuple[tuple[int, int], ...]]:
    """Every cohomology table a Koszul first page allows, as sorted (degree, dim) entries.

    A page-r differential maps the cell (p, q) to (p - r, q - r + 1), r >= 1,
    so it raises the degree d = q - p by one.  The total rank y_d of the
    differentials out of degree d is any nonnegative integer when some pair
    of cells is joined that way, and 0 otherwise.  Then h^d = E_d - y_{d-1} -
    y_d, which must be >= 0, and 0 outside [0, top].  Empty when no ranks fit.
    """
    totals: Counter = Counter()
    for (p, q), n in page.items():
        totals[q - p] += n
    joins = {q - p for p, q in page for p2, q2 in page if p > p2 and q2 == q - (p - p2) + 1}
    degrees = sorted(totals)
    found = set()

    def walk(i: int, y_in: int, table: tuple) -> None:
        if i == len(degrees):
            found.add(table)
            return
        d = degrees[i]
        for y in range(totals[d] - y_in + 1) if d in joins else (0,):
            h = totals[d] - y_in - y
            if h == 0 or h > 0 and 0 <= d <= top:
                walk(i + 1, y, table + ((d, h),) if h else table)

    walk(0, 0, ())
    return found


def page_cells(page: dict[tuple[int, int], int]) -> list[tuple[int, int, int]]:
    """A page as the cells ``sections._section_result`` reads: (p, q - p, n) in order of
    p, then q."""
    return sorted((p, q - p, n) for (p, q), n in page.items())


def ses_tables(terms: list, dim: int) -> set[tuple[int, ...]]:
    """Every table (dims in degrees 0..dim) of the one unknown (None) term of
    0 -> T0 -> T1 -> T2 -> 0, the known terms given as dim + 1 dims each.

    The long exact sequence H^0(T0) -> H^0(T1) -> H^0(T2) -> H^1(T0) -> ...
    is exact, so each entry is r_in + r_out, the ranks of the maps into and
    out of it, with the ranks before the first and after the last entry 0.
    The ranks are enumerated one by one: a known entry fixes the next rank,
    and the rank out of the unknown entry ranges up to the next known entry.
    """
    flat = [None if t is None else t[d] for d in range(dim + 1) for t in terms]
    found = set()

    def walk(i: int, r_in: int, unknown: tuple) -> None:
        if i == len(flat):
            if r_in == 0:
                found.add(unknown)
            return
        if flat[i] is not None:
            if flat[i] >= r_in:
                walk(i + 1, flat[i] - r_in, unknown)
            return
        cap = flat[i + 1] if i + 1 < len(flat) else 0
        for r_out in range(cap + 1):
            walk(i + 1, r_out, unknown + (r_in + r_out,))

    walk(0, 0, ())
    return found


def splice_tables(terms: list, dim: int) -> set[tuple[int, ...]]:
    """Every table of the one unknown term of a 3- or 4-term exact sequence.

    A 4-term sequence 0 -> A -> B -> C -> D -> 0 is the two short ones
    through M = image(B -> C): each M the side without the unknown allows is
    tried as a known term of the other side.
    """
    if len(terms) == 3:
        return ses_tables(terms, dim)
    a, b, c, d = terms
    if None in (a, b):
        return {t for m in ses_tables([None, c, d], dim) for t in ses_tables([a, b, m], dim)}
    return {t for m in ses_tables([a, b, None], dim) for t in ses_tables([m, c, d], dim)}
