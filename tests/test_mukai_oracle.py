"""The eight kernels of the mukai table against the polynomial-ring oracle of oracles.py.

The oracle side is rebuilt only from the data the docstrings state: E1 has
c1 = H_X + H_C and c2 = (7/12) H_X H_C + 5 L + eta with eta^2 = 14, E2 has
c1 = H_S + H_Sd and c2 = (7/12) H_S H_Sd + 5 P_S + 5 P_Sd, U+ = 5 - 2H + P on
the threefold, U- = 5 - 2H on the dual K3, and each kernel names its twists
and shift parity.  The glued kernel is dual(U+) - U-; its two split pieces
carry one term each.  A transform is parity * push(pull(a * td(source)) * kernel).
"""

from fractions import Fraction as Q

import pytest

from oracles import FACTOR_TODD, PolyRing
from spinorcalc.intersect import ETA, CohClass
from spinorcalc.mukai import _KERNELS, kernel, transform

# name -> (source slot, dualize the character, twist multiples (left, right), parity)
SPECS = {
    "phi1": (1, False, (0, 0), 1),
    "phi1-left": (0, False, (-2, -1), -1),
    "phi1-shriek": (0, True, (0, 1), -1),
    "phi2": (1, False, (0, 0), 1),
    "phi2-left": (0, False, (-1, -1), 1),
    "E-tilde": (0, False, (-1, -1), -1),
    "u-piece-sub": (0, False, (-1, -1), -1),
    "u-piece-quotient-dual": (0, False, (-1, -1), -1),
}


def universal(ring: PolyRing, fiber_c2: dict) -> dict:
    hl, hr = ring.hyperplane(0), ring.hyperplane(1)
    c2 = ring.add(ring.mul(hl, hr), ring.from_labels(fiber_c2), scales=[Q(7, 12), 1])
    return ring.rank2_ch(ring.add(hl, hr), c2)


def oracle_kernel(name: str) -> tuple[PolyRing, dict]:
    """The product ring and the kernel character, twists and duals included."""
    if name.startswith("phi1"):
        ring = PolyRing(("X", "C"), eta_square=14)
        ch = universal(ring, {"L*1": 5, ETA: 1})
    elif name.startswith("phi2"):
        ring = PolyRing(("S", "Sd"))
        ch = universal(ring, {"P*1": 5, "1*P": 5})
    else:
        ring = PolyRing(("X", "Sd"))
        u_plus_dual = ring.dual(ring.from_labels({"1*1": 5, "H*1": -2, "P*1": 1}))
        u_minus = ring.from_labels({"1*1": 5, "1*H": -2})
        scales = {"E-tilde": [1, -1], "u-piece-quotient-dual": [1, 0], "u-piece-sub": [0, 1]}
        ch = ring.add(u_plus_dual, u_minus, scales=scales[name])
    _, dual, (a, b), _ = SPECS[name]
    if dual:
        ch = ring.dual(ch)
    twist = ring.exp(ring.add(ring.hyperplane(0), ring.hyperplane(1), scales=[a, b]))
    return ring, ring.mul(ch, twist)


def test_the_specs_cover_the_kernel_table():
    assert list(SPECS) == list(_KERNELS)


@pytest.mark.parametrize("name", list(SPECS))
def test_kernel_matches_oracle(name):
    K = kernel(name)
    slot, _, _, parity = SPECS[name]
    ring, character = oracle_kernel(name)
    assert tuple(f.name for f in K.product.factors) == ring.factors
    assert K.source is K.product.factors[slot]
    assert K.kernel_ch.coeffs == ring.to_labels(character)

    src, tgt = PolyRing((ring.factors[slot],)), PolyRing((ring.factors[1 - slot],))
    td = src.from_labels(FACTOR_TODD[ring.factors[slot]])
    for label in K.source.basis:
        pulled = ring.lift(slot, src.mul(src.from_labels({label: 1}), td))
        image = ring.push(slot, ring.mul(pulled, character))
        expected = tgt.to_labels(tgt.add(image, scales=[parity]))
        assert transform(K, CohClass.basis_class(K.source, label)).coeffs == expected, label
