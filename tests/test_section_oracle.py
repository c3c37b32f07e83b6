"""Section tables against an oracle that does not read the Koszul page:
Serre duality on the section, and Hilbert polynomials of the threefold, the
K3 and the curve where the higher cohomology is known to vanish."""

import pytest

from spinorcalc.bbw import DIM, O, make_bundle
from spinorcalc.sections import section_cohomology

BASES = ("O", "U", "dual(U)", "U*U", "U*dual(U)", "dual(U)*dual(U)")
TWISTS = range(-9, 10)


def test_serre_duality_on_sections():
    # the canonical bundle of the codim-c section is O(c - 8), and its dimension is 10 - c
    pairs = 0
    for expr in BASES:
        base = make_bundle(expr)
        for k in TWISTS:
            b = base.twist(k)
            for codim in range(6, 10):
                lhs = section_cohomology(b, codim)
                rhs = section_cohomology(b.dual().twist(codim - 8), codim)
                if lhs.exact and rhs.exact:
                    n = DIM - codim
                    assert lhs.table.dims() == {n - d: m for d, m in rhs.table.entries}, \
                        (expr, k, codim)
                    pairs += 1
    assert pairs >= 452   # 452 doubly exact pairs of 456; 52 before single-degree tables


@pytest.mark.parametrize("k", range(0, 10))
def test_threefold_ample_twists_have_sections_only(k):
    res = section_cohomology(O(k), 7)
    assert res.exact and res.table.dims() == {0: 2 * k ** 3 + 3 * k ** 2 + 3 * k + 1}


@pytest.mark.parametrize("k", range(1, 10))
def test_k3_ample_twists(k):
    res = section_cohomology(O(k), 8)
    assert res.exact and res.table.dims() == {0: 6 * k ** 2 + 2}


@pytest.mark.parametrize("k", range(2, 10))
def test_curve_twists_past_the_canonical(k):
    res = section_cohomology(O(k), 9)
    assert res.exact and res.table.dims() == {0: 12 * k - 6}
