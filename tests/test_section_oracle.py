"""Section tables against an oracle that does not read the Koszul page:
Serre duality on the section, Hilbert polynomials of the threefold, the
K3 and the curve where the higher cohomology is known to vanish, the genus
of the curve, and Riemann-Roch in the intersection ring for the Euler
numbers of grammar bundles on the threefold, the K3 and the curve and for
the Euler numbers of the six splice pipeline entries.  The same ring classes of
grammar bundles check the hyperplane-section pullbacks alpha and beta."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bundle_ch
from spinorcalc import mukai
from spinorcalc.bbw import DIM, O, make_bundle, parse_bundle_expr
from spinorcalc.intersect import (
    CohClass,
    chi,
    geom_map,
    hyperplane,
    model_curve,
    model_s,
    model_x,
    tautological_ch,
)
from spinorcalc.sections import pipeline, section_cohomology
from test_koszul_columns import bundle_exprs

BASES = ("O", "U", "dual(U)", "U*U", "U*dual(U)", "dual(U)*dual(U)")
TWISTS = range(-9, 10)


def _serre_pairs(b) -> int:
    """Check Serre duality on each codim-6..9 section where b and its dual partner are
    both exact; the canonical bundle is O(c - 8), the dimension 10 - c.  Returns the count."""
    pairs = 0
    for codim in range(6, 10):
        lhs = section_cohomology(b, codim)
        rhs = section_cohomology(b.dual().twist(codim - 8), codim)
        if lhs.exact and rhs.exact:
            n = DIM - codim
            assert lhs.table.dims() == {n - d: m for d, m in rhs.table.entries}, (b, codim)
            pairs += 1
    return pairs


def test_serre_duality_on_sections():
    pairs = sum(_serre_pairs(make_bundle(expr).twist(k)) for expr in BASES for k in TWISTS)
    assert pairs >= 456   # all 456 pairs; 452 with single-degree tables only, 52 before them


@settings(max_examples=30, deadline=None)
@given(bundle_exprs(), st.integers(-9, 9))
def test_serre_duality_on_random_bundles(expr, k):
    _serre_pairs(make_bundle(expr).twist(k))


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


def test_curve_genus():
    # the curve is connected of genus 7: h^0(O_C) = 1 and h^1(O_C) = 7
    res = section_cohomology(O(), 9)
    assert res.exact and res.table.dims() == {0: 1, 1: 7}


@settings(max_examples=100, deadline=None)
@given(bundle_exprs(), st.integers(-4, 4))
def test_koszul_euler_numbers_match_riemann_roch(expr, k):
    # chi(b(k)) on the threefold, the K3 and the curve: the alternating sum of the
    # Koszul page against the integral of ch(b(k)) td in the intersection ring
    b = make_bundle(expr).twist(k)
    tree = ("twist", parse_bundle_expr(expr), k)
    for codim, model in ((7, model_x()), (8, model_s()), (9, model_curve())):
        ch = bundle_ch(model, tree)
        assert section_cohomology(b, codim).euler == chi(model, CohClass.unit(model), ch), codim


def _euler(model, ch) -> int:
    return chi(model, CohClass.unit(model), ch)


def test_splice_pipelines_match_riemann_roch():
    # Each pipeline's Euler number against chi of its ring class.  The two vanishing
    # results are solved on the fourfold, for sheaves supported on the threefold, so
    # they too are read on X; E2y(-H) lives on the K3 S.
    X, S = model_x(), model_s()
    e1y, e2y, u = mukai.class_e1y(), mukai.class_e2y(), tautological_ch(X)
    h_x, h_s = hyperplane(X), hyperplane(S)
    cases = {
        "E1y(-H)": (X, e1y.twisted(h_x.scale(-1)), 0),
        "E1y*dual(U)(-H)": (X, (e1y * u.dual()).twisted(h_x.scale(-1)), 0),
        "E1y(-2H)": (X, e1y.twisted(h_x.scale(-2)), -5),
        "E2y(-H)": (S, e2y.twisted(h_s.scale(-1)), 5),
        "E1y*U(-H)": (X, (e1y * u).twisted(h_x.scale(-1)), 0),
        "E1y*dual(U)(-2H)": (X, (e1y * u.dual()).twisted(h_x.scale(-2)), -1),
    }
    for name, (model, ch, euler) in cases.items():
        assert pipeline(name).table.euler == _euler(model, ch) == euler, name


@settings(max_examples=40, deadline=None)
@given(bundle_exprs(), st.integers(-3, 3))
def test_hyperplane_sections_of_grammar_bundles(expr, k):
    # chi(section, a|section) = chi(a) - chi(a(-H)) through the pullbacks alpha (S in X)
    # and beta (C in Sd), for the ring class a of b(k); on Sd, U is its tautological class
    tree = ("twist", parse_bundle_expr(expr), k)
    for name in ("alpha", "beta"):
        m = geom_map(name)
        big, small = m.target, m.source
        a = bundle_ch(big, tree)
        assert _euler(small, m.pull(a)) \
            == _euler(big, a) - _euler(big, a.twisted(hyperplane(big).scale(-1))), name
