"""The intersect rings on random rational classes: against the polynomial-ring
oracle of oracles.py, and through the ring axioms, the projection formula,
the transform adjunctions and the JSON round trip.  The Euler pairing and the
integral transforms, read from per-model and per-kernel forms, are checked
against their defining full ring products.  Classes stored with a
common factor in numerators and denominator read and compute as the reduced
class, and the integer elimination gives the kernels of the Fraction one."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PolyRing, chi_oracle, kernel_basis_oracle, transform_oracle
from spinorcalc import mukai
from spinorcalc.intersect import (
    ETA,
    CohClass,
    _kernel_basis,
    chi,
    eta_square_solve,
    exp_class,
    geom_map,
    hyperplane,
    model_curve,
    model_s,
    model_sdual,
    model_x,
    s_times_curve,
    s_times_sdual,
    todd,
    universal_ch,
    x_times_curve,
    x_times_sdual,
)

MODELS = {
    "X": model_x, "S": model_s, "Sd": model_sdual, "C": model_curve,
    "XxC": x_times_curve, "SxSd": s_times_sdual, "XxSd": x_times_sdual, "SxC": s_times_curve,
    "XxC-eta7/3": lambda: x_times_curve(eta_square=Q(7, 3)),
}

PRODUCTS = ("XxC", "SxSd", "XxSd", "SxC")
MAPS = ("alpha", "beta", "lambda1", "lambda2", "mu1", "mu2", "nu") \
    + tuple(f"{side}:{prod}" for prod in PRODUCTS for side in "pq")

COEFF = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-24, 24), st.integers(1, 24)))
SCALAR = st.builds(Q, st.integers(-10, 10), st.integers(1, 10))


# eta^2 on the models that carry eta: the paper's value, and a non-integral one
ETA_SQUARES = {"XxC": Q(14), "XxC-eta7/3": Q(7, 3)}


def oracle_for(name: str, model) -> PolyRing:
    factors = tuple(f.name for f in model.factors) if model.factors else (model.name,)
    return PolyRing(factors, eta_square=ETA_SQUARES.get(name))


def draw_class(data, model) -> CohClass:
    coeffs = data.draw(st.lists(COEFF, min_size=len(model.basis), max_size=len(model.basis)))
    return CohClass(model, dict(zip(model.basis, coeffs)))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_products_match_oracle(name, data):
    model = MODELS[name]()
    ring = oracle_for(name, model)
    a, b = draw_class(data, model), draw_class(data, model)
    assert ring.to_labels(ring.from_labels(a.coeffs)) == a.coeffs
    assert (a * b).coeffs == ring.to_labels(ring.mul(ring.from_labels(a.coeffs),
                                                     ring.from_labels(b.coeffs)))
    assert a.dual().coeffs == ring.to_labels(ring.dual(ring.from_labels(a.coeffs)))
    assert a.integrate() == ring.integrate(ring.from_labels(a.coeffs))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chi_matches_oracle(name, data):
    # the pairing form against the polynomial ring and the full ring product
    model = MODELS[name]()
    ring = oracle_for(name, model)
    a, b = draw_class(data, model), draw_class(data, model)
    expected = ring.chi(ring.from_labels(a.coeffs), ring.from_labels(b.coeffs))
    assert chi(model, a, b) == expected == chi_oracle(model, a, b)


@pytest.mark.parametrize("name", list(mukai.KERNELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transform_matches_oracle(name, data):
    # the kernel's transform rows against lift, multiply, fibre-integrate, parity
    K = mukai.kernel(name)
    a = draw_class(data, K.source)
    out = mukai.transform(K, a)
    assert out.model is K.target
    assert out.coeffs == transform_oracle(K, a).coeffs


@pytest.mark.parametrize("name", ["XxC", "SxSd", "XxSd", "SxC", "XxC-eta7/3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transform_of_any_kernel_matches_oracle(name, data):
    # random kernels on every product, from either side and with either parity
    prod = MODELS[name]()
    side = data.draw(st.sampled_from(("left", "right")))
    K = mukai.KernelSpec("random", prod, side, draw_class(data, prod),
                         data.draw(st.sampled_from((1, -1))))
    a = draw_class(data, K.source)
    assert mukai.transform(K, a).coeffs == transform_oracle(K, a).coeffs


@pytest.mark.parametrize("name", list(mukai.KERNELS))
def test_transform_matrix_holds_the_basis_images(name):
    K = mukai.kernel(name)
    expected = [[transform_oracle(K, CohClass.basis_class(K.source, l)).coefficient(l2)
                 for l2 in K.target.basis] for l in K.source.basis]
    mat = mukai.transform_matrix(K)
    assert mat == expected
    assert all(type(x) is Q for row in mat for x in row)


@pytest.mark.parametrize("name", list(MODELS))
def test_todd_matches_oracle(name):
    model = MODELS[name]()
    ring = oracle_for(name, model)
    assert todd(model).coeffs == ring.to_labels(ring.todd())


def test_riemann_roch_on_threefold():
    ring = PolyRing(("X",))
    X = model_x()
    for k in range(-5, 6):
        expected = 2 * k ** 3 + 3 * k ** 2 + 3 * k + 1
        twist = ring.exp(ring.add(ring.hyperplane(0), scales=[k]))
        assert ring.chi(ring.unit(), twist) == expected
        assert chi(X, CohClass.unit(X), exp_class(hyperplane(X).scale(k))) == expected


def test_fiber_bundle_self_pairing():
    # E1y: rank 2 with c1 = H and c2 = 5 L on the threefold
    ring = PolyRing(("X",))
    ch = ring.rank2_ch(ring.hyperplane(0), ring.from_labels({"L": 5}))
    assert ring.chi(ch, ch) == 0
    e1y = mukai.class_e1y()
    assert e1y.coeffs == ring.to_labels(ch)
    assert chi(model_x(), e1y, e1y) == 0


def test_eta_square_from_moduli_pairing():
    # c1 = H_X + H_C and c2 = (7/12) H_X H_C + 5 L + eta; chi(E, E) is affine in
    # eta^2 and the moduli value 12 fixes it.
    def pairing(s):
        ring = PolyRing(("X", "C"), eta_square=s)
        hx, hc = ring.hyperplane(0), ring.hyperplane(1)
        c1 = ring.add(hx, hc)
        c2 = ring.add(ring.mul(hx, hc), ring.from_labels({"L*1": 5, ETA: 1}),
                      scales=[Q(7, 12), 1])
        ch = ring.rank2_ch(c1, c2)
        return ring, ch, ring.chi(ch, ch)

    v0, v1 = pairing(0)[2], pairing(1)[2]
    solved = (12 - v0) / (v1 - v0)
    assert solved == 14 == eta_square_solve()
    ring, ch, value = pairing(solved)
    assert value == 12
    assert universal_ch(x_times_curve()).coeffs == ring.to_labels(ch)


@pytest.mark.parametrize("eta_square", [Q(0), Q(1), Q(7, 3), Q(14)], ids=str)
def test_universal_ch_at_every_eta_square(eta_square):
    # The Kunneth part of c2 is one shared ansatz; only the eta term sees eta^2.
    ring = PolyRing(("X", "C"), eta_square=eta_square)
    hx, hc = ring.hyperplane(0), ring.hyperplane(1)
    c2 = ring.add(ring.mul(hx, hc), ring.from_labels({"L*1": 5, ETA: 1}), scales=[Q(7, 12), 1])
    expected = ring.to_labels(ring.rank2_ch(ring.add(hx, hc), c2))
    assert universal_ch(x_times_curve(eta_square=eta_square)).coeffs == expected


@settings(max_examples=30, deadline=None)
@given(s=st.builds(Q, st.integers(-60, 60), st.integers(1, 12)))
def test_closed_form_eta_character(s):
    # The closed form ch(E_free) - eta + eta^2/12 against the character rebuilt
    # from its own Chern classes on the eta^2 = s model, and the affine pairing
    # whose moduli value 12 gives s = 14.
    prod = x_times_curve(eta_square=s)
    ch = universal_ch(prod)
    assert CohClass.from_chern(2, ch.chern_classes()[:2], prod) == ch
    assert chi(prod, ch, ch) == Q(-20, 3) + Q(4, 3) * s


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_riemann_roch_for_hyperplane_sections(data):
    # chi(section, a|section) = chi(a) - chi(a(-H)) through the hand-written
    # pullback matrices of alpha (S in X) and beta (C in Sd)
    for name in ("alpha", "beta"):
        m = geom_map(name)
        big, small = m.target, m.source
        a = draw_class(data, big)
        assert chi(small, CohClass.unit(small), m.pull(a)) \
            == chi(big, CohClass.unit(big), a) \
            - chi(big, CohClass.unit(big), a.twisted(hyperplane(big).scale(-1)))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_axioms(name, data):
    model = MODELS[name]()
    a, b, c = (draw_class(data, model) for _ in range(3))
    t = data.draw(SCALAR)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert CohClass.unit(model) * a == a
    assert (a.scale(t) * b) == (a * b).scale(t)
    assert a - a == CohClass.zero(model)


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chern_round_trip(name, data):
    model = MODELS[name]()
    rank = data.draw(st.integers(-8, 8))
    cs = [draw_class(data, model).component(k) for k in range(1, model.dim + 1)]
    ch = CohClass.from_chern(rank, cs, model)
    assert ch.chern_classes() == cs
    assert ch.rank == rank


@pytest.mark.parametrize("name", MAPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_projection_formula(name, data):
    m = geom_map(name)
    a, b = draw_class(data, m.target), draw_class(data, m.source)
    assert m.push(m.pull(a) * b) == a * m.push(b)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_threefold_curve_adjunction(data):
    # chi(Phi1 b, a) = chi(b, Phi1^! a)
    X, C = model_x(), model_curve()
    a, b = draw_class(data, X), draw_class(data, C)
    phi1, phi1s = mukai.kernel("phi1"), mukai.kernel("phi1-shriek")
    assert chi(X, mukai.transform(phi1, b), a) \
        == chi(C, b, mukai.transform(phi1s, a))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_k3_pair_adjunction(data):
    # chi(Phi2^* a, b) = chi(a, Phi2 b)
    S, Sd = model_s(), model_sdual()
    a, b = draw_class(data, S), draw_class(data, Sd)
    phi2, phi2l = mukai.kernel("phi2"), mukai.kernel("phi2-left")
    assert chi(Sd, mukai.transform(phi2l, a), b) \
        == chi(S, a, mukai.transform(phi2, b))


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_json_round_trip(name, data):
    model = MODELS[name]()
    a = draw_class(data, model)
    payload = a.to_json()
    assert all(isinstance(v, str) for v in payload.values())
    assert CohClass.from_json(model, payload) == a
    assert {label: Q(v) for label, v in payload.items()} == a.coeffs


@pytest.mark.parametrize("name", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_common_factor_does_not_change_the_class(name, data):
    # k num over k den is the same class: every reader and operation agrees
    model = MODELS[name]()
    a, b = draw_class(data, model), draw_class(data, model)
    k = data.draw(st.integers(1, 60))
    a_k = CohClass._make(model, tuple(k * x for x in a.num), k * a.den)
    assert a_k == a and a == a_k and hash(a_k) == hash(a)
    assert a_k.coeffs == a.coeffs
    assert a_k.to_json() == a.to_json() and repr(a_k) == repr(a)
    assert a_k.integrate() == a.integrate()
    assert [c.coeffs for c in a_k.chern_classes()] == [c.coeffs for c in a.chern_classes()]
    assert a_k.chern_classes() == a.chern_classes()
    assert _rank_or_error(a_k) == _rank_or_error(a)
    assert a_k * b == a * b and (a_k * b).coeffs == (a * b).coeffs
    assert a_k + b == a + b and (a_k + b).coeffs == (a + b).coeffs
    assert chi(model, a_k, b) == chi(model, a, b)
    assert a_k != a + CohClass.unit(model)


def _rank_or_error(a: CohClass):
    try:
        return a.rank
    except ValueError as exc:
        return str(exc)


RATIONAL = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-12, 12), st.integers(1, 12)))


@st.composite
def rational_matrices(draw):
    """1-13 rows of 1-5 rational columns; each row is zero, a repeat or rational
    combination of a few base rows, or fresh, so ranks below full are common."""
    cols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(RATIONAL, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 13))):
        kind = draw(st.sampled_from(("zero", "repeat", "combination", "fresh")))
        if kind == "zero":
            rows.append([Q(0)] * cols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(base))))
        elif kind == "combination":
            ts = draw(st.lists(RATIONAL, min_size=len(base), max_size=len(base)))
            rows.append([sum((t * r[c] for t, r in zip(ts, base)), Q(0)) for c in range(cols)])
        else:
            rows.append(draw(st.lists(RATIONAL, min_size=cols, max_size=cols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_kernel_basis_matches_fraction_elimination(rows):
    ker = _kernel_basis(rows)
    assert ker == kernel_basis_oracle(rows)
    assert all(type(x) is Q for vec in ker for x in vec)
    assert all(sum((x * y for x, y in zip(row, vec)), Q(0)) == 0 for row in rows for vec in ker)
