from fractions import Fraction as Q
from itertools import product

import pytest

from spinorcalc import intersect, mukai, sections
from spinorcalc.rootdata import RationalSyntaxError
from spinorcalc.intersect import (
    ETA,
    ClassSyntaxError,
    CohClass,
    chi,
    eta_square_solve,
    exp_class,
    geom_map,
    hyperplane,
    integrate_left_fiber,
    integrate_right_fiber,
    lift_left,
    lift_right,
    model_curve,
    model_s,
    model_sdual,
    model_x,
    point_class,
    restrict_to_left_fiber,
    s_times_curve,
    s_times_sdual,
    tautological_ch,
    todd,
    universal_ch,
    x_times_curve,
    x_times_sdual,
)

ALL_MODELS = lambda: [model_x(), model_s(), model_sdual(), model_curve(),
                      x_times_curve(), s_times_sdual(), x_times_sdual(), s_times_curve()]


class TestRingAxioms:
    def test_commutative_associative_unital(self):
        for m in ALL_MODELS():
            basis = [CohClass.basis_class(m, l) for l in m.basis]
            one = CohClass.unit(m)
            for a in basis:
                assert one * a == a
                for b in basis:
                    assert a * b == b * a
                    for c in basis:
                        assert (a * b) * c == a * (b * c)

    def test_grading(self):
        for m in ALL_MODELS():
            for la in m.basis:
                for lb in m.basis:
                    prod = CohClass.basis_class(m, la) * CohClass.basis_class(m, lb)
                    k = m.grades[m.index[la]] + m.grades[m.index[lb]]
                    assert prod == prod.component(k)

    def test_integrate_unit_vanishes(self):
        for m in ALL_MODELS():
            assert CohClass.unit(m).integrate() == 0

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            CohClass.unit(model_x()) * CohClass.unit(model_s())

    def test_kunneth_integration(self):
        for prod in (x_times_curve(), s_times_sdual(), x_times_sdual(), s_times_curve()):
            left, right = prod.factors
            for la in left.basis:
                for lb in right.basis:
                    a = CohClass.basis_class(left, la)
                    b = CohClass.basis_class(right, lb)
                    assert (lift_left(prod, a) * lift_right(prod, b)).integrate() \
                        == a.integrate() * b.integrate()


class TestBasicIntegrals:
    def test_anticanonical_degree(self):
        h = hyperplane(model_x())
        assert (h * h * h).integrate() == 12

    def test_conic_degree(self):
        taut = tautological_ch(model_x())
        c1 = taut.chern_classes()[0]
        conic = CohClass.basis_class(model_x(), "L", 2)
        assert (c1 * conic).integrate() == -4

    def test_k3_degree(self):
        h = hyperplane(model_s())
        assert (h * h).integrate() == 12

    def test_curve_degree(self):
        assert hyperplane(model_curve()).integrate() == 12


class TestTodd:
    def test_chi_structure_sheaves(self):
        assert todd(model_x()).integrate() == 1
        assert todd(model_s()).integrate() == 2
        assert todd(model_curve()).integrate() == -6

    @pytest.mark.parametrize("label", ["1", "H"])
    def test_exp_needs_positive_codimension(self, label):
        a = CohClass.unit(model_x()) + CohClass.basis_class(model_x(), label)
        with pytest.raises(ValueError, match=r"^exp requires a class of positive codimension$"):
            exp_class(a)

    def test_riemann_roch_matches_koszul(self):
        X = model_x()
        for k in range(-5, 6):
            rr = (exp_class(hyperplane(X).scale(k)) * todd(X)).integrate()
            assert rr == sections.section_hilbert(7, k)
        S = model_s()
        for k in range(-5, 6):
            rr = (exp_class(hyperplane(S).scale(k)) * todd(S)).integrate()
            assert rr == sections.section_hilbert(8, k)
        C = model_curve()
        for k in range(-5, 6):
            rr = (exp_class(hyperplane(C).scale(k)) * todd(C)).integrate()
            assert rr == sections.section_hilbert(9, k)


class TestChernData:
    def test_round_trip(self):
        X = model_x()
        h = hyperplane(X)
        l = CohClass.basis_class(X, "L")
        p = CohClass.basis_class(X, "P")
        for rank, cs in [
            (2, [h, l.scale(5), CohClass.zero(X)]),
            (5, [h.scale(-2), l.scale(3), p.scale(7)]),
            (3, [h.scale(Q(1, 2)), l.scale(Q(-2, 3)), p.scale(Q(5, 12))]),
        ]:
            ch = CohClass.from_chern(rank, cs, X)
            back = ch.chern_classes()
            assert back == cs

    def test_rank_must_be_integral(self):
        X = model_x()
        assert CohClass(X, {"1": 3, "H": Q(1, 2)}).rank == 3
        with pytest.raises(ValueError, match="non-integral rank 1/2"):
            CohClass(X, {"1": Q(1, 2), "H": 1}).rank

    def test_round_trip_on_product(self):
        prod = x_times_curve()
        e1 = universal_ch(prod)
        cs = e1.chern_classes()
        assert CohClass.from_chern(2, cs[:2], prod) == e1

    def test_rank2_closed_forms(self):
        # ch3 = (c1^3 - 3 c1 c2)/6 and ch4 = (c1^4 - 4 c1^2 c2 + 2 c2^2)/24
        prod = s_times_sdual()
        e2 = universal_ch(prod)
        c1, c2 = e2.chern_classes()[:2]
        ch3 = (c1 * c1 * c1 - (c1 * c2).scale(3)).scale(Q(1, 6))
        ch4 = (c1 ** 4 - (c1 * c1 * c2).scale(4) + (c2 * c2).scale(2)).scale(Q(1, 24))
        assert e2.component(3) == ch3
        assert e2.component(4) == ch4

    def test_dual_twist(self):
        X = model_x()
        taut = tautological_ch(X)
        # rank-5 det: dual of the twist matches the twist of the dual
        assert taut.dual().twisted(hyperplane(X)) \
            == taut.twisted(-1 * hyperplane(X)).dual()


class TestTautological:
    def test_threefold_values(self):
        taut = tautological_ch(model_x())
        assert taut.rank == 5
        assert taut == CohClass(model_x(), {"1": 5, "H": -2, "P": 1})

    def test_chi_constraints(self):
        X = model_x()
        taut = tautological_ch(X)
        assert chi(X, CohClass.unit(X), taut) == 0
        dual_tw = taut.dual().twisted(-1 * hyperplane(X))
        assert chi(X, CohClass.unit(X), dual_tw) == 0

    def test_k3_restriction_matches_sections(self):
        S = model_s()
        taut = tautological_ch(S)
        assert taut == CohClass(S, {"1": 5, "H": -2})
        # chi(S, U) from the ring model equals the Koszul computation
        assert chi(S, CohClass.unit(S), taut) \
            == sections.section_cohomology(sections.make_bundle("U"), 8).euler

    def test_curve_truncation(self):
        C = model_curve()
        taut = tautological_ch(C)
        assert taut == CohClass(C, {"1": 5, "pt": -24})


class TestUniversal:
    def test_threefold_curve_classes(self):
        prod = x_times_curve()
        e1 = universal_ch(prod)
        c1, c2 = e1.chern_classes()[:2]
        X, C = prod.factors
        assert c1 == lift_left(prod, hyperplane(X)) + lift_right(prod, hyperplane(C))
        expected_c2 = (lift_left(prod, hyperplane(X)) * lift_right(prod, hyperplane(C))
                       ).scale(Q(7, 12)) \
            + lift_left(prod, CohClass.basis_class(X, "L", 5)) \
            + CohClass.basis_class(prod, ETA)
        assert c2 == expected_c2
        assert e1.component(3) == CohClass(prod, {"P*1": Q(-1, 2)})

    def test_k3_pair_classes(self):
        prod = s_times_sdual()
        e2 = universal_ch(prod)
        c1, c2 = e2.chern_classes()[:2]
        S, Sd = prod.factors
        assert c1 == lift_left(prod, hyperplane(S)) + lift_right(prod, hyperplane(Sd))
        expected_c2 = (lift_left(prod, hyperplane(S)) * lift_right(prod, hyperplane(Sd))
                       ).scale(Q(7, 12)) \
            + lift_left(prod, CohClass.basis_class(S, "P", 5)) \
            + lift_right(prod, CohClass.basis_class(Sd, "P", 5))
        assert c2 == expected_c2
        assert e2.component(3).is_zero

    def test_fiber_restriction(self):
        prod = x_times_curve()
        fiber = restrict_to_left_fiber(prod, universal_ch(prod))
        # the fiber bundle: rank 2, c1 = H, c2 = 5L
        assert fiber == CohClass(model_x(), {"1": 2, "H": 1, "L": 1, "P": Q(-1, 2)})

    def test_fiber_dual_is_negative_twist(self):
        # rank 2 with determinant H: the dual is the (-H)-twist
        X = model_x()
        fiber = restrict_to_left_fiber(x_times_curve(), universal_ch(x_times_curve()))
        assert fiber.rank == 2
        assert fiber.dual() == fiber.twisted(-1 * hyperplane(X))

    def test_glueing_compatibility(self):
        # both universal bundles restrict to the same class on the mixed product
        via_x = geom_map("lambda1").pull(universal_ch(x_times_curve()))
        via_s = geom_map("lambda2").pull(universal_ch(s_times_sdual()))
        assert via_x == via_s


class TestEta:
    def test_value(self):
        assert eta_square_solve() == 14

    def test_algebra(self):
        prod = x_times_curve()
        eta = CohClass.basis_class(prod, ETA)
        assert eta * eta == CohClass(prod, {"P*pt": 14})
        for label in prod.basis:
            if label == ETA or prod.grades[prod.index[label]] == 0:
                continue
            assert (eta * CohClass.basis_class(prod, label)).is_zero

    def test_dual_keeps_eta_even(self):
        prod = x_times_curve()
        eta = CohClass.basis_class(prod, ETA)
        assert eta.dual() == eta

    def test_solve_raises_without_the_eta_terms(self, monkeypatch):
        # dropping eta from c2 zeroes both eta terms of the character; the slope vanishes
        monkeypatch.setattr(intersect, "_ETA_TERMS", (Q(0), Q(0)))
        _clear_model_caches()
        try:
            with pytest.raises(ArithmeticError) as err:
                eta_square_solve()
        finally:
            _clear_model_caches()
        assert str(err.value) == "pairing does not see eta^2; the eta term is missing from c2"

    def test_guard_without_eta(self):
        bare = x_times_curve(eta_square=0)
        uni = universal_ch(bare)
        assert chi(bare, uni, uni) == Q(-20, 3)
        assert chi(bare, uni, uni) != 12

    @pytest.mark.parametrize("model", [model_x, x_times_sdual, s_times_curve],
                             ids=["X", "XxSd", "SxC"])
    def test_only_moduli_products(self, model):
        name = model().name
        with pytest.raises(ValueError, match=f"no universal bundle on {name}:"):
            universal_ch(model())

    def test_self_pairing_with_eta(self):
        prod = x_times_curve()
        uni = universal_ch(prod)
        assert chi(prod, uni, uni) == 12

    def test_fiberwise_self_pairing(self):
        X = model_x()
        fiber = restrict_to_left_fiber(x_times_curve(), universal_ch(x_times_curve()))
        assert chi(X, fiber, fiber) == 0


class TestPushPull:
    def test_hyperplane_section_class(self):
        out = geom_map("alpha").push(CohClass.unit(model_s()))
        assert out == hyperplane(model_x())

    def test_pull_alpha(self):
        X, S = model_x(), model_s()
        assert geom_map("alpha").pull(hyperplane(X)) == hyperplane(S)
        assert geom_map("alpha").pull(CohClass.basis_class(X, "L")) \
            == CohClass.basis_class(S, "P")

    def test_fiber_integration(self):
        prod = x_times_curve()
        cls = CohClass(prod, {"P*pt": 1})
        assert geom_map(f"q:{prod.name}").push(cls) == point_class(model_curve())

    def test_projection_formula_embeddings(self):
        for name in ("alpha", "beta", "lambda1", "lambda2", "mu1", "mu2", "nu"):
            m = geom_map(name)
            for la in m.target.basis:
                a = CohClass.basis_class(m.target, la)
                for lb in m.source.basis:
                    b = CohClass.basis_class(m.source, lb)
                    assert m.push(m.pull(a) * b) == a * m.push(b), (name, la, lb)

    def test_projection_formula_projections(self):
        for prod in (x_times_curve(), s_times_sdual(), x_times_sdual(), s_times_curve()):
            for pname in (f"p:{prod.name}", f"q:{prod.name}"):
                m = geom_map(pname)
                for la in m.target.basis:
                    a = CohClass.basis_class(m.target, la)
                    for lb in m.source.basis:
                        b = CohClass.basis_class(m.source, lb)
                        assert m.push(m.pull(a) * b) == a * m.push(b), (pname, la, lb)
        # the threefold-curve product at other eta^2, through the lifts and fibre integrals
        for s in (Q(0), Q(1), Q(7, 3), Q(-5, 6)):
            prod = x_times_curve(eta_square=s)
            eta = CohClass.basis_class(prod, ETA)
            assert integrate_left_fiber(prod, eta).is_zero
            assert integrate_right_fiber(prod, eta).is_zero
            for factor, lift, fibre in ((prod.factors[0], lift_left, integrate_right_fiber),
                                        (prod.factors[1], lift_right, integrate_left_fiber)):
                for la in factor.basis:
                    a = CohClass.basis_class(factor, la)
                    for lb in prod.basis:
                        b = CohClass.basis_class(prod, lb)
                        assert fibre(prod, lift(prod, a) * b) == a * fibre(prod, b), (s, la, lb)

    @pytest.mark.parametrize("eta_square", [Q(0), Q(1), Q(7, 3), Q(-5, 6)], ids=str)
    @pytest.mark.parametrize("name", ["lambda1", "mu1"])
    def test_projection_formula_on_eta_models(self, name, eta_square):
        # the threefold-curve embeddings rebuilt on an eta model other than the solved one
        products = {**intersect._PRODUCTS, "XxC": lambda: x_times_curve(eta_square=eta_square)}
        src, tgt, left, right = intersect._TENSOR_MAPS[name]
        m = intersect._tensor_map(name, products[src](), products[tgt](),
                                  geom_map(left) if left else None,
                                  geom_map(right) if right else None)
        assert ETA in m.source.basis or ETA in m.target.basis
        for la in m.target.basis:
            a = CohClass.basis_class(m.target, la)
            for lb in m.source.basis:
                b = CohClass.basis_class(m.source, lb)
                assert m.push(m.pull(a) * b) == a * m.push(b), (la, lb)

    def test_eta_dies_under_maps(self):
        prod = x_times_curve()
        eta = CohClass.basis_class(prod, ETA)
        assert geom_map("mu1").push(eta).is_zero
        assert geom_map("lambda1").pull(eta).is_zero
        assert geom_map(f"p:{prod.name}").push(eta).is_zero
        assert geom_map(f"q:{prod.name}").push(eta).is_zero

    def test_lifts_and_fibre_integrals_are_the_projection_maps(self):
        prod = x_times_curve()
        p, q = geom_map("p:XxC"), geom_map("q:XxC")
        assert p is intersect._projection(prod, "left")
        assert q is intersect._projection(prod, "right")
        h, top = hyperplane(model_curve()), CohClass.basis_class(prod, "P*pt")
        assert lift_right(prod, h) == q.pull(h) and integrate_right_fiber(prod, top) == p.push(top)

    def test_fibre_maps_check_the_model(self):
        prod = x_times_curve()
        with pytest.raises(ValueError):
            restrict_to_left_fiber(prod, CohClass.unit(model_x()))
        with pytest.raises(ValueError):
            integrate_left_fiber(prod, CohClass.unit(x_times_sdual()))
        with pytest.raises(ValueError):
            integrate_right_fiber(prod, CohClass.unit(x_times_sdual()))

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            geom_map("alpha").push(CohClass.unit(model_x()))
        with pytest.raises(ValueError):
            geom_map("alpha").pull(CohClass.unit(model_s()))

    def test_unknown_map_lists_every_name(self):
        known = ["alpha", "beta", "lambda1", "lambda2", "mu1", "mu2", "nu",
                 "p:SxC", "p:SxSd", "p:XxC", "p:XxSd", "q:SxC", "q:SxSd", "q:XxC", "q:XxSd"]
        with pytest.raises(ValueError) as err:
            geom_map("nope")
        assert str(err.value) == f"unknown map 'nope'; known: {known}"
        for name in known:
            assert geom_map(name) is geom_map(name)


def _clear_model_caches():
    """Empty every memo that holds ring models or classes on them."""
    for mod in (intersect, mukai):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) == mod.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()


class TestColdMaps:
    def test_alpha_builds_no_product(self):
        _clear_model_caches()
        geom_map("alpha")
        assert intersect._product_model.cache_info().currsize == 0
        assert eta_square_solve.cache_info().currsize == 0

    def test_k3_universal_bundle_solves_no_eta_square(self):
        _clear_model_caches()
        universal_ch(s_times_sdual())
        assert eta_square_solve.cache_info().currsize == 0

    @pytest.mark.parametrize("model", [x_times_curve, s_times_sdual])
    def test_ansatz_solved_once_per_factor_pair(self, model, monkeypatch):
        # x_times_curve() solves eta^2 on the eta-free product first;
        # it and the solved eta model share one ansatz solve.
        calls = []
        solve = intersect._solve_linear
        monkeypatch.setattr(intersect, "_solve_linear", lambda rows: calls.append(1) or solve(rows))
        _clear_model_caches()
        universal_ch(model())
        assert len(calls) == 1


    def test_one_kunneth_table_and_one_character(self, monkeypatch):
        # A cold universal_ch(x_times_curve()) touches the eta-free product and
        # the eta^2 = 14 model; the factor tables are multiplied for the first only
        # (itertools.product drives that multiplication), and the character is
        # rebuilt from its Chern classes once.
        steps, rebuilt = [], []
        monkeypatch.setattr(intersect, "product",
                            lambda *args, **kw: steps.append(1) or product(*args, **kw))
        from_chern = CohClass.from_chern.__func__
        monkeypatch.setattr(CohClass, "from_chern", classmethod(
            lambda cls, *args: rebuilt.append(1) or from_chern(cls, *args)))
        _clear_model_caches()
        intersect._product_model(model_x(), model_curve(), None)
        one_table = len(steps)
        assert one_table > 0
        del steps[:]
        _clear_model_caches()
        universal_ch(x_times_curve())
        assert len(steps) == one_table
        assert len(rebuilt) == 1


@pytest.mark.parametrize("rows, message", [
    ([[1, 1, -2]], "underdetermined ansatz equations"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "inconsistent ansatz equations"),
    ([[1, 0, 0], [0, 0, 1]], "inconsistent ansatz equations"),
], ids=["plane", "no-kernel", "kernel-at-infinity"])
def test_solve_linear_errors(rows, message):
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        intersect._solve_linear(rows)


class TestBasisClass:
    @pytest.mark.parametrize("coeff", [1, 0, -7, 12, Q(3, 4), Q(6, 3), "5/10", "-2", True])
    def test_matches_the_general_constructor(self, coeff):
        for m in ALL_MODELS():
            for label in m.basis:
                if coeff is True:
                    # a boolean is no exact coefficient: both constructors refuse it alike
                    for build in (lambda: CohClass.basis_class(m, label, coeff),
                                  lambda: CohClass(m, {label: coeff})):
                        with pytest.raises(TypeError,
                                           match=r"^cannot build an exact coordinate from True$"):
                            build()
                    continue
                a = CohClass.basis_class(m, label, coeff)
                b = CohClass(m, {label: coeff})
                assert (a.num, a.den) == (b.num, b.den)
                assert a.coeffs == b.coeffs and a == b

    @pytest.mark.parametrize("coeff", [1, Q(1, 2), "3"])
    def test_unknown_label(self, coeff):
        with pytest.raises(ValueError, match=r"^unknown basis class 'Z' on X$"):
            CohClass.basis_class(model_x(), "Z", coeff)

    def test_malformed_coefficient(self):
        with pytest.raises(ValueError):
            CohClass.basis_class(model_x(), "H", "x")

    def test_text_coefficients_are_read_within_the_size_bound(self):
        # Fraction(str) has no size bound; every text coefficient goes through read_rational
        for build in (lambda: CohClass(model_x(), {"P": "1e300"}),
                      lambda: CohClass.basis_class(model_x(), "P", "1e300"),
                      lambda: CohClass.unit(model_x()).scale("1e300")):
            with pytest.raises(RationalSyntaxError, match=r"^exponent too large in '1e300'$"):
                build()
        assert CohClass.unit(model_x()).scale("3/4") == CohClass(model_x(), {"1": Q(3, 4)})


class TestChiErrors:
    def test_classes_on_two_models(self):
        X, C = model_x(), model_curve()
        with pytest.raises(ValueError, match=r"^model mismatch: X vs C$"):
            chi(X, CohClass.unit(X), CohClass.unit(C))
        with pytest.raises(ValueError, match=r"^model mismatch: C vs X$"):
            chi(C, CohClass.unit(C), CohClass.unit(X))

    def test_classes_off_the_stated_model(self):
        X, C = model_x(), model_curve()
        with pytest.raises(ValueError, match=r"^model mismatch: C vs X$"):
            chi(X, CohClass.unit(C), point_class(C))
        e0, e1 = x_times_curve(eta_square=0), x_times_curve(eta_square=1)
        with pytest.raises(ValueError, match=r"^model mismatch: XxC vs XxC$"):
            chi(e1, CohClass.unit(e0), CohClass.unit(e0))

    def test_mismatch_leaves_no_euler_form(self):
        intersect._pairing.cache_clear()
        with pytest.raises(ValueError, match=r"^model mismatch: X vs S$"):
            chi(model_s(), CohClass.unit(model_x()), CohClass.unit(model_x()))
        assert intersect._pairing.cache_info().currsize == 0


def test_pairing_form_is_a_cleared_memo():
    # built once per model and emptied with the other memos, so a cold op rebuilds it
    _clear_model_caches()
    X = model_x()
    for k in range(3):
        chi(X, CohClass.unit(X), exp_class(hyperplane(X).scale(k)))
    assert intersect._pairing.cache_info().currsize == 1
    _clear_model_caches()
    assert intersect._pairing.cache_info().currsize == 0


def test_chi_runs_no_ring_product(monkeypatch):
    models = ALL_MODELS()
    for m in models:
        todd(m)   # a product model's Todd class is a product: build it first
    classes = [CohClass.unit(m) + point_class(m) for m in models]
    calls = []
    mul = CohClass.__mul__
    monkeypatch.setattr(CohClass, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for m, a in zip(models, classes):
        chi(m, a, a)
    assert calls == []


def test_serialization_round_trip():
    prod = x_times_curve()
    cls = universal_ch(prod)
    data = cls.to_json()
    assert CohClass.from_json(prod, data) == cls
    assert all(isinstance(v, str) for v in data.values())


@pytest.mark.parametrize("data, error, message", [
    ({"pt": "\u0661"}, RationalSyntaxError, "not a rational number: '\u0661'"),
    ({"pt": "1/0"}, RationalSyntaxError, "zero denominator in '1/0'"),
    ({"pt": 0.5}, ClassSyntaxError, "coefficient of 'pt' is a float, not a rational number"),
    ({"pt": True}, ClassSyntaxError, "coefficient of 'pt' is a boolean, not a rational number"),
    (["pt"], ClassSyntaxError, "a JSON class must be an object mapping labels to rationals"),
], ids=["non-ascii-digit", "zero-denominator", "float", "boolean", "array"])
def test_from_json_rejects_inexact_values(data, error, message):
    with pytest.raises(error) as exc:
        CohClass.from_json(model_curve(), data)
    assert str(exc.value) == message


def test_from_json_takes_exact_numbers():
    assert CohClass.from_json(model_curve(), {"1": 2, "pt": Q(-1, 3)}) \
        == CohClass(model_curve(), {"1": 2, "pt": Q(-1, 3)})


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, True, False], ids=repr)
def test_constructor_and_scale_reject_floats_and_booleans(value):
    unit = CohClass.unit(model_x())
    for build in (lambda: CohClass(model_x(), {"P": value}), lambda: unit.scale(value),
                  lambda: value * unit, lambda: unit * value,
                  lambda: CohClass.basis_class(model_x(), "P", value)):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == f"cannot build an exact coordinate from {value!r}"


def test_constructor_and_scale_take_ints_fractions_and_text():
    X = model_x()
    tenth = CohClass(X, {"P": Q(1, 10)})
    assert CohClass(X, {"P": "0.1"}) == tenth == CohClass.basis_class(X, "P", "1/10")
    assert CohClass.basis_class(X, "P").scale("0.1") == tenth
    assert CohClass.basis_class(X, "P").scale(Q(1, 10)) == tenth
    assert CohClass(X, {"P": 3}) == 3 * CohClass.basis_class(X, "P") \
        == CohClass.basis_class(X, "P").scale(3)
