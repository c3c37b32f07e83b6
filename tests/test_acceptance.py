"""Acceptance gate: twelve criteria, exact arithmetic, zero tolerance.

Each test prints one pass line for the report; every expected value is
either pinned by an independent oracle in this repository or is a frozen
exact constant whose derivation lives in the module tests.
"""

from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import comb

from oracles import klimyk_tensor
from spinorcalc import bbw, intersect, mukai, sections
from spinorcalc.bbw import O, U, cohomology, hilbert, irreducible, make_bundle
from spinorcalc.intersect import CohClass, lift_left, lift_right
from spinorcalc.rootdata import Weight, tensor_decompose, weyl_dim


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_bbw_base_cases():
    assert cohomology(O(1)).dims() == {0: 16}
    assert cohomology(make_bundle("dual(U)")).dims() == {0: 10}
    for k in range(1, 8):
        assert cohomology(O(-k)).is_zero
    assert cohomology(O(-8)).dims() == {10: 1}
    _report("criterion 1", "BBW base cases 16/10/0/1 exact")


def test_criterion_02_degree():
    assert bbw.tenfold_degree() == 12
    _report("criterion 2", "10! x leading Hilbert coefficient = 12")


def test_criterion_03_exceptional_pair_tables():
    ext_u = sections.section_cohomology(make_bundle("dual(U)*U"), 7)
    ext_o = sections.section_cohomology(O(), 7)
    vanish = sections.section_cohomology(U(), 7)
    assert ext_u.exact and ext_u.table.dims() == {0: 1}
    assert ext_o.exact and ext_o.table.dims() == {0: 1}
    assert vanish.exact and vanish.table.is_zero
    _report("criterion 3", "Ext(U,U) = Ext(O,O) = C in degree 0; H(X,U) = 0")


def test_criterion_04_serre_twisted_tables():
    twisted = sections.section_cohomology(make_bundle("U*dual(U)(-1)"), 7)
    dual_tw = sections.section_cohomology(make_bundle("dual(U)(-1)"), 7)
    assert twisted.exact and twisted.table.dims() == {3: 1}
    assert dual_tw.exact and dual_tw.table.is_zero
    _report("criterion 4", "H(X, U x dual(U)(-1)) = {3:1}; H(X, dual(U)(-1)) = 0")


def test_criterion_05_splice_pipelines():
    plain, tensored = sections.pipeline("E1y(-H)"), sections.pipeline("E1y*dual(U)(-H)")
    assert plain.exact and plain.table.is_zero
    assert tensored.exact and tensored.table.is_zero
    double = sections.pipeline("E1y(-2H)")
    assert double.exact and double.table.dim(1) == 0
    h0 = sections.pipeline("E2y(-H)")
    assert h0.exact and h0.table.dim(0) == 0
    tensor_u = sections.pipeline("E1y*U(-H)")
    assert tensor_u.exact and tensor_u.table.is_zero
    adj = sections.pipeline("E1y*dual(U)(-2H)")
    assert adj.exact and adj.table.dims() == {3: 1}
    _report("criterion 5", "five splice pipelines exact: 0, 0 (deg 1), 0 (deg 0), 0, {3:1}")


def test_criterion_06_universal_chern_classes():
    prod = intersect.x_times_curve()
    X, C = prod.factors
    e1 = intersect.universal_ch(prod)
    c2 = e1.chern_classes()[1]
    expected = (lift_left(prod, intersect.hyperplane(X))
                * lift_right(prod, intersect.hyperplane(C))).scale(Q(7, 12)) \
        + lift_left(prod, CohClass.basis_class(X, "L", 5)) \
        + CohClass.basis_class(prod, intersect.ETA)
    assert c2 == expected
    assert e1.component(3) == CohClass(prod, {"P*1": Q(-1, 2)})

    prod2 = intersect.s_times_sdual()
    S, Sd = prod2.factors
    c2_2 = intersect.universal_ch(prod2).chern_classes()[1]
    expected2 = (lift_left(prod2, intersect.hyperplane(S))
                 * lift_right(prod2, intersect.hyperplane(Sd))).scale(Q(7, 12)) \
        + lift_left(prod2, CohClass.basis_class(S, "P", 5)) \
        + lift_right(prod2, CohClass.basis_class(Sd, "P", 5))
    assert c2_2 == expected2
    _report("criterion 6", "c2(E1), ch3(E1), c2(E2) exact rational equality")


def test_criterion_07_eta_square():
    value = intersect.eta_square_solve()
    assert abs(value) == 14
    sign = "+" if value > 0 else "-"
    _report("criterion 7", f"eta^2 = {value} (absolute value 14, sign {sign})")


def test_criterion_08_fiber_self_pairings():
    X, S = intersect.model_x(), intersect.model_s()
    assert intersect.chi(X, mukai.class_e1y(), mukai.class_e1y()) == 0
    assert intersect.chi(S, mukai.class_e2y(), mukai.class_e2y()) == 0
    _report("criterion 8", "chi_X(E1y,E1y) = 0 and chi_S(E2y,E2y) = 0")


def test_criterion_09_numerical_sod():
    X = intersect.model_x()
    C = intersect.model_curve()
    phi1 = mukai.kernel("phi1")
    coll = [
        ("U+", mukai.class_u_plus()),
        ("O_X", CohClass.unit(X)),
        ("Phi1(O_C)", mukai.transform(phi1, CohClass.unit(C))),
        ("Phi1(pt)", mukai.class_e1y()),
    ]
    report = mukai.gram(coll, X, blocks=(1, 1, 2))
    assert report.semiorthogonal
    assert report.exceptional[:2] == (True, True)
    rows = [[d.coefficient(l) for l in X.basis] for _, d in coll]
    assert mukai.matrix_rank(rows) == 4
    _report("criterion 9", "Gram block-upper-triangular, unit exceptional diagonal, rank 4")


def test_criterion_10_glued_kernel_vanishing():
    basis = mukai.orthogonal_complement_basis()
    assert len(basis) == 2
    assert all(mukai.commdiag_check(v) for v in basis)
    _report("criterion 10", "glued-kernel transform vanishes on the rank-2 orthogonal")


def test_criterion_11_conics():
    X = intersect.model_x()
    conic = mukai.class_o_conic()
    c1 = mukai.class_u_plus().chern_classes()[0]
    assert (c1 * conic).integrate() == -4
    assert intersect.chi(X, conic, CohClass.unit(X)) == 1
    assert intersect.chi(X, conic, mukai.class_u_plus()) == 1
    out = mukai.transform(mukai.kernel("phi1-shriek"), conic)
    assert out == CohClass.basis_class(intersect.model_curve(), "pt", 2)
    _report("criterion 11", "deg(U|R) = -4; chi(O_R,O) = chi(O_R,U) = 1; transform = 2 pt")


def _box_weights(maxentry: int) -> list[Weight]:
    return [Weight(c) for c in combinations_with_replacement(range(maxentry, -1, -1), 5)]


def test_criterion_12a_serre_duality_tenfold():
    for w in _box_weights(3):
        for shift in (0, -2, Q(1, 2), Q(-5, 2)):
            b = irreducible(w.shifted(shift))
            lhs = cohomology(b)
            rhs = cohomology(b.dual().twist(-8))
            assert lhs.dims() == {10 - d: n for d, n in rhs.entries}
    _report("criterion 12a", "tenfold Serre duality over the entries <= 3 sweep")


def test_criterion_12b_serre_duality_sections():
    bundles = []
    for expr in ("O", "U", "dual(U)", "dual(U)*U"):
        base = make_bundle(expr)
        bundles.extend(base.twist(k) for k in range(-9, 10))
    pairs = 0
    for b in bundles:
        lhs7 = sections.section_cohomology(b, 7)
        rhs7 = sections.section_cohomology(b.dual().twist(-1), 7)
        if lhs7.exact and rhs7.exact:
            assert lhs7.table.dims() == {3 - d: n for d, n in rhs7.table.entries}
            pairs += 1
        lhs8 = sections.section_cohomology(b, 8)
        rhs8 = sections.section_cohomology(b.dual(), 8)
        if lhs8.exact and rhs8.exact:
            assert lhs8.table.dims() == {2 - d: n for d, n in rhs8.table.entries}
            pairs += 1
    assert pairs >= 16  # the doubly-exact pairs cluster in the negative-twist window
    _report("criterion 12b", f"section Serre duality on {pairs} exact pairs, twists |k| <= 9")


def test_criterion_12c_adjunction():
    X, C = intersect.model_x(), intersect.model_curve()
    S, Sd = intersect.model_s(), intersect.model_sdual()
    phi1, shriek, left1 = mukai.kernel("phi1"), mukai.kernel("phi1-shriek"), mukai.kernel("phi1-left")
    for lb in C.basis:
        b = CohClass.basis_class(C, lb)
        for la in X.basis:
            a = CohClass.basis_class(X, la)
            assert intersect.chi(X, mukai.transform(phi1, b), a) \
                == intersect.chi(C, b, mukai.transform(shriek, a))
            assert intersect.chi(C, mukai.transform(left1, a), b) \
                == intersect.chi(X, a, mukai.transform(phi1, b))
    phi2, left2 = mukai.kernel("phi2"), mukai.kernel("phi2-left")
    for la in S.basis:
        a = CohClass.basis_class(S, la)
        for lb in Sd.basis:
            b = CohClass.basis_class(Sd, lb)
            assert intersect.chi(Sd, mukai.transform(left2, a), b) \
                == intersect.chi(S, a, mukai.transform(phi2, b))
    _report("criterion 12c", "adjunction identities exact over full bases")


def test_criterion_12d_tensor_sweeps():
    weights = _box_weights(3)
    for lam in weights:
        dim_lam = weyl_dim(lam, "GL5")
        for mu in weights:
            dec = tensor_decompose(lam, mu)
            assert sum(m * weyl_dim(w, "GL5") for w, m in dec) == dim_lam * weyl_dim(mu, "GL5")
            assert dict(dec) == klimyk_tensor(lam, mu)
    _report("criterion 12d",
            f"LR dimension conservation and Klimyk agreement on {len(weights)}^2 pairs")


def test_criterion_12e_euler_conservation():
    # the Euler characteristic is status-independent: it always matches the
    # Riemann-Roch polynomial of the section
    for k in range(-9, 10):
        assert sections.section_hilbert(7, k) == 2 * k ** 3 + 3 * k ** 2 + 3 * k + 1
        assert sections.section_hilbert(8, k) == 2 + 6 * k ** 2
        assert sections.section_hilbert(9, k) == 12 * k - 6
    statuses = {sections.section_cohomology(O(k), 9).status for k in range(-9, 10)}
    # a page whose differentials the chain cannot pin keeps its upper bounds,
    # with the Euler number of the Koszul resolution
    wide = irreducible(Weight((0, 0, -2, -2, -2)))
    res = sections.section_cohomology(wide, 6)
    assert res.status == "euler_only" and res.table.dims() == {3: 121, 4: 96}
    assert res.euler == -25 == sum((-1) ** p * comb(6, p) * hilbert(wide, -p) for p in range(7))
    assert statuses | {res.status} == {"exact", "euler_only"}  # the sweep crosses statuses
    _report("criterion 12e", "Euler conservation across spectral statuses, twists |k| <= 9")
