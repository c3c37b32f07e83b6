from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import regularize_oracle, weyl_dim_oracle
from test_koszul_columns import bundle_exprs
from spinorcalc import bbw
from spinorcalc.bbw import (
    DIM,
    MAX_FACTORS,
    MAX_NESTING,
    MAX_TWIST,
    BundleExprError,
    CohomologyTable,
    HomogBundle,
    O,
    U,
    cohomology,
    hilbert,
    irreducible,
    make_bundle,
    parse_bundle_expr,
    tenfold_degree,
)
from spinorcalc.rootdata import RHO, Weight, bbw_regularize, weyl_dim


def sweep_bundles() -> list[HomogBundle]:
    out = []
    for c in combinations_with_replacement(range(2, -3, -1), 5):
        if all(c[i] >= c[i + 1] for i in range(4)):
            out.append(irreducible(Weight(c)))
            out.append(irreducible(Weight(tuple(Q(2 * x + 1, 2) for x in c))))
    return out


class TestConstructors:
    def test_dual_u_encoding(self):
        b = make_bundle("dual(U)")
        assert b.rank == 5
        assert b.summands == ((Weight((1, 0, 0, 0, 0)), 1),)

    def test_adjoint_bundle(self):
        b = make_bundle("dual(U)*U")
        assert b.rank == 25
        assert dict(b.summands) == {Weight((1, 0, 0, 0, -1)): 1, Weight((0,) * 5): 1}

    def test_twist_additivity(self):
        b = make_bundle("O(-1)*O(3)")
        assert b.rank == 1
        assert b.summands == ((Weight((1, 1, 1, 1, 1)), 1),)

    def test_det_of_tautological(self):
        # det U = O(-2): the summand weights of U sum to -1 per unit of rank/5
        u = U()
        assert u.rank == 5
        assert u.summands[0][0].total() == -1

    def test_rank_multiplicative(self):
        for a, b in [(O(1), U()), (U(), U()), (make_bundle("dual(U)"), U())]:
            assert (a * b).rank == a.rank * b.rank

    def test_dual_involution(self):
        for b in [U(), make_bundle("dual(U)*U(-1)"), O(3)]:
            assert b.dual().dual() == b

    def test_twist_dual_commutation(self):
        b = U()
        assert b.twist(2).dual() == b.dual().twist(-2)

    def test_the_zero_bundle_has_one_form(self):
        zero = HomogBundle(())
        for b in (zero.twist(3), zero * O(2), O(2) * zero, zero.twist(-1).dual(),
                  zero.dual().twist(5), (U() * zero).twist(1)):
            assert b == zero and hash(b) == hash(zero) and b._shift == 0
            assert b.summands == () and b.rank == 0


class TestParser:
    def test_tensor_tree(self):
        assert parse_bundle_expr("dual(U)*U(-1)") == (
            "tensor", ("dual", ("atom", "U")), ("twist", ("atom", "U"), -1))

    def test_twist_tree(self):
        assert parse_bundle_expr("O(-8)") == ("twist", ("atom", "O"), -8)

    def test_error_position(self):
        with pytest.raises(BundleExprError) as err:
            parse_bundle_expr("dual(")
        assert err.value.position == 5

    def test_unknown_atom(self):
        with pytest.raises(BundleExprError) as err:
            parse_bundle_expr("Q")
        assert err.value.position == 0

    def test_trailing_garbage(self):
        with pytest.raises(BundleExprError):
            parse_bundle_expr("O(1))")

    def test_make_bundle_takes_text_or_a_bundle(self):
        assert make_bundle(U()) == make_bundle("U")
        with pytest.raises(TypeError) as err:
            make_bundle(parse_bundle_expr("U"))
        assert str(err.value) == "a bundle is built from text or a HomogBundle, got ('atom', 'U')"

    def test_whitespace_insensitive(self):
        assert make_bundle(" dual( U ) * U ( -1 ) ") == make_bundle("dual(U)*U(-1)")

    def test_size_bounds(self):
        deepest = make_bundle("dual(" * MAX_NESTING + "U" + ")" * MAX_NESTING)
        assert deepest == (U().dual() if MAX_NESTING % 2 else U())
        assert make_bundle("*".join(["O"] * MAX_FACTORS)) == O()
        with pytest.raises(BundleExprError, match="nested"):
            parse_bundle_expr("dual(" * (MAX_NESTING + 1) + "U" + ")" * (MAX_NESTING + 1))
        with pytest.raises(BundleExprError, match="factors"):
            parse_bundle_expr("*".join(["O"] * (MAX_FACTORS + 1)))
        assert parse_bundle_expr(f"O(-{MAX_TWIST})") == ("twist", ("atom", "O"), -MAX_TWIST)
        assert parse_bundle_expr(f"U(+00{MAX_TWIST})") == ("twist", ("atom", "U"), MAX_TWIST)
        for twist in (MAX_TWIST + 1, -MAX_TWIST - 1, "9" * 5000):
            with pytest.raises(BundleExprError, match=r"twist outside .* at offset 2"):
                parse_bundle_expr(f"O({twist})")

    def test_dual_of_twist(self):
        assert make_bundle("dual(U(1))") == make_bundle("dual(U)(-1)")


class TestCohomology:
    def test_structure_sheaf(self):
        assert cohomology(O()).dims() == {0: 1}

    def test_ample_generator(self):
        assert cohomology(O(1)).dims() == {0: 16}

    def test_negative_twists(self):
        for k in range(1, 8):
            assert cohomology(O(-k)).is_zero
        assert cohomology(O(-8)).dims() == {10: 1}

    def test_dual_tautological(self):
        assert cohomology(make_bundle("dual(U)")).dims() == {0: 10}
        assert cohomology(U()).is_zero

    def test_irreducible_concentration(self):
        for b in sweep_bundles():
            assert len(cohomology(b).entries) <= 1

    def test_serre_duality_sweep(self):
        for b in sweep_bundles():
            lhs = cohomology(b)
            rhs = cohomology(b.dual().twist(-8))
            assert lhs.dims() == {DIM - d: n for d, n in rhs.entries}

    def test_euler_is_hilbert_at_zero(self):
        for b in sweep_bundles()[::7]:
            assert cohomology(b).euler == hilbert(b, 0)


class TestHilbert:
    def test_base_values(self):
        assert hilbert(O(), 0) == 1
        assert hilbert(O(), 1) == 16

    def test_degree(self):
        assert tenfold_degree() == 12

    def test_polynomiality(self):
        # 11th finite difference of a degree <= 10 polynomial vanishes
        from math import comb
        for base in (O(), U(), make_bundle("dual(U)*U")):
            for start in (-6, -2, 0):
                acc = 0
                for j in range(12):
                    acc += (-1) ** (11 - j) * comb(11, j) * hilbert(base, start + j)
                assert acc == 0


def test_table_invariants():
    t = CohomologyTable.from_dict({0: 1, 3: 2})
    assert t.euler == 1 - 2
    assert t + t == CohomologyTable.from_dict({0: 2, 3: 4})
    assert t.scaled(3).dims() == {0: 3, 3: 6}
    with pytest.raises(ValueError):
        CohomologyTable.from_dict({-1: 1})
    with pytest.raises(ValueError):
        CohomologyTable.from_dict({0: -1})


def test_homog_bundle_validation():
    zero, vector = Weight((0,) * 5), Weight((1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="not GL5-dominant"):
        HomogBundle(((Weight((0, 1, 0, 0, 0)), 1),))
    with pytest.raises(ValueError, match="negative multiplicity"):
        HomogBundle(((zero, -1),))
    merged = HomogBundle(((zero, 1), (vector, 2), (zero, 2)))
    assert merged.summands == ((vector, 2), (zero, 3))
    assert HomogBundle(((zero, 0), (vector, 1), (vector, -1))).summands == ()
    assert HomogBundle(((zero, 2), (vector, 0))).summands == ((zero, 2),)
    # each multiplicity is checked before merging: two halves would merge to Fraction 1
    for summands in [((vector, m),) for m in (1.5, Q(1, 2), Q(2), True, "1")] + [
            ((vector, Q(1, 2)), (vector, Q(1, 2)))]:
        with pytest.raises(TypeError) as exc:
            HomogBundle(summands)
        assert str(exc.value) == f"a summand multiplicity must be an int, got {summands[0][1]!r}"
    # a weight is a Weight, not its coordinates or their text
    for w in ((1, 0, 0, 0, 0), "1,0,0,0,0", vector.twice):
        with pytest.raises(TypeError) as exc:
            HomogBundle(((w, 1),))
        assert str(exc.value) == f"a summand weight must be a Weight, got {w!r}"


@settings(max_examples=40, deadline=None)
@given(bundle_exprs(), bundle_exprs())
def test_grammar_rank_multiplicative(left, right):
    assert make_bundle(f"{left}*{right}").rank == make_bundle(left).rank * make_bundle(right).rank


@settings(max_examples=40, deadline=None)
@given(bundle_exprs())
def test_grammar_dual_keeps_rank(expr):
    assert make_bundle(f"dual({expr})").rank == make_bundle(expr).rank


@settings(max_examples=40, deadline=None)
@given(bundle_exprs())
def test_grammar_serre_duality(expr):
    # K = O(-8) on the spinor tenfold: H^d(b) is dual to H^(10-d)(dual(b)(-8))
    b = make_bundle(expr)
    dual_twisted = make_bundle(f"dual({expr})(-8)")
    assert dual_twisted == b.dual().twist(-8)
    assert cohomology(b).dims() == {DIM - d: n for d, n in cohomology(dual_twisted).entries}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.lists(st.integers(-12, 12), min_size=5, max_size=5))
@example(0, [-1, 0, 0, 0, 0])     # lam + rho = (3, 3, 2, 1, 0) is singular
@example(1, [-3, -3, -3, -3, -1])  # lam + rho = (3/2, 1/2, -1/2, -3/2, -1/2) too
@example(0, [-4, -4, -4, -4, -4])  # O(-8): all ten roots flip, onto rho
def test_summand_cohomology_matches_the_oracles(parity, coords):
    # the int kernels behind one memo entry against the Weyl-group search and the
    # Fraction product over the listed roots, for weights of both parities
    twice = tuple(2 * c + parity for c in coords)
    lam = Weight(tuple(Q(t, 2) for t in twice))
    ref = regularize_oracle(lam)
    got = bbw._irreducible_cohomology.__wrapped__(twice)
    assert bbw_regularize(lam) == ref
    if ref is None:
        assert got is None
    else:
        length, dom = ref
        assert got == (length, weyl_dim_oracle(dom - RHO, "D5"))
        assert weyl_dim(dom - RHO, "D5") == got[1]
    top = Weight._unchecked(tuple(sorted(twice, reverse=True)))
    assert weyl_dim(top, "GL5") == weyl_dim_oracle(top, "GL5")
