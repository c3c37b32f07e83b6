from fractions import Fraction as Q

import pytest

from spinorcalc.intersect import (
    ChernData,
    CohClass,
    hyperplane,
    model_curve,
    model_s,
    model_sdual,
    model_x,
    point_class,
    s_times_sdual,
    universal_ch,
    x_times_curve,
)
from spinorcalc.mukai import (
    KernelSpec,
    OrthogonalityError,
    class_e1y,
    class_e2y,
    class_o,
    class_o_conic,
    class_point,
    class_u_plus,
    class_u_plus_dual,
    commdiag_check,
    euler,
    gram,
    kernel_e_tilde,
    kernel_phi1,
    kernel_phi1_left,
    kernel_phi1_shriek,
    kernel_phi2,
    kernel_phi2_left,
    matrix_rank,
    mutate,
    named_class,
    orthogonal_complement_basis,
    transform,
    transform_matrix,
)


def X():
    return model_x()


class TestEuler:
    def test_structure_sheaf(self):
        assert euler(X(), class_o(X()), class_o(X())) == 1

    def test_exceptional_pair(self):
        assert euler(X(), class_o(X()), class_u_plus()) == 0
        assert euler(X(), class_u_plus(), class_u_plus()) == 1
        assert euler(X(), class_u_plus(), class_o(X())) == 10

    def test_fiber_self_pairings(self):
        assert euler(X(), class_e1y(), class_e1y()) == 0
        assert euler(model_s(), class_e2y(), class_e2y()) == 0

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            euler(X(), class_o(X()), class_o(model_s()))


class TestTransform:
    def test_point_goes_to_fiber_bundle(self):
        out = transform(kernel_phi1(), class_point(model_curve()))
        data = ChernData(2, out)
        c1, c2 = data.chern_classes()[:2]
        assert c1 == hyperplane(X())
        assert c2 == CohClass.basis_class(X(), "L", 5)

    def test_k3_point_goes_to_fiber_bundle(self):
        out = transform(kernel_phi2(), class_point(model_sdual()))
        data = ChernData(2, out)
        c1, c2 = data.chern_classes()[:2]
        assert c1 == hyperplane(model_s())
        assert c2 == CohClass.basis_class(model_s(), "P", 5)

    def test_conic_under_right_adjoint(self):
        out = transform(kernel_phi1_shriek(), class_o_conic())
        assert out == CohClass.basis_class(model_curve(), "pt", 2)

    def test_exceptional_classes_die_under_right_adjoint(self):
        assert transform(kernel_phi1_shriek(), class_o(X())).is_zero
        assert transform(kernel_phi1_shriek(), class_u_plus()).is_zero

    def test_zero_kernel(self):
        prod = x_times_curve()
        K = KernelSpec("zero", prod, "right", CohClass.zero(prod), 1)
        assert transform(K, class_point(model_curve())).is_zero

    def test_additive_in_class(self):
        K = kernel_phi1()
        a = CohClass.basis_class(model_curve(), "pt", 3)
        b = CohClass.unit(model_curve()).scale(2)
        assert transform(K, a + b) == transform(K, a) + transform(K, b)

    def test_additive_in_kernel(self):
        prod = x_times_curve()
        k1 = kernel_phi1()
        k2 = KernelSpec("twice", prod, "right", k1.kernel_ch + k1.kernel_ch, 1)
        pt = class_point(model_curve())
        assert transform(k2, pt) == transform(k1, pt).scale(2)

    def test_source_check(self):
        with pytest.raises(ValueError):
            transform(kernel_phi1(), class_o(X()))


class TestAdjunction:
    def test_phi1_right_adjoint(self):
        phi1, shriek = kernel_phi1(), kernel_phi1_shriek()
        C = model_curve()
        for lb in C.basis:
            b = CohClass.basis_class(C, lb)
            for la in X().basis:
                a = CohClass.basis_class(X(), la)
                assert euler(X(), transform(phi1, b), a) \
                    == euler(C, b, transform(shriek, a))

    def test_phi1_left_adjoint(self):
        phi1, left = kernel_phi1(), kernel_phi1_left()
        C = model_curve()
        for la in X().basis:
            a = CohClass.basis_class(X(), la)
            for lb in C.basis:
                b = CohClass.basis_class(C, lb)
                assert euler(C, transform(left, a), b) \
                    == euler(X(), a, transform(phi1, b))

    def test_phi2_left_adjoint(self):
        phi2, left = kernel_phi2(), kernel_phi2_left()
        S, Sd = model_s(), model_sdual()
        for la in S.basis:
            a = CohClass.basis_class(S, la)
            for lb in Sd.basis:
                b = CohClass.basis_class(Sd, lb)
                assert euler(Sd, transform(left, a), b) \
                    == euler(S, a, transform(phi2, b))

    def test_numerical_faithfulness(self):
        # pairings of transformed classes reproduce the curve pairings
        phi1 = kernel_phi1()
        C = model_curve()
        for la in C.basis:
            for lb in C.basis:
                a, b = CohClass.basis_class(C, la), CohClass.basis_class(C, lb)
                assert euler(X(), transform(phi1, a), transform(phi1, b)) \
                    == euler(C, a, b)


class TestGram:
    def test_exceptional_pair_matrix(self):
        report = gram([("U+", class_u_plus()), ("O_X", class_o(X()))], X())
        assert report.matrix == ((1, 10), (0, 1))
        assert report.exceptional == (True, True)
        assert report.semiorthogonal

    def test_mutated_pair(self):
        mutated = mutate(class_u_plus(), class_o(X()), X(), "right")
        report = gram([("O_X", class_o(X())), ("dual(U)", mutated)], X())
        assert report.matrix == ((1, 10), (0, 1))
        assert report.semiorthogonal and all(report.exceptional)

    def test_four_block_collection(self):
        phi1 = kernel_phi1()
        C = model_curve()
        coll = [
            ("U+", class_u_plus()),
            ("O_X", class_o(X())),
            ("Phi1(O_C)", ChernData(0, transform(phi1, class_o(C)))),
            ("Phi1(pt)", class_e1y()),
        ]
        report = gram(coll, X(), blocks=(1, 1, 2))
        assert report.semiorthogonal
        assert report.exceptional[:2] == (True, True)
        # transforms pair into the moduli pairings inside the block
        assert report.matrix[2][2] == -6 and report.matrix[2][3] == 1
        assert report.matrix[3][2] == -1 and report.matrix[3][3] == 0
        rows = [[d.ch.coefficient(l) for l in X().basis] for _, d in coll]
        assert matrix_rank(rows) == 4

    def test_block_validation(self):
        with pytest.raises(ValueError):
            gram([("O", class_o(X()))], X(), blocks=(2,))


class TestMutate:
    def test_orthogonal_returns_sign(self):
        # Phi1(pt) is orthogonal to O in both directions of the pairing used
        a = class_e1y()
        out = mutate(a, class_o(X()), X(), "right")
        assert out.ch == -1 * a.ch

    def test_right_mutation_through_structure_sheaf(self):
        out = mutate(class_u_plus(), class_o(X()), X(), "right")
        assert out.ch == class_u_plus_dual().ch
        assert out.rank == 5

    def test_double_mutation_on_orthogonal(self):
        a = class_e1y()
        twice = mutate(mutate(a, class_o(X()), X(), "right"), class_o(X()), X(), "right")
        assert twice.ch == a.ch


class TestCommdiag:
    def test_precondition_error(self):
        with pytest.raises(OrthogonalityError):
            commdiag_check(class_o(X()))

    def test_orthogonal_basis_passes(self):
        basis = orthogonal_complement_basis()
        assert len(basis) == 2
        assert all(commdiag_check(v) for v in basis)

    def test_transform_images_pass(self):
        assert commdiag_check(class_e1y())
        phi1 = kernel_phi1()
        img = ChernData(0, transform(phi1, CohClass.unit(model_curve())))
        assert commdiag_check(img)

    def test_rational_combinations_pass(self):
        b1, b2 = orthogonal_complement_basis()
        combo = b1.ch.scale(Q(3, 7)) - b2.ch.scale(Q(5, 2))
        rank = combo.coefficient("1")
        scaled = combo.scale(rank.denominator) if rank.denominator != 1 else combo
        assert commdiag_check(ChernData(int(scaled.coefficient("1")), scaled))

    def test_e_tilde_does_not_kill_structure_sheaf(self):
        # the glued kernel is nonzero on classes outside the orthogonal
        out = transform(kernel_e_tilde(), CohClass.unit(X()))
        assert not out.is_zero


class TestLattice:
    def test_k3_transform_invertible(self):
        mat = transform_matrix(kernel_phi2())
        assert matrix_rank(mat) == len(mat) == 3

    def test_conic_pairings(self):
        conic = class_o_conic()
        assert euler(X(), conic, class_o(X())) == 1
        assert euler(X(), conic, class_u_plus()) == 1
        # chi(X, O_R) = 1 for a rational curve
        assert euler(X(), class_o(X()), conic) == 1

    def test_conic_class_derivation(self):
        # degree 2 against the hyperplane and arithmetic genus zero
        conic = class_o_conic()
        assert (hyperplane(X()) * conic.ch).integrate() == 2
        assert conic.ch.component(3).is_zero


class TestNamedClasses:
    def test_lookup(self):
        assert named_class("O_R").ch == CohClass.basis_class(model_x(), "L", 2)
        assert named_class("E1y").ch == class_e1y().ch
        with pytest.raises(ValueError):
            named_class("nonsense")
        with pytest.raises(ValueError):
            named_class("E1y", model_curve())

    def test_e2y_values(self):
        data = class_e2y()
        assert data.rank == 2
        assert data.ch == CohClass(model_s(), {"1": 2, "H": 1, "P": 1})

    def test_universal_models(self):
        assert universal_ch("XxC").model is x_times_curve()
        assert universal_ch("SxS").model is s_times_sdual()
