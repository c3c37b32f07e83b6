from fractions import Fraction as Q

import pytest

from spinorcalc.intersect import (
    CohClass,
    chi,
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
from spinorcalc import mukai
from spinorcalc.mukai import (
    _KERNELS,
    KERNELS,
    KernelSpec,
    OrthogonalityError,
    class_e1y,
    class_e2y,
    class_o_conic,
    class_u_plus,
    class_u_plus_dual,
    commdiag_check,
    gram,
    kernel,
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
        assert chi(X(), CohClass.unit(X()), CohClass.unit(X())) == 1

    def test_exceptional_pair(self):
        assert chi(X(), CohClass.unit(X()), class_u_plus()) == 0
        assert chi(X(), class_u_plus(), class_u_plus()) == 1
        assert chi(X(), class_u_plus(), CohClass.unit(X())) == 10

    def test_fiber_self_pairings(self):
        assert chi(X(), class_e1y(), class_e1y()) == 0
        assert chi(model_s(), class_e2y(), class_e2y()) == 0

    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            chi(X(), CohClass.unit(X()), CohClass.unit(model_s()))


class TestTransform:
    def test_point_goes_to_fiber_bundle(self):
        out = transform(kernel("phi1"), point_class(model_curve()))
        assert out.rank == 2
        c1, c2 = out.chern_classes()[:2]
        assert c1 == hyperplane(X())
        assert c2 == CohClass.basis_class(X(), "L", 5)

    def test_k3_point_goes_to_fiber_bundle(self):
        out = transform(kernel("phi2"), point_class(model_sdual()))
        assert out.rank == 2
        c1, c2 = out.chern_classes()[:2]
        assert c1 == hyperplane(model_s())
        assert c2 == CohClass.basis_class(model_s(), "P", 5)

    def test_conic_under_right_adjoint(self):
        out = transform(kernel("phi1-shriek"), class_o_conic())
        assert out == CohClass.basis_class(model_curve(), "pt", 2)

    def test_exceptional_classes_die_under_right_adjoint(self):
        assert transform(kernel("phi1-shriek"), CohClass.unit(X())).is_zero
        assert transform(kernel("phi1-shriek"), class_u_plus()).is_zero

    def test_zero_kernel(self):
        prod = x_times_curve()
        K = KernelSpec("zero", prod, "right", CohClass.zero(prod), 1)
        assert transform(K, point_class(model_curve())).is_zero

    @pytest.mark.parametrize("model, parity, message", [
        (model_x, 1, "kernel class must live on the product model"),
        (x_times_curve, 0, "shift parity must be +1 or -1"),
    ], ids=["model", "parity"])
    def test_kernel_spec_validation(self, model, parity, message):
        with pytest.raises(ValueError) as err:
            KernelSpec("bad", x_times_curve(), "right", CohClass.zero(model()), parity)
        assert str(err.value) == message

    def test_additive_in_class(self):
        K = kernel("phi1")
        a = CohClass.basis_class(model_curve(), "pt", 3)
        b = CohClass.unit(model_curve()).scale(2)
        assert transform(K, a + b) == transform(K, a) + transform(K, b)

    def test_additive_in_kernel(self):
        prod = x_times_curve()
        k1 = kernel("phi1")
        k2 = KernelSpec("twice", prod, "right", k1.kernel_ch + k1.kernel_ch, 1)
        pt = point_class(model_curve())
        assert transform(k2, pt) == transform(k1, pt).scale(2)

    def test_source_check(self):
        with pytest.raises(ValueError):
            transform(kernel("phi1"), CohClass.unit(X()))

    def test_source_error_text(self):
        with pytest.raises(ValueError, match=r"^class lives on C, kernel source is X$"):
            transform(kernel("phi1-left"), CohClass.unit(model_curve()))
        with pytest.raises(ValueError, match=r"^class lives on X, kernel source is C$"):
            transform(kernel("phi1"), CohClass.unit(X()))

    def test_transform_runs_no_product_on_the_product_model(self, monkeypatch):
        K, pt = kernel("phi1"), point_class(model_curve())
        models = []
        mul = CohClass.__mul__
        monkeypatch.setattr(CohClass, "__mul__",
                            lambda a, b: models.append(a.model) or mul(a, b))
        transform(K, pt)
        assert K.product not in models


class TestKernelTable:
    def test_public_kernels(self):
        assert KERNELS == ("phi1", "phi1-left", "phi1-shriek", "phi2", "phi2-left", "E-tilde")

    @pytest.mark.parametrize("name", list(_KERNELS))
    def test_each_row_is_built_once_and_rebuilt_equal(self, name):
        K = kernel(name)
        assert kernel(name) is K
        assert K.name == name
        assert K.kernel_ch.model is K.product
        kernel.cache_clear()
        rebuilt = kernel(name)
        assert rebuilt is not K
        assert rebuilt == K
        assert rebuilt.rows == K.rows

    def test_unknown_kernel_names_the_rows(self):
        with pytest.raises(ValueError) as err:
            kernel("bogus")
        assert str(err.value) == (
            "unknown kernel 'bogus'; known: ['phi1', 'phi1-left', 'phi1-shriek', 'phi2', "
            "'phi2-left', 'E-tilde', 'u-piece-sub', 'u-piece-quotient-dual']")

    @pytest.mark.parametrize("point_bundle, label",
                             [(class_e1y, "E1y"), (class_e2y, "E2y")])
    def test_a_point_image_of_the_wrong_rank_raises(self, monkeypatch, point_bundle, label):
        monkeypatch.setattr(mukai, "transform", lambda K, a: CohClass.zero(K.target))
        with pytest.raises(ValueError, match=rf"^{label} has rank 0, not 2$"):
            point_bundle.__wrapped__()


class TestAdjunction:
    def test_phi1_right_adjoint(self):
        phi1, shriek = kernel("phi1"), kernel("phi1-shriek")
        C = model_curve()
        for lb in C.basis:
            b = CohClass.basis_class(C, lb)
            for la in X().basis:
                a = CohClass.basis_class(X(), la)
                assert chi(X(), transform(phi1, b), a) \
                    == chi(C, b, transform(shriek, a))

    def test_phi1_left_adjoint(self):
        phi1, left = kernel("phi1"), kernel("phi1-left")
        C = model_curve()
        for la in X().basis:
            a = CohClass.basis_class(X(), la)
            for lb in C.basis:
                b = CohClass.basis_class(C, lb)
                assert chi(C, transform(left, a), b) \
                    == chi(X(), a, transform(phi1, b))

    def test_phi2_left_adjoint(self):
        phi2, left = kernel("phi2"), kernel("phi2-left")
        S, Sd = model_s(), model_sdual()
        for la in S.basis:
            a = CohClass.basis_class(S, la)
            for lb in Sd.basis:
                b = CohClass.basis_class(Sd, lb)
                assert chi(Sd, transform(left, a), b) \
                    == chi(S, a, transform(phi2, b))

    def test_numerical_faithfulness(self):
        # pairings of transformed classes reproduce the curve pairings
        phi1 = kernel("phi1")
        C = model_curve()
        for la in C.basis:
            for lb in C.basis:
                a, b = CohClass.basis_class(C, la), CohClass.basis_class(C, lb)
                assert chi(X(), transform(phi1, a), transform(phi1, b)) \
                    == chi(C, a, b)


class TestGram:
    def test_exceptional_pair_matrix(self):
        report = gram([("U+", class_u_plus()), ("O_X", CohClass.unit(X()))], X())
        assert report.matrix == ((1, 10), (0, 1))
        assert report.exceptional == (True, True)
        assert report.semiorthogonal

    def test_mutated_pair(self):
        mutated = mutate(class_u_plus(), CohClass.unit(X()), X())
        report = gram([("O_X", CohClass.unit(X())), ("dual(U)", mutated)], X())
        assert report.matrix == ((1, 10), (0, 1))
        assert report.semiorthogonal and all(report.exceptional)

    def test_four_block_collection(self):
        phi1 = kernel("phi1")
        C = model_curve()
        coll = [
            ("U+", class_u_plus()),
            ("O_X", CohClass.unit(X())),
            ("Phi1(O_C)", transform(phi1, CohClass.unit(C))),
            ("Phi1(pt)", class_e1y()),
        ]
        report = gram(coll, X(), blocks=(1, 1, 2))
        assert report.semiorthogonal
        assert report.exceptional[:2] == (True, True)
        # transforms pair into the moduli pairings inside the block
        assert report.matrix[2][2] == -6 and report.matrix[2][3] == 1
        assert report.matrix[3][2] == -1 and report.matrix[3][3] == 0
        rows = [[d.coefficient(l) for l in X().basis] for _, d in coll]
        assert matrix_rank(rows) == 4

    def test_block_validation(self):
        with pytest.raises(ValueError):
            gram([("O", CohClass.unit(X()))], X(), blocks=(2,))

    @pytest.mark.parametrize("blocks", [(3, -1), (0, 2), (2, 0)])
    def test_nonpositive_block_sizes(self, blocks):
        # (3, -1) sums to the length but would put both classes in one block,
        # hiding the backward pairing chi(U, O) that makes this order fail
        coll = [("O", CohClass.unit(X())), ("U", class_u_plus())]
        with pytest.raises(ValueError, match="block sizes must be positive"):
            gram(coll, X(), blocks=blocks)
        assert not gram(coll, X()).semiorthogonal


class TestMutate:
    def test_orthogonal_returns_sign(self):
        # Phi1(pt) is orthogonal to O in both directions of the pairing used
        a = class_e1y()
        out = mutate(a, CohClass.unit(X()), X())
        assert out == -1 * a

    def test_right_mutation_through_structure_sheaf(self):
        out = mutate(class_u_plus(), CohClass.unit(X()), X())
        assert out == class_u_plus_dual()
        assert out.rank == 5

    def test_non_integral_rank(self):
        # chi(P/2, O) = 1/2, so the reflection of P/2 through O has rank 1/2
        with pytest.raises(ArithmeticError, match="mutation produced a non-integral rank"):
            mutate(CohClass(X(), {"P": Q(1, 2)}), CohClass.unit(X()), X())

    def test_double_mutation_on_orthogonal(self):
        a = class_e1y()
        twice = mutate(mutate(a, CohClass.unit(X()), X()), CohClass.unit(X()), X())
        assert twice == a


class TestCommdiag:
    def test_precondition_error(self):
        with pytest.raises(OrthogonalityError):
            commdiag_check(CohClass.unit(X()))

    def test_orthogonal_basis_passes(self):
        basis = orthogonal_complement_basis()
        assert len(basis) == 2
        assert all(commdiag_check(v) for v in basis)

    def test_transform_images_pass(self):
        assert commdiag_check(class_e1y())
        phi1 = kernel("phi1")
        img = transform(phi1, CohClass.unit(model_curve()))
        assert img.rank == 0
        assert commdiag_check(img)

    def test_rational_combinations_pass(self):
        b1, b2 = orthogonal_complement_basis()
        combo = b1.scale(Q(3, 7)) - b2.scale(Q(5, 2))
        rank = combo.coefficient("1")
        scaled = combo.scale(rank.denominator) if rank.denominator != 1 else combo
        assert commdiag_check(scaled)

    def test_e_tilde_does_not_kill_structure_sheaf(self):
        # the glued kernel is nonzero on classes outside the orthogonal
        out = transform(kernel("E-tilde"), CohClass.unit(X()))
        assert not out.is_zero


class TestLattice:
    def test_k3_transform_invertible(self):
        mat = transform_matrix(kernel("phi2"))
        assert matrix_rank(mat) == len(mat) == 3

    def test_conic_pairings(self):
        conic = class_o_conic()
        assert chi(X(), conic, CohClass.unit(X())) == 1
        assert chi(X(), conic, class_u_plus()) == 1
        # chi(X, O_R) = 1 for a rational curve
        assert chi(X(), CohClass.unit(X()), conic) == 1

    def test_conic_class_derivation(self):
        # degree 2 against the hyperplane and arithmetic genus zero
        conic = class_o_conic()
        assert (hyperplane(X()) * conic).integrate() == 2
        assert conic.component(3).is_zero


class TestNamedClasses:
    def test_lookup(self):
        assert named_class("O_R") == CohClass.basis_class(model_x(), "L", 2)
        assert named_class("E1y") == class_e1y()
        with pytest.raises(ValueError):
            named_class("nonsense")
        with pytest.raises(ValueError):
            named_class("E1y", model_curve())

    def test_e2y_values(self):
        e2y = class_e2y()
        assert e2y.rank == 2
        assert e2y == CohClass(model_s(), {"1": 2, "H": 1, "P": 1})

    def test_universal_models(self):
        assert universal_ch(x_times_curve()).model is x_times_curve()
        assert universal_ch(s_times_sdual()).model is s_times_sdual()
