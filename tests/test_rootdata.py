import functools
import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import horizontal_strips, klimyk_tensor, orbit_size_d5, regularize_oracle
from spinorcalc import rootdata
from spinorcalc.rootdata import (
    RHO,
    SPINOR,
    VECTOR,
    RationalSyntaxError,
    Weight,
    WeightSyntaxError,
    bbw_regularize,
    is_dominant,
    tensor_decompose,
    weyl_dim,
)


def box_shapes(maxentry: int) -> list[tuple[int, ...]]:
    return list(combinations_with_replacement(range(maxentry, -1, -1), 5))


def box_partitions(maxentry: int) -> list[Weight]:
    return [Weight(c) for c in box_shapes(maxentry)]


class TestWeight:
    def test_parity_validation(self):
        Weight((1, 0, 0, 0, -2))
        Weight((Q(1, 2),) * 5)
        with pytest.raises(ValueError):
            Weight((Q(1, 2), 0, 0, 0, 0))
        with pytest.raises(ValueError):
            Weight((Q(1, 3), 0, 0, 0, 0))
        with pytest.raises(ValueError):
            Weight((1, 0, 0, 0))

    def test_text_round_trip(self):
        w = Weight.from_text("1/2,1/2,1/2,1/2,-1/2")
        assert w == Weight((Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(-1, 2)))
        assert Weight.from_text(str(w)) == w

    SAMPLES = [
        Weight((3, 1, 0, -1, -2)),
        Weight((0,) * 5),
        SPINOR,
        Weight((Q(-1, 2), Q(-1, 2), Q(-3, 2), Q(-3, 2), Q(-7, 2))),
        Weight((Q(9, 2), Q(1, 2), Q(-1, 2), Q(-5, 2), Q(-11, 2))),
    ]

    def test_text_and_coords_round_trip(self):
        for w in self.SAMPLES:
            assert Weight.from_text(str(w)) == w
            assert Weight(w.coords) == w

    def test_coordinates_are_exact_fractions(self):
        w = Weight((Q(3, 2), Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-3, 2)))
        assert w.coords == (Q(3, 2), Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-3, 2))
        assert all(type(c) is Q for c in Weight((2, 1, 0, 0, -1)).coords)
        assert list(w) == list(w.coords)
        assert w[0] == Q(3, 2) and w[4] == Q(-3, 2)
        assert w.total() == Q(-1, 2)

    def test_input_kinds_agree(self):
        for forms in [
            [(2, 1, 0, 0, -1), (Q(2), Q(1), Q(0), Q(0), Q(-1)), ("2", "1", "0", "0", "-1"),
             (Q(4, 2), "1", 0, Q(0), "-2/2")],
            [(Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-3, 2), Q(-3, 2)),
             ("1/2", "-1/2", "-1/2", "-3/2", "-3/2"),
             (Q(1, 2), "-1/2", Q(-2, 4), "-3/2", Q(-3, 2))],
        ]:
            weights = [Weight(f) for f in forms]
            assert all(w == weights[0] for w in weights)
            assert len({hash(w) for w in weights}) == 1
            assert len(set(weights)) == 1

    def test_negative_half_integer_text(self):
        assert str(Weight((Q(-1, 2),) * 5)) == "-1/2,-1/2,-1/2,-1/2,-1/2"
        w = Weight((Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-3, 2), Q(-3, 2)))
        assert str(w) == "1/2,-1/2,-1/2,-3/2,-3/2"
        assert str(Weight((2, 0, 0, -1, -3))) == "2,0,0,-1,-3"

    @pytest.mark.parametrize("coords, message", [
        (("1/3", 0, 0, 0, 0), "coordinates must be integers or half-integers: 1/3,0,0,0,0"),
        ((Q(-7, 4), 1, 2, "3", Q(5, 2)),
         "coordinates must be integers or half-integers: -7/4,1,2,3,5/2"),
        ((Q(1, 2), 0, 0, 0, 0), "mixed integer/half-integer coordinates: 1/2,0,0,0,0"),
        ((1, Q(4, 2), "3/2", Q(-1, 2), 0), "mixed integer/half-integer coordinates: 1,2,3/2,-1/2,0"),
    ], ids=["lattice", "lattice-mixed-types", "parity", "parity-mixed-types"])
    def test_lattice_errors_print_the_cli_syntax(self, coords, message):
        # the coordinates are written as in Weight.from_text, which reads them back
        with pytest.raises(ValueError) as err:
            Weight(coords)
        assert str(err.value) == message
        with pytest.raises(ValueError) as reread:
            Weight.from_text(message.rsplit(" ", 1)[1])
        assert str(reread.value) == message

    def test_rejects_inexact_coordinates(self):
        with pytest.raises(TypeError):
            Weight((0.5,) * 5)

    def test_rejects_bool_coordinates(self):
        # bool is an int subclass; like CohClass coefficients and bbw twists, a
        # coordinate refuses it rather than reading True as 1
        with pytest.raises(TypeError, match=r"^cannot build an exact coordinate from True$"):
            Weight((True, False, False, False, False))
        with pytest.raises(TypeError, match=r"^cannot build an exact coordinate from False$"):
            Weight((1, 0, 0, 0, 0)).shifted(False)

    def test_text_coordinates_are_read_within_the_size_bound(self):
        # text goes through read_rational: Fraction("1e10000000") takes seconds to build
        with pytest.raises(RationalSyntaxError, match=r"^exponent too large in '1e300'$"):
            Weight(("1e300", 0, 0, 0, 0))
        with pytest.raises(RationalSyntaxError, match=r"^not a rational number: 'nan'$"):
            Weight(("nan", 0, 0, 0, 0))

    @pytest.mark.parametrize("twice, message", [
        ((2, 0, 0, 0), "expected 5 coordinates, got 4"),
        ((1, 0, 0, 0, 0), "mixed integer/half-integer coordinates: 1/2,0,0,0,0"),
    ], ids=["length", "parity"])
    def test_from_twice_validation(self, twice, message):
        with pytest.raises(ValueError) as err:
            Weight._from_twice(twice)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["a,b,c,d,e", "1,2", "1,0,0,0,0,0", "1/0,0,0,0,0",
                                      "1//2,0,0,0,0", "\u0661,0,0,0,0"])
    def test_from_text_syntax_errors(self, text):
        with pytest.raises(WeightSyntaxError):
            Weight.from_text(text)

    def test_dual_is_involution(self):
        w = Weight((3, 1, 0, -1, -2))
        assert w.dual().dual() == w
        assert w.dual() == Weight((2, 1, 0, -1, -3))


class TestDominance:
    def test_zero_weight(self):
        assert is_dominant(Weight((0, 0, 0, 0, 0)), "GL5")

    def test_fundamental_chamber(self):
        assert is_dominant(SPINOR, "D5")
        assert is_dominant(Weight((Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(-1, 2))), "D5")

    def test_chamber_walls(self):
        assert not is_dominant(Weight((0, 1, 0, 0, 0)), "GL5")
        assert is_dominant(Weight((1, 0, 0, 0, -1)), "GL5")
        assert not is_dominant(Weight((1, 1, 1, 1, -2)), "D5")

    @pytest.mark.parametrize("coords", [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
                             ids=["in-chamber", "off-chamber"])
    def test_unknown_flavor_is_refused_before_the_chamber_test(self, coords):
        with pytest.raises(ValueError, match=r"^unknown flavor 'B7'$"):
            is_dominant(Weight(coords), "B7")


class TestRegularize:
    def test_dominant_input(self):
        lam = Weight((2, 1, 1, 0, 0))
        out = bbw_regularize(lam)
        assert out is not None
        length, dom = out
        assert length == 0
        assert dom == lam + RHO

    def test_singular(self):
        assert bbw_regularize(Weight((-1, 0, 0, 0, 0))) is None

    def test_canonical_twist(self):
        # weight of O(-8): ten positive roots flip, landing on rho itself
        out = bbw_regularize(Weight((-4, -4, -4, -4, -4)))
        assert out == (10, Weight(RHO))

    def test_oracle_agreement(self):
        cases = [
            Weight((0,) * 5), Weight((-4,) * 5), Weight((-1, 0, 0, 0, 0)),
            Weight((3, -1, -2, 0, -5)), Weight((Q(1, 2),) * 5),
            Weight((Q(-9, 2), Q(-1, 2), Q(3, 2), Q(5, 2), Q(-7, 2))),
        ]
        seed = 123456789
        for _ in range(60):
            coords = []
            for _ in range(5):
                seed = (1103515245 * seed + 12345) % (1 << 31)
                coords.append(seed % 11 - 5)
            cases.append(Weight(tuple(coords)))
            cases.append(Weight(tuple(Q(2 * c + 1, 2) for c in coords)))
        for w in cases:
            mine = bbw_regularize(w)
            ref = regularize_oracle(w)
            assert (mine is None) == (ref is None), w
            if mine is not None:
                assert mine == ref, w

    def test_length_range(self):
        for w in box_partitions(3):
            shifted = w.shifted(-4)
            out = bbw_regularize(shifted)
            if out is not None:
                assert 0 <= out[0] <= 20
                assert is_dominant(out[1], "D5")


class TestWeylDim:
    def test_spinor_sixteen(self):
        assert weyl_dim(SPINOR, "D5") == 16

    def test_trivial(self):
        assert weyl_dim(Weight((0,) * 5), "D5") == 1
        assert weyl_dim(Weight((0,) * 5), "GL5") == 1

    def test_vector_ten(self):
        assert weyl_dim(VECTOR, "D5") == 10

    def test_minuscule_orbit_oracle(self):
        assert weyl_dim(VECTOR, "D5") == orbit_size_d5(VECTOR)
        assert weyl_dim(SPINOR, "D5") == orbit_size_d5(SPINOR)

    def test_gl5_standard_values(self):
        assert weyl_dim(Weight((1, 0, 0, 0, 0)), "GL5") == 5
        assert weyl_dim(Weight((1, 1, 0, 0, 0)), "GL5") == 10
        assert weyl_dim(Weight((2, 0, 0, 0, 0)), "GL5") == 15
        assert weyl_dim(Weight((1, 0, 0, 0, -1)), "GL5") == 24

    def test_det_twist_invariance(self):
        lam = Weight((2, 1, 0, 0, 0))
        assert weyl_dim(lam, "GL5") == weyl_dim(lam.shifted(Q(5, 2)), "GL5")

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError, match=r"^0,1,0,0,0 is not GL5-dominant$"):
            weyl_dim(Weight((0, 1, 0, 0, 0)), "GL5")
        with pytest.raises(ValueError, match=r"^1/2,1/2,1/2,1/2,-3/2 is not D5-dominant$"):
            weyl_dim(Weight((Q(1, 2),) * 4 + (Q(-3, 2),)), "D5")
        assert weyl_dim(Weight((Q(1, 2),) * 4 + (Q(-3, 2),)), "GL5") == 15
        with pytest.raises(ValueError, match=r"^unknown flavor 'B7'$"):
            weyl_dim(Weight((0, 1, 0, 0, 0)), "B7")

    def test_int_kernels_keep_the_weight_checks(self):
        # the kernels that the bbw memo calls on doubled ints raise what the Weight
        # route raised: a twice of the wrong length or of mixed parity, a
        # regularized vector whose weight is not dominant
        with pytest.raises(ValueError, match=r"^expected 5 coordinates, got 4$"):
            rootdata._regularize((2, 0, 0, 0))
        with pytest.raises(ValueError, match=r"^mixed integer/half-integer coordinates: "
                                             r"1/2,0,0,0,0$"):
            rootdata._regularize((1, 0, 0, 0, 0))
        with pytest.raises(ValueError, match=r"^0,0,0,0,-2 is not D5-dominant$"):
            rootdata._weyl_dim((8, 6, 4, 2, -4), "D5")
        assert rootdata._weyl_dim((8, 6, 4, 2, -4), "GL5") == 15


class TestTensor:
    def test_vector_times_dual(self):
        dec = dict(tensor_decompose(Weight((1, 0, 0, 0, 0)), Weight((0, 0, 0, 0, -1))))
        assert dec == {Weight((1, 0, 0, 0, -1)): 1, Weight((0, 0, 0, 0, 0)): 1}

    def test_unit(self):
        lam = Weight((3, 1, 0, 0, -2))
        assert dict(tensor_decompose(lam, Weight((0,) * 5))) == {lam: 1}

    def test_vector_square(self):
        dec = dict(tensor_decompose(Weight((1, 0, 0, 0, 0)), Weight((1, 0, 0, 0, 0))))
        assert dec == {Weight((2, 0, 0, 0, 0)): 1, Weight((1, 1, 0, 0, 0)): 1}

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            tensor_decompose(Weight((0, 1, 0, 0, 0)), Weight((0,) * 5))

    @pytest.mark.parametrize("lam, mu, text", [
        ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), "0,1,0,0,0"),
        ((1, 0, 0, 0, 0), (Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(3, 2)), "1/2,1/2,1/2,1/2,3/2"),
    ], ids=["first", "second"])
    def test_rejection_names_the_non_dominant_factor(self, lam, mu, text):
        with pytest.raises(ValueError) as err:
            tensor_decompose(Weight(lam), Weight(mu))
        assert str(err.value) == f"{text} is not GL5-dominant"

    def test_multiset_invariants(self):
        dec = tensor_decompose(Weight((2, 1, 0, 0, 0)), Weight((1, 1, 0, 0, 0)))
        assert all(m > 0 for _, m in dec)
        assert all(is_dominant(w, "GL5") for w, _ in dec)
        weights = [w for w, _ in dec]
        assert len(weights) == len(set(weights))
        assert weights == sorted(weights, key=lambda w: w.twice, reverse=True)

    def test_exhaustive_box_sweep(self):
        # dimension conservation plus Klimyk agreement, entries <= 3
        for lam in box_partitions(3):
            dim_lam = weyl_dim(lam, "GL5")
            for mu in box_partitions(3):
                dec = tensor_decompose(lam, mu)
                assert sum(m * weyl_dim(w, "GL5") for w, m in dec) \
                    == dim_lam * weyl_dim(mu, "GL5"), (lam, mu)
                assert dict(dec) == klimyk_tensor(lam, mu), (lam, mu)

    def test_twisted_and_half_integer_agreement(self):
        cases = [
            (Weight((Q(5, 2), Q(3, 2), Q(1, 2), Q(1, 2), Q(-1, 2))), Weight((1, 0, 0, -1, -2))),
            (Weight((1, 0, 0, -1, -2)), Weight((Q(5, 2), Q(3, 2), Q(1, 2), Q(1, 2), Q(-1, 2)))),
            (Weight((Q(1, 2),) * 5), Weight((Q(-1, 2),) * 5)),
            (Weight((2, 2, 1, 1, 0)).shifted(-3), Weight((3, 1, 0, 0, 0))),
        ]
        for lam, mu in cases:
            assert dict(tensor_decompose(lam, mu)) == klimyk_tensor(lam, mu)

    @settings(max_examples=60, deadline=None)
    @given(lam=st.tuples(st.lists(st.integers(0, 4), min_size=5, max_size=5), st.integers(-5, 5)),
           mu=st.tuples(st.lists(st.integers(0, 4), min_size=5, max_size=5), st.integers(-5, 5)))
    def test_symmetric_and_klimyk_property(self, lam, mu):
        # random GL5-dominant pairs, each with a determinant twist in (1/2)Z
        lam = Weight(sorted(lam[0], reverse=True)).shifted(Q(lam[1], 2))
        mu = Weight(sorted(mu[0], reverse=True)).shifted(Q(mu[1], 2))
        dec = dict(tensor_decompose(lam, mu))
        assert dec == dict(tensor_decompose(mu, lam))
        assert dec == klimyk_tensor(lam, mu)

    def test_symmetry(self):
        lam, mu = Weight((2, 1, 0, 0, -1)), Weight((1, 1, 1, 0, 0))
        assert tensor_decompose(lam, mu) == tensor_decompose(mu, lam)

    def test_half_integer_box_weights_are_canonical(self):
        # the LR shapes are cached doubled and shifted without a parity check: every
        # returned weight must be the one the checking constructor builds, strictly decreasing
        box = box_partitions(3)
        twists = [Q(t, 2) for t in (-3, -1, 0, 1, 4, 5)]
        for i, lam in enumerate(box):
            for j, mu in enumerate(box):
                dec = tensor_decompose(lam.shifted(twists[i % 6]), mu.shifted(twists[(i + j) % 6]))
                for w, _ in dec:
                    rebuilt = Weight(w.coords)
                    assert w == rebuilt and hash(w) == hash(rebuilt), (lam, mu, w)
                    assert all(type(d) is int for d in w.twice)
                twice = [w.twice for w, _ in dec]
                assert all(a > b for a, b in zip(twice, twice[1:])), (lam, mu)


class TestLittlewoodRichardson:
    def test_strips_match_the_oracle(self):
        for shape in box_shapes(6):
            for size in range(1, 5):
                strips = rootdata._strips(shape, size)
                assert len(set(strips)) == len(strips), (shape, size)
                assert sorted(strips) == horizontal_strips(shape, size), (shape, size)

    def test_products_in_both_argument_orders(self):
        # tensor_decompose always places the smaller partition's letters; the
        # unmemoized enumeration must give the same expansion either way round
        lr = rootdata._lr_products.__wrapped__
        box = box_shapes(4)
        pairs = [(lam, mu) for i, lam in enumerate(box) for mu in box[i:]]
        sample = set(random.Random(22).sample(pairs, 150))
        for lam, mu in pairs:
            forward = lr(lam, mu)
            assert forward == lr(mu, lam), (lam, mu)
            if (lam, mu) in sample:
                expected = klimyk_tensor(Weight(lam), Weight(mu))
                assert {Weight._from_twice(shape): m for shape, m in forward} == expected, (lam, mu)

    def test_a_cold_box_sweep_keeps_the_strip_table_small(self):
        rootdata._lr_products.cache_clear()
        rootdata._strips.cache_clear()
        box = box_partitions(3)
        for lam in box:
            for mu in box:
                tensor_decompose(lam, mu)
        assert isinstance(rootdata._strips, functools._lru_cache_wrapper)
        assert 0 < rootdata._strips.cache_info().currsize < 1000
