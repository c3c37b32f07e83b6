"""Koszul page columns read from twisted weights: random grammar expressions
against the rebuilt twisted bundles, and a guard that a section table of a
built bundle builds no further bundle.  The columns are read once per bundle
whatever order the codims come in.  Also: ``twist``, ``dual`` and ``*``
return canonical bundles without running the validating constructor, the
column memo is keyed on ints, and on memo hits building, twisting, dualizing
and multiplying bundles builds no ``Weight``, nor do a table read from empty
memos and a dual.  The bbw memos are keyed on the untwisted bundle, so a twist
family shares its tables and its products, and the section results are kept
per bundle and codim; emptying every memo that a cold benchmark round empties
makes the next sweep read every column again."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import tensor_oracle
from spinorcalc import bbw, sections
from spinorcalc.bbw import CohomologyTable, HomogBundle, O, cohomology, hilbert, make_bundle
from spinorcalc.rootdata import Weight
from spinorcalc.sections import koszul_page, section_cohomology


@st.composite
def bundle_exprs(draw, atoms: int = 3, nesting: int = 2) -> str:
    """A README-grammar expression with at most ``atoms`` atoms and ``nesting`` duals deep."""
    factors = []
    while atoms and (not factors or draw(st.booleans())):
        if nesting and draw(st.booleans()):
            used = draw(st.integers(1, atoms))
            factor = f"dual({draw(bundle_exprs(used, nesting - 1))})"
        else:
            used, factor = 1, draw(st.sampled_from("OU"))
        atoms -= used
        twist = draw(st.none() | st.integers(-8, 8))
        factors.append(factor if twist is None else f"{factor}({twist})")
    return "*".join(factors)


@settings(max_examples=30, deadline=None)
@given(bundle_exprs())
def test_twisted_columns_match_rebuilt_twists(expr):
    b = make_bundle(expr)
    for k in range(-9, 10):
        assert cohomology(b, k) == cohomology(b.twist(k))
        assert hilbert(b, k) == cohomology(b.twist(k)).euler
    for codim in range(1, 10):
        rebuilt = {(p, q): comb(codim, p) * n
                   for p in range(codim + 1) for q, n in cohomology(b.twist(-p)).entries}
        assert koszul_page(b, codim) == rebuilt


def test_section_table_builds_no_bundle(monkeypatch):
    b = make_bundle("dual(U)*U(1)")
    bbw._twisted_table.cache_clear()   # every column is computed, none is a memo hit
    built = []
    original = HomogBundle.__init__

    def counting(self, *args) -> None:
        original(self, *args)
        built.append(self)

    monkeypatch.setattr(HomogBundle, "__init__", counting)
    section_cohomology(b, 9)
    assert built == []


def test_a_codim_sweep_reads_each_column_once(monkeypatch):
    b = make_bundle("dual(U)*U(1)")
    sections._column_memo.cache_clear()
    twists = []

    def counting(bundle, k=0):
        twists.append(k)
        return cohomology(bundle, k)

    monkeypatch.setattr(sections, "cohomology", counting)
    for codim in (6, 7, 8, 9):
        section_cohomology(b, codim)
    assert twists == [-p for p in range(10)]


def _fresh(b, codim):
    sections._column_memo.cache_clear()
    return section_cohomology(b, codim)


@settings(max_examples=30, deadline=None)
@given(bundle_exprs(), st.permutations(range(1, 10)))
@example("dual(U)*U(1)", (9, 6, 8, 7))
def test_partly_filled_columns_give_fresh_results(expr, order):
    b = make_bundle(expr)
    fresh = [_fresh(b, codim) for codim in order]
    sections._column_memo.cache_clear()
    assert [section_cohomology(b, codim) for codim in order] == fresh
    for codim in range(1, 10):
        rebuilt = {(p, q): comb(codim, p) * n
                   for p in range(codim + 1) for q, n in cohomology(b, -p).entries}
        assert list(koszul_page(b, codim).items()) == list(rebuilt.items())


@settings(max_examples=30, deadline=None)
@given(bundle_exprs(), bundle_exprs(atoms=2, nesting=1), st.integers(-9, 9))
def test_unchecked_operations_stay_canonical(expr, other, k):
    b, c = make_bundle(expr), make_bundle(other)
    for x in (b.twist(k), b.dual(), b * c, c * b):
        validated = HomogBundle(x.summands)
        assert validated.summands == x.summands
        assert validated.twice == x.twice
        assert validated == x and hash(validated) == hash(x)
    for j in range(-9, 10):
        table = cohomology(b, j)
        assert table.entries == CohomologyTable.from_dict(table.dims()).entries


def test_operations_skip_validation(monkeypatch):
    b, c = make_bundle("dual(U)(1)*U"), make_bundle("U(-2)*O(3)")
    built = []
    validate = HomogBundle.__init__

    def counting(self, *args) -> None:
        validate(self, *args)
        built.append(self)

    monkeypatch.setattr(HomogBundle, "__init__", counting)
    b.twist(5), b.dual(), b * c, c.dual().twist(-1) * b
    assert built == []


def test_memo_hit_hashes_no_weight(monkeypatch):
    b = make_bundle("dual(U)(1)*U")
    table = cohomology(b, -3)   # the memo now holds this column
    hashed = []
    weight_hash = Weight.__hash__

    def counting(self) -> int:
        hashed.append(self)
        return weight_hash(self)

    monkeypatch.setattr(Weight, "__hash__", counting)
    hits = bbw._twisted_table.cache_info().hits
    assert cohomology(b, -3) is table
    assert bbw._twisted_table.cache_info().hits == hits + 1
    assert hashed == []


def _count_weights(monkeypatch) -> list:
    """The list that every Weight built from now on, by any constructor, is appended to."""
    built = []
    for name in ("_unchecked", "_from_twice"):
        original = getattr(Weight, name)

        def counting(cls, twice, _original=original):
            built.append(twice)
            return _original(twice)

        monkeypatch.setattr(Weight, name, classmethod(counting))
    init = Weight.__init__

    def counting_init(self, coords) -> None:
        built.append(coords)
        init(self, coords)

    monkeypatch.setattr(Weight, "__init__", counting_init)
    return built


def test_the_bundle_path_builds_no_weight(monkeypatch):
    def bundle_path():
        b = make_bundle("dual(U)(1)*U(-2)")
        return b.twist(3).dual() * b, cohomology(b, -3)

    bundle_path()   # the product and table memos now hold what the path reads
    built = _count_weights(monkeypatch)
    hits = bbw._base_product.cache_info().hits, bbw._twisted_table.cache_info().hits
    bundle_path()
    assert built == []
    assert bbw._base_product.cache_info().hits == hits[0] + 2
    assert bbw._twisted_table.cache_info().hits == hits[1] + 1


def test_a_cold_table_and_a_dual_build_no_weight(monkeypatch):
    b = make_bundle("dual(U)(1)*U(-2)*U")
    expected = [cohomology(b.twist(k)) for k in range(-9, 10)], b.dual()
    bbw._twisted_table.cache_clear()
    bbw._irreducible_cohomology.cache_clear()
    built = _count_weights(monkeypatch)
    got = [cohomology(b, k) for k in range(-9, 10)], b.dual()
    assert built == []
    assert got == expected
    assert bbw._twisted_table.cache_info().hits == 0
    assert bbw._irreducible_cohomology.cache_info().misses == 19 * len(b._base)


def test_degree_above_dim_names_the_twisted_bundle(monkeypatch):
    b = make_bundle("dual(U)*U")
    bbw._twisted_table.cache_clear()   # a raising call leaves nothing in the memo
    monkeypatch.setattr(bbw, "_irreducible_cohomology", lambda twice: (bbw.DIM + 1, 1))
    with pytest.raises(ArithmeticError) as info:
        cohomology(b, 2)
    assert str(info.value) == "cohomological degree above 10 for (2,1,1,1,0) + (1,1,1,1,1)"


@settings(max_examples=30, deadline=None)
@given(bundle_exprs(), st.integers(-9, 9))
def test_a_twist_family_shares_one_table_per_shift(expr, j):
    b = make_bundle(expr)
    bbw._twisted_table.cache_clear()
    for k in range(-9, 10):
        assert cohomology(b.twist(j), k) is cohomology(b, j + k)
    assert bbw._twisted_table.cache_info().currsize == 19   # one entry per shift j + k


@settings(max_examples=30, deadline=None)
@given(bundle_exprs(), bundle_exprs(atoms=2, nesting=1), st.integers(-9, 9), st.integers(-9, 9))
def test_a_product_of_twists_is_the_twisted_product(expr, other, i, j):
    b, c = make_bundle(expr), make_bundle(other)
    twisted, product = b.twist(i) * c.twist(j), (b * c).twist(i + j)
    assert twisted.summands == product.summands
    assert twisted.twice == product.twice
    assert twisted == product
    assert b.twist(i).twist(j) == b.twist(i + j)
    assert twisted.summands == tensor_oracle(b.twist(i), c.twist(j))
    assert (b * c).summands == tensor_oracle(b, c)


@pytest.mark.parametrize("k", [Fraction(1, 2), 1.0, True])
def test_a_twist_that_is_not_an_int_raises(k):
    b = make_bundle("U")
    with pytest.raises(TypeError) as twist_info:
        b.twist(k)
    with pytest.raises(TypeError) as cohomology_info:
        cohomology(b, k)
    with pytest.raises(TypeError) as line_info:
        O(k)
    for info in (twist_info, cohomology_info, line_info):
        assert str(info.value) == f"the twist k must be an int, got {k!r}"


def test_equal_bundles_share_their_section_results():
    b, c = make_bundle("dual(U)(1)*U"), make_bundle("U(1)*dual(U)")
    assert b == c and b is not c
    for codim in range(1, 10):
        assert section_cohomology(b, codim) is section_cohomology(c, codim)
    assert section_cohomology("U*dual(U)(1)", 7) is section_cohomology(b, 7)


def test_a_raising_section_call_keeps_no_result(monkeypatch):
    b = make_bundle("dual(U)*U(1)")
    sections._column_memo.cache_clear()

    def failing(*args):
        raise ArithmeticError("no result")

    monkeypatch.setattr(sections, "_section_result", failing)
    for codim in (*range(1, 10), 7):
        with pytest.raises(ArithmeticError):
            section_cohomology(b, codim)
    assert sections._column_memo(b._base, b._shift)[2] == {}


def test_clearing_the_memos_reads_every_column_again(monkeypatch):
    b = make_bundle("dual(U)*U(1)")
    for codim in (6, 7, 8, 9):
        section_cohomology(b, codim)
    # the memos a cold benchmark round empties: every callable with cache_clear
    for module in (bbw, sections):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    twists = []

    def counting(bundle, k=0):
        twists.append(k)
        return cohomology(bundle, k)

    monkeypatch.setattr(sections, "cohomology", counting)
    for codim in (6, 7, 8, 9):
        section_cohomology(b, codim)
    assert twists == [-p for p in range(10)]
    assert bbw._twisted_table.cache_info().misses == 10
