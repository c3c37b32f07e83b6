from fractions import Fraction

import pytest

from oracles import page_cells
from spinorcalc import sections
from spinorcalc.bbw import DIM, CohomologyTable, O, U, make_bundle
from spinorcalc.cli import run
from spinorcalc.sections import (
    UNKNOWN,
    SectionResult,
    SpliceError,
    SpliceProblem,
    koszul_page,
    pipeline,
    section_cohomology,
    section_hilbert,
    splice_solve,
)


def T(dims: dict[int, int]) -> CohomologyTable:
    return CohomologyTable.from_dict(dims)


def page_result(page: dict[tuple[int, int], int], codim: int) -> SectionResult:
    """The section table of O read from ``page`` in place of its own Koszul page."""
    return sections._section_result(O(), codim, page_cells(page), (1,) * (codim + 1))


class TestSectionCohomology:
    def test_threefold_structure_sheaf(self):
        res = section_cohomology(O(), 7)
        assert res.exact and res.table.dims() == {0: 1}

    def test_threefold_tautological(self):
        res = section_cohomology(U(), 7)
        assert res.exact and res.table.is_zero

    def test_adjoint_twist(self):
        res = section_cohomology(make_bundle("dual(U)*U(-1)"), 7)
        assert res.exact and res.table.dims() == {3: 1}

    def test_fourfold_dual_twist(self):
        res = section_cohomology(make_bundle("dual(U)(-1)"), 6)
        assert res.exact and res.table.is_zero

    def test_k3_structure_sheaf(self):
        res = section_cohomology(O(), 8)
        assert res.exact and res.table.dims() == {0: 1, 2: 1}
        assert res.euler == 2

    def test_curve_structure_sheaf_has_genus_7(self):
        # two page degrees in [0, 1] with joinable cells: the chain pins both,
        # h^1(O_C) = 7 = genus, and O_C(1) = K_C is its Serre dual
        res = section_cohomology(O(), 9)
        assert res.exact and res.table.dims() == {0: 1, 1: 7} and res.euler == -6
        res = section_cohomology(O(1), 9)
        assert res.exact and res.table.dims() == {0: 7, 1: 1} and res.euler == 6

    def test_single_degree_bound_is_exact(self):
        # a differential could act, but only degree 0 lies in [0, 3]: h^0 = chi
        res = section_cohomology(make_bundle("dual(U)*U(2)"), 7)
        assert res.exact and res.table.dims() == {0: 755} and res.euler == 755

    def test_single_degree_outside_its_bound_raises(self):
        # degrees 0 (total 5) and -1 (total 7) are joinable; chi = -2 < 0 cannot be h^0
        with pytest.raises(ArithmeticError, match="contradicts"):
            page_result({(0, 0): 5, (1, 0): 7}, 7)

    def test_no_degree_left_forces_zero(self):
        # joinable cells in degrees -2 and -1 only: chi must vanish and H is zero
        res = page_result({(2, 0): 1, (1, 0): 1}, 7)
        assert res.exact and res.table.is_zero and res.euler == 0
        with pytest.raises(ArithmeticError, match="contradicts"):
            page_result({(2, 0): 2, (1, 0): 1}, 7)

    def test_isolated_cell_outside_the_range_raises(self):
        # only degree 0 lies in [0, 1], but no differential reaches the cell in
        # degree -3, so no ranks fit; this returned exact, {}
        with pytest.raises(ArithmeticError, match="contradicts"):
            page_result({(3, 0): 1, (2, 1): 1, (1, 1): 2}, 9)

    def test_codim_validation(self):
        with pytest.raises(ValueError):
            section_cohomology(O(), 0)
        with pytest.raises(ValueError):
            section_cohomology(O(), 10)

    @pytest.mark.parametrize("codim", [True, False, 7.0, Fraction(7), "7", None])
    def test_a_codim_that_is_not_an_int_raises(self, codim):
        # True would read as codim 1 and 7.0 fail inside a tuple lookup
        b = make_bundle("dual(U)*U")
        sections._column_memo.cache_clear()
        for call in (section_cohomology, koszul_page):
            with pytest.raises(TypeError) as info:
                call(b, codim)
            assert str(info.value) == f"codim must be an int, got {codim!r}"
        with pytest.raises(TypeError) as info:
            section_hilbert(codim, 1)
        assert str(info.value) == f"codim must be an int, got {codim!r}"
        assert sections._column_memo(b._base, b._shift) == [0, [], {}]


class TestSectionHilbert:
    def test_threefold_closed_form(self):
        for k in range(-9, 10):
            assert section_hilbert(7, k) == 2 * k ** 3 + 3 * k ** 2 + 3 * k + 1

    def test_k3_closed_form(self):
        for k in range(-9, 10):
            assert section_hilbert(8, k) == 2 + 6 * k ** 2

    def test_curve_closed_form(self):
        for k in range(-9, 10):
            assert section_hilbert(9, k) == 12 * k - 6

    def test_fourfold_structure_sheaf(self):
        assert section_hilbert(6, 0) == 1


class TestSerreDualityOnSections:
    def bundles(self):
        out = []
        for expr in ("O", "U", "dual(U)", "dual(U)*U"):
            base = make_bundle(expr)
            for k in range(-4, 5):
                out.append(base.twist(k))
        return out

    def test_threefold(self):
        # canonical class -H: H^i(b) dual to H^{3-i}(dual(b)(-1))
        for b in self.bundles():
            lhs = section_cohomology(b, 7)
            rhs = section_cohomology(b.dual().twist(-1), 7)
            if lhs.exact and rhs.exact:
                assert lhs.table.dims() == {3 - d: n for d, n in rhs.table.entries}

    def test_k3(self):
        for b in self.bundles():
            lhs = section_cohomology(b, 8)
            rhs = section_cohomology(b.dual(), 8)
            if lhs.exact and rhs.exact:
                assert lhs.table.dims() == {2 - d: n for d, n in rhs.table.entries}

    def test_euler_conservation_across_status(self):
        # euler of the twisted dual matches Serre duality even when a table
        # only reports bounds
        for b in self.bundles():
            lhs = section_cohomology(b, 7)
            rhs = section_cohomology(b.dual().twist(-1), 7)
            assert lhs.euler == -rhs.euler


class TestSplice:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpliceProblem((UNKNOWN, UNKNOWN, T({})), dim=3)
        with pytest.raises(ValueError):
            SpliceProblem((T({}), T({})), dim=3)

    def test_keeps_its_terms_as_a_tuple(self):
        terms = [T({0: 1}), UNKNOWN, T({0: 2})]
        problem = SpliceProblem(terms, dim=2)
        terms[0] = T({5: 1})
        assert problem.terms == (T({0: 1}), UNKNOWN, T({0: 2}))
        assert problem == SpliceProblem(tuple(problem.terms), dim=2)
        assert hash(problem) == hash((problem.terms, 2))

    def test_rejects_non_table_term(self):
        with pytest.raises(TypeError):
            SpliceProblem((UNKNOWN, T({}), {0: 1}), dim=3)

    def test_rejects_degree_above_dim(self):
        # this returned an exact empty table with Euler number 1
        with pytest.raises(ValueError, match="above dim 3"):
            splice_solve(SpliceProblem((T({5: 1}), T({}), UNKNOWN), dim=3))

    def test_all_zero_forcing(self):
        res = splice_solve(SpliceProblem((T({}), T({}), UNKNOWN), dim=4))
        assert res.exact and res.table.is_zero and res.euler == 0

    def test_kernel_position_is_conservative(self):
        # 0 -> A -> B -> C -> 0 with B, C in degree 0: the rank of the
        # section map is not forced by dimensions alone
        res = splice_solve(SpliceProblem((UNKNOWN, T({0: 3}), T({0: 1})), dim=2))
        assert res.status == "euler_only"
        assert res.euler == 2
        assert res.table.dim(0) == 3 and res.table.dim(1) == 1

    def test_connecting_shift(self):
        # all of B dies into C in the next degree: C^k = A^{k+1}
        res = splice_solve(SpliceProblem((T({3: 5}), T({}), UNKNOWN), dim=3))
        assert res.exact and res.table.dims() == {2: 5}
        assert res.euler == 5

    def test_middle_unknown(self):
        res = splice_solve(SpliceProblem((T({0: 1}), UNKNOWN, T({1: 2})), dim=3))
        assert res.exact and res.table.dims() == {0: 1, 1: 2}

    def test_inconsistent(self):
        # 0 -> A -> 0 -> C -> 0 forces A = 0; a nonzero A is contradictory
        with pytest.raises(SpliceError):
            splice_solve(SpliceProblem((T({0: 1}), T({}), UNKNOWN), dim=3))

    def test_ambiguous_reports_euler_only(self):
        # 0 -> A -> B -> C -> 0 with A = B = C(-shift) possible in two ways
        res = splice_solve(SpliceProblem((T({0: 1, 1: 1}), T({0: 1, 1: 1}), UNKNOWN), dim=3))
        assert res.status == "euler_only"
        assert res.euler == 0

    def test_four_term_first_unknown(self):
        res = splice_solve(SpliceProblem((UNKNOWN, T({3: 5}), T({}), T({})), dim=3))
        assert res.exact and res.table.dims() == {3: 5}

    def test_four_term_last_unknown(self):
        # two acyclic middle terms shift the degree down twice
        res = splice_solve(SpliceProblem((T({3: 5}), T({}), T({}), UNKNOWN), dim=3))
        assert res.exact and res.table.dims() == {1: 5}

    def test_four_term_contradiction_raises(self):
        # B = 0 makes C -> D an isomorphism, so C and D must have equal tables;
        # this returned euler_only bounds
        with pytest.raises(SpliceError):
            splice_solve(SpliceProblem((UNKNOWN, T({}), T({0: 1}), T({0: 2})), dim=1))

    def test_four_term_euler(self):
        res = splice_solve(SpliceProblem((UNKNOWN, T({0: 7}), T({0: 2}), T({1: 1})), dim=3))
        assert res.euler == 7 - 2 - 1


class TestPipelines:
    def test_e1y_vanishing(self):
        for res in (pipeline("E1y(-H)"), pipeline("E1y*dual(U)(-H)")):
            assert res.exact and res.table.is_zero and res.euler == 0

    def test_e1y_double_twist(self):
        res = pipeline("E1y(-2H)")
        assert res.exact
        assert res.table.dim(1) == 0
        assert res.table.dims() == {3: 5}

    def test_e2y_h0(self):
        res = pipeline("E2y(-H)")
        assert res.exact
        assert res.table.dim(0) == 0
        assert res.table.dims() == {2: 5}
        # Euler characteristic matches Riemann-Roch for the twisted fiber bundle
        assert res.euler == 5

    def test_e1y_tensor_u(self):
        res = pipeline("E1y*U(-H)")
        assert res.exact and res.table.is_zero

    def test_e1y_tensor_udual_double_twist(self):
        res = pipeline("E1y*dual(U)(-2H)")
        assert res.exact and res.table.dims() == {3: 1}

    def test_pipeline_euler_conservation(self):
        plain, tensored = pipeline("E1y(-H)"), pipeline("E1y*dual(U)(-H)")
        assert plain.euler == 0 and tensored.euler == 0
        assert pipeline("E1y(-2H)").euler == -5
        assert pipeline("E1y*dual(U)(-2H)").euler == -1


PIPELINE_NAMES = list(sections._PIPELINES)


@pytest.fixture
def fresh_pipelines(monkeypatch):
    """``monkeypatch`` for the pipeline table, with the evaluator's memo empty before and
    after the test."""
    pipeline.cache_clear()
    yield monkeypatch
    pipeline.cache_clear()


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_pipeline_entry(name):
    terms, dim = sections._PIPELINES[name]
    assert len(terms) in (3, 4) and terms.count(UNKNOWN) == 1
    earlier = PIPELINE_NAMES[:PIPELINE_NAMES.index(name)]
    for term in terms:
        if term is UNKNOWN:
            continue
        if len(term) == 3:   # a section table
            expr, codim, copies = term
            make_bundle(expr)
            assert DIM - codim >= dim and copies >= 1
        else:                # a reference, only to an earlier entry, so the evaluator ends
            ref, copies = term
            assert ref in earlier and copies >= 1
    assert pipeline(name).exact


def test_entries_share_one_memo(fresh_pipelines):
    first = [pipeline(name) for name in PIPELINE_NAMES]
    assert pipeline.cache_info().currsize == len(PIPELINE_NAMES)
    assert all(pipeline(name) is res for name, res in zip(PIPELINE_NAMES, first))


def test_unknown_pipeline_names_the_entries():
    with pytest.raises(ValueError) as err:
        pipeline("E1y(-3H)")
    assert str(err.value) == (
        "unknown pipeline 'E1y(-3H)'; known: ['E1y(-H)', 'E1y*dual(U)(-H)', 'E1y(-2H)', "
        "'E2y(-H)', 'E1y*U(-H)', 'E1y*dual(U)(-2H)']")


def test_inexact_reference_raises(fresh_pipelines):
    # O on the K3 into O: the map is an isomorphism or zero, so the cokernel is euler_only;
    # its upper bounds must not enter a splice as a pinned table
    fresh_pipelines.setitem(sections._PIPELINES, "E1y(-H)",
                            ((("O", 8, 1), ("O", 8, 1), UNKNOWN), 2))
    assert not pipeline("E1y(-H)").exact
    for name in ("E1y(-2H)", "E2y(-H)", "E1y*U(-H)"):
        with pytest.raises(ArithmeticError) as err:
            pipeline(name)
        assert str(err.value) == "expected a collapsed table for the E1y(-H) result"


def test_inexact_section_term_error_text(fresh_pipelines, capsys):
    expr = "dual(U*U*U*U)(-2)"
    assert not section_cohomology(expr, 7).exact
    fresh_pipelines.setitem(sections._PIPELINES, "E1y*dual(U)(-2H)",
                            ((UNKNOWN, (expr, 7, 1), ("dual(U)(-1)", 7, 5),
                              ("E1y*dual(U)(-H)", 1)), 3))
    message = f"expected a collapsed table for {expr} at codim 7"
    with pytest.raises(ArithmeticError) as err:
        pipeline("E1y*dual(U)(-2H)")
    assert str(err.value) == message
    assert run(["verify", "--suite", "koszul"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
