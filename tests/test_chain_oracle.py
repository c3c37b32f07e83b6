"""Section tables and splices against the brute-force enumeration of
``oracles``: every rank of every differential or map that fits.

Pages and 3-term splices are solved exactly, so the status and table must
be the oracle's: ``exact`` when it allows one table, else ``euler_only``
with the per-degree maxima.  A 4-term splice joins two sequences through
an interval for the middle sheaf, so its answer need only contain every
table the oracle allows.  A problem that allows no table raises."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import page_cells, page_tables, splice_tables
from spinorcalc import sections
from spinorcalc.bbw import DIM, CohomologyTable, O
from spinorcalc.sections import (
    UNKNOWN, SpliceError, SpliceProblem, splice_solve)


def _euler(dims) -> int:
    return sum(n if d % 2 == 0 else -n for d, n in dims)


def _upper(tables) -> dict[int, int]:
    top: dict[int, int] = {}
    for table in tables:
        for d, n in table:
            top[d] = max(top.get(d, 0), n)
    return top


# up to six cells (p, q) with p in 0..3, q in 0..5 and dimensions 1..3
pages = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), st.integers(1, 3),
                        max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.integers(6, 9), pages)
def test_pages_match_the_oracle(codim, page):
    tables = page_tables(page, DIM - codim)
    cells, weights = page_cells(page), (1,) * (codim + 1)
    if not tables:
        with pytest.raises(ArithmeticError, match="contradicts"):
            sections._section_result(O(), codim, cells, weights)
        return
    res = sections._section_result(O(), codim, cells, weights)
    assert res.status == ("exact" if len(tables) == 1 else "euler_only")
    assert res.table.dims() == _upper(tables)
    assert {_euler(t) for t in tables} == {res.euler}


def _problem(dims, u, dim):
    """The splice problem with the known per-degree ``dims`` and the unknown at ``u``,
    and the same terms for the oracle."""
    known = [CohomologyTable.from_dict(dict(enumerate(t))) for t in dims]
    known.insert(u, UNKNOWN)
    oracle_terms = [list(t) for t in dims]
    oracle_terms.insert(u, None)
    return SpliceProblem(tuple(known), dim=dim), oracle_terms


def splices(width: int):
    """(dim, unknown position, known dims) with dim 1..2 and entries 0..2."""
    return st.integers(1, 2).flatmap(lambda dim: st.tuples(
        st.just(dim), st.integers(0, width - 1),
        st.lists(st.lists(st.integers(0, 2), min_size=dim + 1, max_size=dim + 1),
                 min_size=width - 1, max_size=width - 1)))


@settings(max_examples=400, deadline=None)
@given(splices(3))
def test_three_term_splices_match_the_oracle(drawn):
    dim, u, dims = drawn
    problem, oracle_terms = _problem(dims, u, dim)
    tables = splice_tables(oracle_terms, dim)
    if not tables:
        with pytest.raises(SpliceError):
            splice_solve(problem)
        return
    res = splice_solve(problem)
    entries = [tuple((d, n) for d, n in enumerate(t) if n) for t in tables]
    assert res.status == ("exact" if len(tables) == 1 else "euler_only")
    assert res.table.dims() == _upper(entries)
    assert {_euler(t) for t in entries} == {res.euler}


@settings(max_examples=300, deadline=None)
@given(splices(4))
def test_four_term_splices_are_sound(drawn):
    dim, u, dims = drawn
    problem, oracle_terms = _problem(dims, u, dim)
    tables = splice_tables(oracle_terms, dim)
    if not tables:
        with pytest.raises(SpliceError):
            splice_solve(problem)
        return
    res = splice_solve(problem)
    bound = res.table.dims()
    assert all(n <= bound.get(d, 0) for t in tables for d, n in enumerate(t))
    assert res.status == "euler_only" or tables == {tuple(res.table.dim(d) for d in range(dim + 1))}
    assert {_euler(enumerate(t)) for t in tables} == {res.euler}
