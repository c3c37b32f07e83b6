"""Koszul page columns read from twisted weights: random grammar expressions
against the rebuilt twisted bundles, and a guard that a section table of a
built bundle builds no further bundle."""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from spinorcalc import bbw
from spinorcalc.bbw import HomogBundle, cohomology, hilbert, make_bundle
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
    original = HomogBundle.__post_init__

    def counting(self) -> None:
        built.append(self)
        original(self)

    monkeypatch.setattr(HomogBundle, "__post_init__", counting)
    section_cohomology(b, 9)
    assert built == []
