"""The value contract of the package's eleven record types.

Each type compares equal by its fields and hashes as the tuple of those
fields (``RingModel`` compares and hashes by identity, and ``KernelSpec.rows``
takes no part), refuses attribute assignment and deletion, keeps its
validation errors, survives pickle and copy, and prints one fixed repr,
pinned here byte for byte.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from spinorcalc.bbw import CohomologyTable, HomogBundle, make_bundle
from spinorcalc.cli import VerifyCheck, VerifyReport
from spinorcalc.intersect import CohClass, GeomMap, RingModel, geom_map, model_x
from spinorcalc.mukai import GramReport, KernelSpec, class_u_plus, gram, kernel
from spinorcalc.rootdata import Weight
from spinorcalc.sections import SectionResult, SpliceProblem, section_cohomology


def _gram(first: str) -> GramReport:
    pair = [("U+", class_u_plus()), ("O_X", CohClass.unit(model_x()))]
    return gram(pair if first == "U+" else pair[::-1], model_x())


def _check(ok: bool = True) -> VerifyCheck:
    return VerifyCheck("sections-of-O(1)", "16 sections", "{0: 16}", "{0: 16}", ok)


def _spec(parity: int) -> KernelSpec:
    k = kernel("phi1")
    return KernelSpec(k.name, k.product, k.source_side, k.kernel_ch, parity)


# type -> (its fields, builders of x, of a y equal to x and of a z unequal to x, repr of x)
CASES = {
    "Weight": (
        ("twice",),
        lambda: Weight((1, 0, 0, 0, -1)),
        lambda: Weight._unchecked((2, 0, 0, 0, -2)),
        lambda: Weight(("1/2",) * 5),
        "Weight(coords=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(-1, 1)))"),
    "CohomologyTable": (
        ("entries",),
        lambda: CohomologyTable(((2, 5), (0, 1), (3, 0))),
        lambda: CohomologyTable._canonical(((0, 1), (2, 5))),
        lambda: CohomologyTable(((0, 1),)),
        "CohomologyTable(entries=((0, 1), (2, 5)))"),
    "HomogBundle": (
        ("_base", "_shift"),
        lambda: make_bundle("dual(U)*U(1)"),
        lambda: HomogBundle(make_bundle("dual(U)*U(1)").summands),
        lambda: make_bundle("dual(U)*U(2)"),
        "HomogBundle(_base=(((4, 2, 2, 2, 0), 1), ((2, 2, 2, 2, 2), 1)), _shift=-1)"),
    "SectionResult": (
        ("status", "table", "euler"),
        lambda: section_cohomology("O", 1),
        lambda: SectionResult("exact", CohomologyTable(((0, 1),)), 1),
        lambda: SectionResult("euler_only", CohomologyTable(((0, 1),)), 1),
        "SectionResult(status='exact', table=CohomologyTable(entries=((0, 1),)), euler=1)"),
    "SpliceProblem": (
        ("terms", "dim"),
        lambda: SpliceProblem((CohomologyTable(((0, 1),)), None, CohomologyTable(((0, 2),))), 3),
        lambda: SpliceProblem((CohomologyTable(((0, 1),)), None, CohomologyTable(((0, 2),))),
                              dim=3),
        lambda: SpliceProblem((CohomologyTable(((0, 1),)), None, CohomologyTable(((0, 2),))), 4),
        "SpliceProblem(terms=(CohomologyTable(entries=((0, 1),)), None, "
        "CohomologyTable(entries=((0, 2),))), dim=3)"),
    "GeomMap": (
        ("name", "source", "target", "pushforward", "pullback"),
        lambda: geom_map("alpha"),
        lambda: GeomMap(*(getattr(geom_map("alpha"), f) for f in
                          ("name", "source", "target", "pushforward", "pullback"))),
        lambda: geom_map("beta"),
        "GeomMap(name='alpha', source=RingModel(S), target=RingModel(X), "
        "pushforward=((((1, 1),), ((2, 12),), ((3, 1),)), 1), "
        "pullback=((((0, 1),), ((1, 1),), ((2, 1),), ()), 1))"),
    "KernelSpec": (
        ("name", "product", "source_side", "kernel_ch", "shift_parity"),
        lambda: kernel("phi1"),
        lambda: _spec(1),
        lambda: _spec(-1),
        "KernelSpec(name='phi1', product=RingModel(XxC), source_side='right', "
        "kernel_ch=2*1*1 + 12*1*pt + 1*H*1 + 5*H*pt + 1*L*1 + -1/2*P*1 + -3*P*pt + -1*eta, "
        "shift_parity=1)"),
    "GramReport": (
        ("labels", "matrix", "blocks", "exceptional", "semiorthogonal"),
        lambda: _gram("U+"),
        lambda: GramReport(("U+", "O_X"), ((1, 10), (0, 1)), (1, 1), (True, True), True),
        lambda: _gram("O_X"),
        "GramReport(labels=('U+', 'O_X'), matrix=((Fraction(1, 1), Fraction(10, 1)), "
        "(Fraction(0, 1), Fraction(1, 1))), blocks=(1, 1), exceptional=(True, True), "
        "semiorthogonal=True)"),
    "VerifyCheck": (
        ("name", "claim", "expected", "computed", "ok"),
        _check,
        lambda: VerifyCheck(name="sections-of-O(1)", claim="16 sections", expected="{0: 16}",
                            computed="{0: 16}", ok=True),
        lambda: _check(False),
        "VerifyCheck(name='sections-of-O(1)', claim='16 sections', expected='{0: 16}', "
        "computed='{0: 16}', ok=True)"),
    "VerifyReport": (
        ("suite", "checks"),
        lambda: VerifyReport("bbw", (_check(),)),
        lambda: VerifyReport("bbw", checks=(_check(),)),
        lambda: VerifyReport("bbw", (_check(False),)),
        "VerifyReport(suite='bbw', checks=(VerifyCheck(name='sections-of-O(1)', "
        "claim='16 sections', expected='{0: 16}', computed='{0: 16}', ok=True),))"),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_follow_the_fields(name):
    fields, make_x, make_y, make_z, _ = CASES[name]
    x, y, z = make_x(), make_y(), make_z()
    assert type(x).__name__ == type(y).__name__ == type(z).__name__ == name
    assert x == y and not x != y and x is not y
    assert x != z and not x == z
    values = tuple(getattr(x, f) for f in fields)
    assert hash(x) == hash(y) == hash(values)
    assert x != object() and x != None   # noqa: E711


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    *_, make_x, _, _, expected = CASES[name]
    assert repr(make_x()) == expected


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise(name):
    fields, make_x, *_ = CASES[name]
    x = make_x()
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, f, 0)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in fields) == tuple(getattr(make_x(), f) for f in fields)


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_keep_the_value(name):
    x = CASES[name][1]()
    copies = {"pickle": pickle.loads(pickle.dumps(x)), "copy": copy.copy(x),
              "deepcopy": copy.deepcopy(x)}
    for how, y in copies.items():
        assert type(y) is type(x) and repr(y) == repr(x)
        # a map or a kernel holds a ring model, which equals only itself, and
        # only the shallow copy keeps the same model
        assert (y == x) is (how == "copy" or name not in ("GeomMap", "KernelSpec"))


def test_a_ring_model_equals_only_itself():
    x = model_x()
    twin = RingModel(x.name, x.basis, x.grades, x.table, x.den)
    assert x == x and twin != x and not twin == x
    assert hash(x) == object.__hash__(x) and hash(twin) == object.__hash__(twin)
    assert repr(twin) == "RingModel(X)"
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert y != x and repr(y) == repr(x) and (y.basis, y.index) == (x.basis, x.index)
    assert (twin.index, twin.cells, twin.dim, twin.top_index) == (x.index, x.cells, x.dim,
                                                                  x.top_index)
    for f in ("name", "table", "index", "cells", "dim", "top_index", "extra"):
        with pytest.raises(AttributeError):
            setattr(twin, f, 0)
        with pytest.raises(AttributeError):
            delattr(twin, f)


def test_kernel_rows_take_no_part_in_equality_hash_or_repr():
    k = kernel("phi1")
    twin = KernelSpec(k.name, k.product, k.source_side, k.kernel_ch, k.shift_parity)
    assert twin.rows == k.rows and twin == k and hash(twin) == hash(k)
    assert "rows" not in repr(k)
    for f in ("rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(k, f, 0)
        with pytest.raises(AttributeError):
            delattr(k, f)


@pytest.mark.parametrize("build, error, text", [
    (lambda: CohomologyTable(((-1, 2),)), ValueError, "negative cohomological degree -1"),
    (lambda: CohomologyTable(((1, -2),)), ValueError, "negative dimension -2 in degree 1"),
    (lambda: CohomologyTable(((1, 2), (1, 3))), ValueError, "duplicate degrees in cohomology table"),
    (lambda: SpliceProblem((None, None), 3), ValueError,
     "splice supports sequences of length 3 or 4"),
    (lambda: SpliceProblem((None, None, CohomologyTable(())), 3), ValueError,
     "exactly one UNKNOWN term is required"),
    (lambda: SpliceProblem((None, {0: 1}, CohomologyTable(())), 3), TypeError,
     "bad splice term {0: 1}"),
    (lambda: SpliceProblem((None, CohomologyTable(((4, 1),)), CohomologyTable(())), 3),
     ValueError, "splice term {4: 1} has a degree above dim 3"),
    *((lambda dim=dim: SpliceProblem((None, CohomologyTable(()), CohomologyTable(())), dim),
       TypeError, f"dim must be an int, got {dim!r}") for dim in (True, 2.0, "2", None)),
    # the dim is checked first, here before the length of the sequence
    (lambda: SpliceProblem((None, None), "3"), TypeError, "dim must be an int, got '3'"),
    (lambda: Weight((0, 0, 0, 0)), ValueError, "expected 5 coordinates, got 4"),
    (lambda: Weight((Fraction(1, 3), 0, 0, 0, 0)), ValueError,
     "coordinates must be integers or half-integers: 1/3,0,0,0,0"),
])
def test_validation_errors_are_kept(build, error, text):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == text
