"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import types

import pytest

from perfbench import harness
from perfbench.layers import CacheSet, load_modules
from perfbench.spans import Installed, SpanRecorder
from perfbench.workloads import PaperReplay


@pytest.fixture(scope="module")
def mods():
    return load_modules()


class BrokenReplay(PaperReplay):
    """paper-replay with a wrong ``bbw`` reference and a ``conics`` op that raises."""

    def __init__(self) -> None:
        super().__init__()
        self.references = {**self.references,
                           "bbw": self.references["bbw"].replace("16", "17")}

    def op(self, suite: str):
        if suite == "conics":
            raise RuntimeError("deliberate failure")
        return super().op(suite)


def test_wrong_reference_and_raising_op_fail_the_run(mods):
    m = harness.measure(BrokenReplay(), ["bbw", "conics", "cherns"], CacheSet(mods), seconds=0)
    assert m.attempted == 3 * harness.MIN_ROUNDS
    assert m.failed == 2 * harness.MIN_ROUNDS
    assert harness.fail_ratio(m) > 0
    result = harness.result(m, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (m.attempted, m.failed)


def test_correct_run_reports_no_failures(mods):
    m = harness.measure(PaperReplay(), ["bbw"], CacheSet(mods), seconds=0)
    assert harness.result(m, {})["correct"] is True
    assert harness.fail_ratio(m) == 0


def test_cache_reset_empties_every_cache(mods):
    caches = CacheSet(mods)
    mods["intersect"].model_x()
    mods["rootdata"].tensor_decompose(mods["rootdata"].Weight((1, 0, 0, 0, 0)),
                                      mods["rootdata"].Weight((1, 0, 0, 0, 0)))
    caches.reset()
    assert all(c.cache_info().currsize == 0 for c in caches.caches.values())
    assert caches.peak_entries("rootdata.lr_cache") >= 1


def test_cache_discovery_fails_when_a_layer_loses_its_caches(mods):
    bare = {**mods, "intersect": types.ModuleType("spinorcalc.intersect")}
    with pytest.raises(RuntimeError, match="intersect"):
        CacheSet(bare)


def test_self_times_partition_the_root_spans_and_wrappers_come_off(mods):
    bbw = mods["bbw"]
    sections = mods["sections"]
    original = sections.cohomology
    recorder = SpanRecorder()
    installed = Installed(recorder, mods, [("bbw", "cohomology", bbw.cohomology),
                                           ("sections", "section_cohomology",
                                            sections.section_cohomology)])
    try:
        sections.section_cohomology(bbw.make_bundle("U"), 7)
    finally:
        installed.remove()
    assert sections.cohomology is original
    assert recorder.names.count("bbw.cohomology") == 8   # one per Koszul twist p = 0..7
    assert sum(recorder.self_times()) == pytest.approx(recorder.root_time())
