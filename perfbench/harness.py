"""Timed rounds, speed calibration, failure accounting and the metrics.

One closed-loop caller on one thread: each op starts when the previous one
returns.  A run is a sequence of rounds; every round replays the workload's
inputs from empty memo caches and is checked after it ends, outside the
timed region (see ``account``).

Timings are reported at a reference speed.  The reference machine is a
2-vCPU guest on a shared host whose speed for this kind of code changes by
up to 2x within seconds as neighbours load it, so raw wall times of the
same run differ by more than any useful regression bound.  Between ops, at
least every CALIBRATE_EVERY_S, the harness times ``kernel``, a fixed piece
of stdlib ``Fraction`` and dict work that slows down with the host as
spinorcalc's own Fraction-heavy code does, and scales the following ops'
latencies by REFERENCE_KERNEL_S / (kernel time).  A reported millisecond
is thus a millisecond on a machine that runs the kernel in exactly
REFERENCE_KERNEL_S.  Raw wall-time figures go to the run record.

Per-op latency is then the median of that op's scaled latencies over the
rounds, and the end-to-end metrics are taken over those per-op medians.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Optional

from .layers import LAYERS, CacheSet, public_functions
from .spans import Installed, SpanRecorder

MIN_ROUNDS = 3
REFERENCE_KERNEL_S = 1e-3
CALIBRATE_EVERY_S = 0.05

# Spans whose arguments and results the traced round keeps for ratio metrics.
PIPELINE_PREFIX = "sections.pipeline_"
KEPT = frozenset({"bbw.cohomology", "sections.section_cohomology", "cli.verify_suite"})


def _keep(name: str) -> bool:
    return name in KEPT or name.startswith(PIPELINE_PREFIX)


def kernel() -> Fraction:
    """Fixed calibration work: about a millisecond of Fraction arithmetic and dict updates."""
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 120):
        f = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 2)
        acc += f
        key = (i % 17, f.denominator)
        counts[key] = counts.get(key, 0) + 1
    return acc


def speed_factor() -> float:
    """REFERENCE_KERNEL_S over the time the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return REFERENCE_KERNEL_S / (perf_counter() - t0)


@dataclass
class Round:
    latencies: list[float]   # raw wall time of each op, seconds
    scales: list[float]      # speed factor applied to each op
    outputs: list
    raised: list[bool]

    def scaled(self) -> list[float]:
        return [lat * f for lat, f in zip(self.latencies, self.scales)]


@dataclass
class Measurement:
    ops_per_round: int
    rounds: list[list[float]] = field(default_factory=list)       # scaled latencies
    raw_rounds: list[list[float]] = field(default_factory=list)   # wall-time latencies
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    first: Optional[tuple[list, list]] = None   # first round's outputs and check verdicts
    first_failures: list[str] = field(default_factory=list)

    def per_op(self, raw: bool = False) -> list[float]:
        """Median latency of each op over the rounds, in (reference-speed) seconds."""
        return [statistics.median(lat) for lat in zip(*(self.raw_rounds if raw else self.rounds))]


def run_round(workload, inputs: list, caches: CacheSet,
              recorder: Optional[SpanRecorder] = None) -> Round:
    caches.reset()
    n = len(inputs)
    latencies, scales, outputs, raised = [0.0] * n, [0.0] * n, [None] * n, [False] * n
    op = workload.op
    # Freeze what survives a collection for the round, so the objects the harness
    # keeps across rounds (inputs, the first round's outputs) do not lengthen the
    # collections the round's own allocations trigger.
    gc.collect()
    gc.freeze()
    try:
        factor, calibrated = speed_factor(), perf_counter()
        for i, x in enumerate(inputs):
            if workload.cold_per_op and i:
                caches.reset()
            if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                factor, calibrated = speed_factor(), perf_counter()
            scales[i] = factor
            if recorder is not None:
                recorder.mark_op()
            t0 = perf_counter()
            try:
                outputs[i] = op(x)
            except Exception:  # a failing op is counted and reported, and the run goes on
                raised[i] = True
                outputs[i] = traceback.format_exc()
            latencies[i] = perf_counter() - t0
    finally:
        gc.unfreeze()
    return Round(latencies, scales, outputs, raised)


def account(workload, inputs: list, rnd: Round, m: Measurement) -> None:
    """Check a finished round and add its ops to the attempted and failed counts.

    The first round is checked in full.  The program is deterministic, so every
    later round must reproduce the first round's outputs exactly; an op keeps
    the verdict of its first-round output.
    """
    errors = [out for out, bad in zip(rnd.outputs, rnd.raised) if bad]
    outputs = [None if bad else out for out, bad in zip(rnd.outputs, rnd.raised)]
    if m.first is None:
        problems = workload.check(inputs, outputs)
        m.first = (outputs, problems)
    else:
        problems = [p if out == ref else "output differs from the first round's"
                    for out, ref, p in zip(outputs, *m.first)]
    m.attempted += len(inputs)
    m.failed += sum(1 for bad, p in zip(rnd.raised, problems) if bad or p)
    for text in errors + [p for p in problems if p]:
        if len(m.first_failures) < 5:
            m.first_failures.append(text)
            print(f"{workload.name}: op failed: {text}", file=sys.stderr)


def measure(workload, inputs: list, caches: CacheSet, seconds: float,
            between_rounds=None) -> Measurement:
    """Untraced rounds until ``seconds`` of op time and at least MIN_ROUNDS rounds."""
    m = Measurement(len(inputs))
    spent = 0.0
    while spent < seconds or len(m.rounds) < MIN_ROUNDS:
        if between_rounds is not None:
            between_rounds()
        rnd = run_round(workload, inputs, caches)
        if not m.rounds:
            # Before any check runs, so the peak holds the workload's own memory only.
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m.rounds.append(rnd.scaled())
        m.raw_rounds.append(rnd.latencies)
        spent += sum(rnd.latencies)
        account(workload, inputs, rnd, m)
    return m


def percentile_counts(per_op: list[float]) -> dict[str, int]:
    """Samples behind op_p50_ms and op_p90_ms (one per-op median each) and how
    many lie beyond p90."""
    p90 = statistics.quantiles(per_op, n=10)[8]
    return {"percentile_samples": len(per_op),
            "p90_samples_beyond": sum(1 for x in per_op if x > p90)}


def end_to_end(m: Measurement, setup_s: float, raw: bool = False) -> dict[str, tuple[float, str]]:
    per_op = m.per_op(raw)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def fail_ratio(m: Measurement) -> float:
    return m.failed / m.attempted


def result(m: Measurement, metrics: dict[str, tuple[float, str]]) -> dict:
    """The run's result line: an op that raised or failed its check makes it incorrect."""
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced round
# ---------------------------------------------------------------------------


def traced_round(workload, inputs: list, caches: CacheSet, mods,
                 m: Measurement) -> tuple[SpanRecorder, Round]:
    """One round with every layer wrapped; returns its spans and the round."""
    caches.reset()
    caches.clear_totals()
    recorder = SpanRecorder(_keep)
    installed = Installed(recorder, mods, public_functions(mods))
    try:
        rnd = run_round(workload, inputs, caches, recorder)
    finally:
        installed.remove()
    caches.reset()   # folds the round's last cache counters into the totals
    account(workload, inputs, rnd, m)
    return recorder, rnd


def per_layer(recorder: SpanRecorder, caches: CacheSet, traced: Round,
              untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced round; ``untraced_s`` is the same work's
    op time at reference speed without tracing."""
    traced_s = sum(traced.latencies)
    own = recorder.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    for i, name in enumerate(recorder.names):
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own[i]
        errors[layer] = errors.get(layer, 0) + recorder.failed[i]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out[f"{layer}.self_share"] = (self_s.get(layer, 0.0) / traced_s, "ratio")
        out[f"{layer}.errors"] = (errors.get(layer, 0), "count")

    def count(name: str) -> tuple[int, str]:
        return calls.get(name, 0), "count"

    kept = recorder.kept
    by_name: dict[str, list] = {}
    for i, (args, res) in kept.items():
        by_name.setdefault(recorder.names[i], []).append((args, res))
    pipelines = [i for i in kept if recorder.names[i].startswith(PIPELINE_PREFIX)]
    section_results = [r for _, r in by_name.get("sections.section_cohomology", [])]
    reports = [r for _, r in by_name.get("cli.verify_suite", [])]

    out.update({
        "rootdata.tensor_decompose.calls": count("rootdata.tensor_decompose"),
        "rootdata.tensor_decompose.self_s": (self_s.get("rootdata.tensor_decompose", 0.0), "s"),
        "rootdata.bbw_regularize.calls": count("rootdata.bbw_regularize"),
        "rootdata.weyl_dim.calls": count("rootdata.weyl_dim"),
        "rootdata.lr_cache.hit_ratio": (caches.hit_ratio("rootdata.lr_cache"), "ratio"),
        "rootdata.lr_cache.entries": (caches.peak_entries("rootdata.lr_cache"), "count"),
        "bbw.make_bundle.calls": count("bbw.make_bundle"),
        "bbw.cohomology.calls": count("bbw.cohomology"),
        "bbw.summands": (
            sum(len(args[0].summands) for args, _ in by_name.get("bbw.cohomology", [])), "count"),
        "bbw.irreducible_cache.hit_ratio": (caches.hit_ratio("bbw.irreducible_cache"), "ratio"),
        "sections.section_cohomology.calls": count("sections.section_cohomology"),
        "sections.koszul_page.calls": count("sections.koszul_page"),
        "sections.splice_solve.calls": count("sections.splice_solve"),
        "sections.pipeline.calls": (len(pipelines), "count"),
        "sections.pipeline.distinct_ratio": (
            _distinct_per_op(recorder, pipelines) / len(pipelines) if pipelines else 0.0, "ratio"),
        "sections.exact_ratio": (
            sum(getattr(r, "status", None) == "exact" for r in section_results)
            / len(section_results) if section_results else 0.0, "ratio"),
        "intersect.cohclass_mul.calls": count("intersect.cohclass_mul"),
        "intersect.chi.calls": count("intersect.chi"),
        "intersect.universal_ch.calls": count("intersect.universal_ch"),
        "intersect.cache.hit_ratio": (caches.hit_ratio("intersect.cache"), "ratio"),
        "mukai.transform.calls": count("mukai.transform"),
        "mukai.euler.calls": count("mukai.euler"),
        "mukai.gram.calls": count("mukai.gram"),
        "mukai.cache.hit_ratio": (caches.hit_ratio("mukai.cache"), "ratio"),
        "cli.checks": (sum(len(r.checks) for r in reports), "count"),
        "cli.checks_failed": (sum(1 for r in reports for c in r.checks if not c.ok), "count"),
        "trace.overhead_ratio": (sum(traced.scaled()) / untraced_s - 1, "ratio"),
        "trace.attributed_ratio": (recorder.root_time() / traced_s, "ratio"),
    })
    return out


def _distinct_per_op(recorder: SpanRecorder, pipelines: list[int]) -> int:
    """Distinct (pipeline, result) pairs within each op, summed over ops."""
    return len({(bisect.bisect_right(recorder.op_starts, i), recorder.names[i],
                 repr(recorder.kept[i][1])) for i in pipelines})
