"""The three benchmark workloads, why each was chosen, and what each should show.

A workload turns a seed into a fixed list of inputs, runs one op per input
and checks the outputs afterwards, outside the timed phase.  Every round of
a run replays the same inputs in the same order from empty memo caches, so
the rounds of one run are repeats of the same work; ``paper-replay`` also
empties the caches before every op.  The library receives only the
generated inputs.

Which layer metric should move which end-to-end metric, and where
(predictions written before any optimisation lands):

* ``rootdata.*`` should move ``ops_per_s``, ``op_p50_ms`` and
  ``peak_rss_mb`` on ``lr-box``, and ``op_p90_ms`` on ``bundle-queries``.
  Predict no change on ``paper-replay``.
* ``bbw.*`` and ``sections.section_cohomology``/``koszul_page`` should move
  ``op_p50_ms`` and ``ops_per_s`` on ``bundle-queries``.  Predict no change
  on ``lr-box``.
* ``sections.pipeline.distinct_ratio`` and ``sections.splice_solve.calls``
  should move ``op_p90_ms`` on ``paper-replay``.
* ``intersect.*`` and ``mukai.*`` should move ``op_p50_ms`` and
  ``ops_per_s`` on ``paper-replay``.  Predict no change on ``lr-box`` or
  ``bundle-queries``.
* ``cli.self_s`` and import cost should move ``setup_s`` on every workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from spinorcalc import bbw, cli, rootdata, sections

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references"
DEFAULT_SEED = 0


def _gl5_dim(coords) -> int:
    """Weyl dimension of a GL5 irreducible, computed here independently of rootdata."""
    c = [Fraction(x) for x in coords]
    num = den = 1
    for i, j in itertools.combinations(range(5), 2):
        num *= c[i] - c[j] + j - i
        den *= j - i
    d = Fraction(num, den)
    if d.denominator != 1 or d <= 0:
        raise ValueError(f"{coords} is not a GL5-dominant weight")
    return int(d)


def _load_klimyk_oracle():
    """The Klimyk tensor-product oracle of the test suite, imported read-only."""
    if "oracles" not in sys.modules:
        spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["oracles"] = module
    return sys.modules["oracles"].klimyk_tensor


# ---------------------------------------------------------------------------
# lr-box
# ---------------------------------------------------------------------------


class LRInput(NamedTuple):
    lam: tuple[int, ...]        # the two partitions, before their twists
    mu: tuple[int, ...]
    left: rootdata.Weight       # what the library receives
    right: rootdata.Weight


class LRBox:
    """One op is ``rootdata.tensor_decompose(λ, μ)`` for one of the 56×56 ordered
    pairs of GL5 partitions with entries at most 3.

    Why: ``rootdata`` does almost all of the work, split between
    Littlewood-Richardson enumeration and re-wrapping the results as
    ``Weight`` objects; every other layer is bypassed.  The pairs come in
    seeded order and each factor carries a seeded determinant twist in ½ℤ,
    so half-integer coordinates appear as they do in real spinor weights.
    Twists do not change the LR cache key, so one cold round has 35² = 1225
    LR misses and 1911 hits whatever the seed.
    """

    name = "lr-box"
    cold_per_op = False
    PARTITIONS = tuple(p for p in itertools.product(range(3, -1, -1), repeat=5)
                       if all(p[i] >= p[i + 1] for i in range(4)))
    TWISTS = tuple(Fraction(k, 2) for k in range(-4, 5))
    ORACLE_SAMPLE = 128

    def __init__(self) -> None:
        text = (REFERENCES / f"lr-box-seed{DEFAULT_SEED}.sha256").read_text()
        self.digests = {DEFAULT_SEED: text.split()[0]}

    def inputs(self, seed: int) -> list[LRInput]:
        """The seed's inputs; also fixes the oracle sample and digest that ``check`` uses."""
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for lam in self.PARTITIONS:
            for mu in self.PARTITIONS:
                a, b = rng.choice(self.TWISTS), rng.choice(self.TWISTS)
                out.append(LRInput(lam, mu, rootdata.Weight(lam).shifted(a),
                                   rootdata.Weight(mu).shifted(b)))
        rng.shuffle(out)
        self.seed = seed
        self.sample = sorted(rng.sample(range(len(out)), self.ORACLE_SAMPLE))
        return out

    def op(self, x: LRInput):
        return rootdata.tensor_decompose(x.left, x.right)

    def check(self, inputs: list[LRInput], outputs: list) -> list[Optional[str]]:
        dims: dict[tuple, int] = {}

        def dim(coords) -> int:
            key = tuple(coords)
            if key not in dims:
                dims[key] = _gl5_dim(key)
            return dims[key]

        problems: list[Optional[str]] = [None] * len(inputs)
        for i, (x, out) in enumerate(zip(inputs, outputs)):
            if out is None:
                continue
            total = sum(m * dim(w) for w, m in out)
            if total != dim(x.lam) * dim(x.mu):
                problems[i] = (f"dimension {total} != {dim(x.lam)} * {dim(x.mu)} "
                               f"for {x.left} x {x.right}")
        klimyk = _load_klimyk_oracle()
        for i in self.sample:
            x, out = inputs[i], outputs[i]
            if out is not None and problems[i] is None and dict(out) != klimyk(x.left, x.right):
                problems[i] = f"disagrees with the Klimyk oracle for {x.left} x {x.right}"
        expected = self.digests.get(self.seed)
        if (expected is not None and all(out is not None for out in outputs)
                and self.digest(inputs, outputs) != expected):
            problems = [p or "round digest differs from the committed reference" for p in problems]
        return problems

    @staticmethod
    def digest(inputs: list[LRInput], outputs: list) -> str:
        lines = sorted(
            f"{x.left}|{x.right}=" + ";".join(sorted(f"{w}:{m}" for w, m in out))
            for x, out in zip(inputs, outputs))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# bundle-queries
# ---------------------------------------------------------------------------


class BundleQuery(NamedTuple):
    expr: str
    rank: int   # product of the factor ranks, known from the generator


class BundleQueries:
    """One op is ``bbw.make_bundle``, tenfold ``bbw.cohomology``, then
    ``sections.section_cohomology`` at codimensions 6, 7, 8 and 9, for one
    bundle expression in the README grammar.

    Why: ``bbw`` and ``sections`` do the work, and ``rootdata`` is used
    differently than in ``lr-box``: many small tensor products, mostly LR
    cache hits, plus ``bbw_regularize``/``weyl_dim`` on every summand.  The
    3-factor products set ``op_p90_ms``.  Expressions have 1-3 factors, each
    ``O``, ``U`` or ``dual(U)``, sometimes spelled through a nested
    ``dual(...)``, with twists in [-8, 8].  The mix is stratified rather than
    drawn freely: every ordered tuple of factor types appears equally often
    within its factor count, and the three factor counts are equally common,
    so seeds differ in twists, spellings and order but not in how much
    tensor work a round holds.
    """

    name = "bundle-queries"
    cold_per_op = False
    CODIMS = (6, 7, 8, 9)
    REPEATS = {1: 36, 2: 12, 3: 4}   # 108 expressions per factor count, 324 in all
    RANKS = {"O": 1, "U": 5, "Ud": 5}
    PLAIN = {"O": "O", "U": "U", "Ud": "dual(U)"}
    DUAL_OF = {"O": "O", "U": "Ud", "Ud": "U"}

    def _factor(self, rng: random.Random, kind: str) -> str:
        if rng.random() < 0.25:
            text = f"dual({self.PLAIN[self.DUAL_OF[kind]]}({rng.randint(-8, 8)}))"
        else:
            text = self.PLAIN[kind]
        if rng.random() < 0.7:
            text += f"({rng.randint(-8, 8)})"
        return text

    def inputs(self, seed: int) -> list[BundleQuery]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for count, repeats in self.REPEATS.items():
            for kinds in itertools.product(self.RANKS, repeat=count):
                rank = math.prod(self.RANKS[kind] for kind in kinds)
                for _ in range(repeats):
                    out.append(BundleQuery("*".join(self._factor(rng, k) for k in kinds), rank))
        rng.shuffle(out)
        return out

    def op(self, x: BundleQuery):
        bundle = bbw.make_bundle(x.expr)
        return bundle, bbw.cohomology(bundle), tuple(
            sections.section_cohomology(bundle, codim) for codim in self.CODIMS)

    def check(self, inputs: list[BundleQuery], outputs: list) -> list[Optional[str]]:
        problems: list[Optional[str]] = [None] * len(inputs)
        for i, (x, out) in enumerate(zip(inputs, outputs)):
            if out is None:
                continue
            bundle, table, results = out
            if bundle.rank != x.rank:
                problems[i] = f"rank {bundle.rank} != {x.rank} for {x.expr}"
                continue
            serre = bbw.cohomology(bundle.dual().twist(bbw.CANONICAL_TWIST))
            if any(table.dim(d) != serre.dim(bbw.DIM - d) for d in range(bbw.DIM + 1)):
                problems[i] = f"Serre duality fails for {x.expr}: {table} vs {serre}"
                continue
            for codim, res in zip(self.CODIMS, results):
                page = sections.koszul_page(bundle, codim)
                alternating = sum(n if (q - p) % 2 == 0 else -n for (p, q), n in page.items())
                if res.euler != alternating:
                    problems[i] = (f"codim {codim} Euler {res.euler} != page sum "
                                   f"{alternating} for {x.expr}")
                    break
        return problems


# ---------------------------------------------------------------------------
# paper-replay
# ---------------------------------------------------------------------------


class PaperReplay:
    """One op is ``cli.run(["verify", "--suite", s, "--format", "json"])`` with
    stdout captured, from empty caches.

    Why: this is the paper's headline use.  ``intersect`` and ``mukai`` do
    about half the work (``cherns``, ``sod``, ``conics``) and ``sections``
    most of the rest: the ``koszul`` suite recomputes
    ``pipeline_e1y_vanishing`` six times and sets ``op_p90_ms``.  ``lr-box``
    bypasses all of this.  Each suite appears 20 times per round in seeded
    order, so the mix is the same on every seed.
    """

    name = "paper-replay"
    cold_per_op = True
    SUITES = ("bbw", "koszul", "cherns", "sod", "conics")
    REPEATS = 20
    CHECKS = 49

    def __init__(self) -> None:
        self.references = {s: (REFERENCES / f"verify-{s}.json").read_text() for s in self.SUITES}
        checks = [c for text in self.references.values() for c in json.loads(text)["checks"]]
        if len(checks) != self.CHECKS or not all(c["pass"] for c in checks):
            raise RuntimeError(f"committed references must hold {self.CHECKS} passing checks")

    def inputs(self, seed: int) -> list[str]:
        out = [s for s in self.SUITES for _ in range(self.REPEATS)]
        random.Random(f"{self.name}:{seed}").shuffle(out)
        return out

    def op(self, suite: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["verify", "--suite", suite, "--format", "json"])
        return code, buf.getvalue()

    def check(self, inputs: list[str], outputs: list) -> list[Optional[str]]:
        problems: list[Optional[str]] = [None] * len(inputs)
        for i, (suite, out) in enumerate(zip(inputs, outputs)):
            if out is None:
                continue
            code, text = out
            if code != 0:
                problems[i] = f"verify --suite {suite} exited {code}"
            elif text != self.references[suite]:
                problems[i] = f"verify --suite {suite} output differs from its reference"
        return problems


WORKLOADS = {w.name: w for w in (LRBox, BundleQueries, PaperReplay)}
