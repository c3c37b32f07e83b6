"""Command-line front end.

Subcommands:

* ``bbw``     cohomology on the spinor tenfold (bundle expression or weight)
* ``koszul``  cohomology on a generic linear section of given codimension
* ``chern``   Chern data of the tautological and universal bundles
* ``fm``      numerical integral transforms and Gram reports
* ``verify``  replay the whole battery of reference computations

Output is a plain table by default or JSON with ``--format json``; all
rationals are rendered exactly as ``p/q`` strings.  Exit codes: 0 on
success, 1 when a computation-level check fails or errors, 2 for usage
or syntax errors.

``run`` alone renders output: each ``_cmd_*`` handler computes its result
once and returns its JSON payload, its text lines and its exit code, or
raises before anything is printed; ``run`` picks the format and prints.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import bbw, intersect, mukai, sections
from .bbw import BundleExprError, make_bundle
from .intersect import ClassSyntaxError, CohClass, Q
from .rootdata import RationalSyntaxError, Weight, read_rational


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------


class VerifyCheck(NamedTuple):
    name: str
    claim: str
    expected: str
    computed: str
    ok: bool


class VerifyReport(NamedTuple):
    suite: str
    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.ok,
            "checks": [
                {"name": c.name, "claim": c.claim, "expected": c.expected,
                 "computed": c.computed, "pass": c.ok}
                for c in self.checks
            ],
        }


class _Record(NamedTuple):
    """One verify check.  ``compute(memo)`` returns the computed value or, when
    ``expected`` is None, ``dict(expected=..., computed=...)`` with the two
    evaluated in the order they are written."""

    name: str
    claim: str
    expected: object
    compute: Callable[["_Memo"], object]


class _Memo(dict):
    """The ``_SHARED`` values several checks of one ``verify_suite`` call share, each
    computed on first use.  Pipeline results are shared by ``sections.pipeline``'s memo."""

    def __missing__(self, key: str):
        self[key] = _SHARED[key](self)
        return self[key]


def _run_record(record: _Record, memo: _Memo) -> VerifyCheck:
    value = record.compute(memo)
    expected, computed = ((value["expected"], value["computed"]) if record.expected is None
                          else (record.expected, value))
    return VerifyCheck(record.name, record.claim, str(expected), str(computed),
                       expected == computed)


def _status(res: sections.SectionResult, degree: Optional[int] = None) -> str:
    return f"{res.status}:{res.table if degree is None else res.table.dim(degree)}"


def _adjoint(left: str, right: str) -> bool:
    """chi(L x, y) = chi(x, R y) on full bases, for the kernels named ``left`` (L)
    and ``right`` (R), L left adjoint to R."""
    lx, ry = ([(x, mukai.transform(k, x))
               for x in (CohClass.basis_class(k.source, label) for label in k.source.basis)]
              for k in (mukai.kernel(left), mukai.kernel(right)))
    return all(intersect.chi(y.model, image_x, y) == intersect.chi(x.model, x, image_y)
               for x, image_x in lx for y, image_y in ry)


def _tautological_chi(m: _Memo) -> str:
    X = intersect.model_x()
    taut = intersect.tautological_ch(X)
    chi_taut = intersect.chi(X, CohClass.unit(X), taut)
    chi_taut_dual = intersect.chi(X, CohClass.unit(X),
                                  taut.dual().twisted(-1 * intersect.hyperplane(X)))
    return f"{chi_taut}, {chi_taut_dual}"


def _stated_c1_c2_threefold_curve() -> tuple[CohClass, CohClass]:
    """c1 = H_X + H_C and c2 = (7/12) H_X H_C + 5 L + eta on the threefold-curve product."""
    prod = intersect.x_times_curve()
    (hx, hc), X = intersect._factor_hyperplanes(prod), prod.factors[0]
    return hx + hc, ((hx * hc).scale(Q(7, 12)) + CohClass.basis_class(prod, intersect.ETA)
                     + intersect.lift_left(prod, CohClass.basis_class(X, "L", 5)))


def _universal_c2_k3_pair(m: _Memo) -> dict:
    prod = intersect.s_times_sdual()
    c2 = intersect.universal_ch(prod).chern_classes()[1]
    (hs, hsd), (S, Sd) = intersect._factor_hyperplanes(prod), prod.factors
    return dict(computed=str(c2), expected=str(
        (hs * hsd).scale(Q(7, 12)) + intersect.lift_left(prod, CohClass.basis_class(S, "P", 5))
        + intersect.lift_right(prod, CohClass.basis_class(Sd, "P", 5))))


def _chi_without_eta(m: _Memo) -> str:
    no_eta = intersect.x_times_curve(eta_square=0)
    uni = intersect.universal_ch(no_eta)
    return str(intersect.chi(no_eta, uni, uni))


def _glueing_defect_below_top() -> bool:
    """The glued-kernel character equals the two corrected pushforwards in
    codimension < 5; the top class sees the truncated transcendental block."""
    XxS, XxC, SxS = intersect.x_times_sdual(), intersect.x_times_curve(), intersect.s_times_sdual()
    (X, Sd), S = XxS.factors, SxS.factors[0]

    e1 = intersect.universal_ch(XxC)
    hx, hc = intersect._factor_hyperplanes(XxC)
    w1 = e1 * intersect.exp_class(-1 * hx) \
        * (CohClass.unit(XxC) - hc.scale(Q(1, 2)))  # normal-bundle Todd inverse
    push1 = intersect.geom_map("mu1").push(w1)

    e2 = intersect.universal_ch(SxS)
    hs = intersect.lift_left(SxS, intersect.hyperplane(S))
    td_inv = CohClass.unit(SxS) - hs.scale(Q(1, 2)) \
        + intersect.lift_left(SxS, CohClass.basis_class(S, "P", 2))
    push2 = intersect.geom_map("mu2").push(e2 * td_inv)

    glued = intersect.lift_left(XxS, intersect.tautological_ch(X).dual()) \
        - intersect.lift_right(XxS, intersect.tautological_ch(Sd))
    defect = glued - push1 - push2
    return all(defect.component(k).is_zero for k in range(0, XxS.dim))


def _mutated_pair(m: _Memo) -> tuple:
    X = intersect.model_x()
    report = mukai.gram([("O_X", CohClass.unit(X)), ("mutated", m["mutated"])], X)
    return report.semiorthogonal, report.exceptional


def _k3_transform_rank(m: _Memo) -> dict:
    mat = mukai.transform_matrix(mukai.kernel("phi2"))
    return dict(expected=len(mat), computed=mukai.matrix_rank(mat))


# A collection of n tokens has up to 2n classes and (2n)^2 Euler pairings.
_MAX_GRAM_TOKENS = 16


def _gram_collection(tokens: str) -> tuple[list[tuple[str, CohClass]], list[int]]:
    """The threefold classes named by comma-separated tokens, with their block
    sizes: u is U+, o is O_X, and phi1 the block (Phi1(O_C), Phi1(pt))."""
    names = tokens.split(",")
    if len(names) > _MAX_GRAM_TOKENS:
        raise ValueError(f"a gram collection has at most {_MAX_GRAM_TOKENS} tokens, "
                         f"got {len(names)}")
    collection: list[tuple[str, CohClass]] = []
    blocks: list[int] = []
    for token in names:
        token = token.strip()
        if token == "u":
            collection.append(("U+", mukai.class_u_plus()))
            blocks.append(1)
        elif token == "o":
            collection.append(("O_X", CohClass.unit(intersect.model_x())))
            blocks.append(1)
        elif token == "phi1":
            phi1_o = mukai.transform(mukai.kernel("phi1"), CohClass.unit(intersect.model_curve()))
            if phi1_o.rank != 0:
                raise ValueError(f"Phi1(O_C) has rank {phi1_o.rank}, not 0")
            collection += [("Phi1(O_C)", phi1_o), ("Phi1(pt)", mukai.class_e1y())]
            blocks.append(2)
        else:
            raise ValueError(f"unknown gram token {token!r} (use u, o, phi1)")
    return collection, blocks


# Values that several checks read, computed once per verify_suite call (see _Memo).
_SHARED: dict[str, Callable[[_Memo], object]] = {
    "c(E1)": lambda m: intersect.universal_ch(intersect.x_times_curve()).chern_classes(),
    "stated c(E1)": lambda m: _stated_c1_c2_threefold_curve(),
    "collection": lambda m: _gram_collection("u,o,phi1"),
    "gram": lambda m: mukai.gram(m["collection"][0], intersect.model_x(),
                                 blocks=m["collection"][1]),
    "mutated": lambda m: mukai.mutate(mukai.class_u_plus(), CohClass.unit(intersect.model_x()),
                                      intersect.model_x()),
    "orthogonal basis": lambda m: mukai.orthogonal_complement_basis(),
}

# name, claim, expected, bundle expression, codim of the linear section
_SECTION_ROWS = (
    ("threefold-structure-sheaf", "H(X, O) is one-dimensional in degree 0", "exact:{0: 1}", "O", 7),
    ("threefold-endomorphisms", "self-extensions of the tautological bundle", "exact:{0: 1}",
     "dual(U)*U", 7),
    ("threefold-tautological-acyclic", "H(X, U) = 0", "exact:{}", "U", 7),
    ("serre-partner-acyclic", "H(X, dual(U)(-1)) = 0", "exact:{}", "dual(U)(-1)", 7),
    ("adjoint-twist", "H(X, U*dual(U)(-1)) is a line in degree 3", "exact:{3: 1}",
     "U*dual(U)(-1)", 7),
    ("fourfold-dual-twist", "H on the index-2 fourfold of dual(U)(-1) vanishes", "exact:{}",
     "dual(U)(-1)", 6),
    ("k3-structure-sheaf", "K3 section has h^0 = h^2 = 1", "exact:{0: 1, 2: 1}", "O", 8),
)

# name, claim, expected, sections._PIPELINES entry, degree (None: the whole table)
_PIPELINE_ROWS = (
    ("e1y-twist-vanishing", "H(X, E1y(-H)) = 0 with a collapsed page", "exact:{}",
     "E1y(-H)", None),
    ("e1y-dualU-twist-vanishing", "H(X, E1y x dual(U)(-H)) = 0", "exact:{}",
     "E1y*dual(U)(-H)", None),
    ("e1y-double-twist-degree1", "H^1(X, E1y(-2H)) = 0, exactly solved", "exact:0",
     "E1y(-2H)", 1),
    ("e2y-twist-degree0", "H^0(S, E2y(-H)) = 0, exactly solved", "exact:0", "E2y(-H)", 0),
    ("e1y-tensor-u-vanishing", "H(X, E1y x U(-H)) = 0", "exact:{}", "E1y*U(-H)", None),
    ("e1y-dualU-double-twist", "H(X, E1y x dual(U)(-2H)) is a degree-3 line", "exact:{3: 1}",
     "E1y*dual(U)(-2H)", None),
)

# The checks of each suite in evaluation order.  A record looks up the library
# functions it calls when it runs, so wrappers installed on the modules see them.
SUITES: dict[str, tuple[_Record, ...]] = {
    "bbw": (
        _Record("sections-of-O(1)", "the ample generator has a 16-dimensional section space",
                "{0: 16}", lambda m: str(bbw.cohomology(make_bundle("O(1)")))),
        _Record("sections-of-dual-U", "dual tautological bundle has 10 sections",
                "{0: 10}", lambda m: str(bbw.cohomology(make_bundle("dual(U)")))),
        _Record("negative-twist-acyclicity", "O(-k) acyclic for k = 1..7",
                True, lambda m: all(bbw.cohomology(bbw.O(-k)).is_zero for k in range(1, 8))),
        _Record("canonical-twist", "O(-8) has one-dimensional top cohomology only",
                "{10: 1}", lambda m: str(bbw.cohomology(bbw.O(-8)))),
        _Record("tenfold-degree", "10! times the leading Hilbert coefficient",
                12, lambda m: bbw.tenfold_degree()),
    ),
    "koszul": (
        *(_Record(name, claim, expected, lambda m, e=expr, c=codim:
                  _status(sections.section_cohomology(make_bundle(e), c)))
          for name, claim, expected, expr, codim in _SECTION_ROWS),
        _Record("threefold-anticanonical-hilbert", "chi(O_X(1)) = 9",
                9, lambda m: sections.section_hilbert(7, 1)),
        _Record("curve-hilbert", "chi on the curve is 12k - 6 for k in -2..3", True,
                lambda m: all(sections.section_hilbert(9, k) == 12 * k - 6 for k in range(-2, 4))),
        *(_Record(name, claim, expected, lambda m, e=entry, d=degree:
                  _status(sections.pipeline(e), d))
          for name, claim, expected, entry, degree in _PIPELINE_ROWS),
    ),
    "cherns": (
        _Record("tautological-character", "ch(U) = 5 - 2H + P on the threefold", None,
                lambda m: dict(computed=str(intersect.tautological_ch(intersect.model_x())),
                               expected=str(CohClass(intersect.model_x(),
                                                     {"1": Q(5), "H": Q(-2), "P": Q(1)})))),
        _Record("tautological-chi", "chi(X, U) = 0 and chi(X, dual(U)(-1)) = 0",
                "0, 0", _tautological_chi),
        _Record("universal-c1-threefold-curve", "c1 = H_X + H_C", None, lambda m: dict(
            computed=str(m["c(E1)"][0]), expected=str(m["stated c(E1)"][0]))),
        _Record("universal-c2-threefold-curve", "c2 = (7/12) H_X H_C + 5 L + eta", None,
                lambda m: dict(computed=str(m["c(E1)"][1]), expected=str(m["stated c(E1)"][1]))),
        _Record("universal-ch3-threefold-curve", "ch_3 = -P/2", None, lambda m: dict(
            expected=str(CohClass(intersect.x_times_curve(), {"P*1": Q(-1, 2)})),
            computed=str(intersect.universal_ch(intersect.x_times_curve()).component(3)))),
        _Record("universal-c2-k3-pair", "c2 = (7/12) H_S H_Sd + 5 P_S + 5 P_Sd", None,
                _universal_c2_k3_pair),
        _Record("eta-square", "the formal class squares to 14 (sign as solved)",
                14, lambda m: abs(intersect.eta_square_solve())),
        _Record("eta-square-sign", "solver sign report", "14",
                lambda m: str(intersect.eta_square_solve())),
        _Record("eta-square-guard",
                "dropping eta breaks the moduli self-pairing (-20/3 instead of 12)",
                str(Q(-20, 3)), _chi_without_eta),
        _Record("todd-threefold", "chi(O_X) = 1 from the Todd class",
                1, lambda m: intersect.todd(intersect.model_x()).integrate()),
        _Record("todd-curve", "chi(O_C) = -6 from the Todd class",
                -6, lambda m: intersect.todd(intersect.model_curve()).integrate()),
        _Record("riemann-roch-vs-koszul", "chi(O_X(1)) agrees between routes", None,
                lambda m: dict(expected=sections.section_hilbert(7, 1), computed=(
                    intersect.exp_class(intersect.hyperplane(intersect.model_x()))
                    * intersect.todd(intersect.model_x())).integrate())),
        _Record("glueing-character", "glued kernel character matches its pieces "
                "below the top Kunneth class", True, lambda m: _glueing_defect_below_top()),
    ),
    "sod": (
        _Record("fiber-self-pairing-threefold", "chi(E1y, E1y) = 0", 0,
                lambda m: intersect.chi(intersect.model_x(), mukai.class_e1y(), mukai.class_e1y())),
        _Record("fiber-self-pairing-k3", "chi(E2y, E2y) = 0", 0,
                lambda m: intersect.chi(intersect.model_s(), mukai.class_e2y(), mukai.class_e2y())),
        _Record("gram-block-triangular", "no pairings backwards from later blocks",
                True, lambda m: m["gram"].semiorthogonal),
        _Record("gram-unit-diagonal", "the two exceptional classes are unit lines",
                (True, True), lambda m: m["gram"].exceptional[:2]),
        _Record("gram-span", "the four classes span the rank-4 even lattice", 4,
                lambda m: mukai.matrix_rank([[cls.coefficient(l) for l in cls.model.basis]
                                             for _, cls in m["collection"][0]])),
        _Record("mutation", "right mutation of U through O is dual(U)", None, lambda m: dict(
            computed=str(m["mutated"]), expected=str(mukai.class_u_plus_dual()))),
        _Record("mutated-pair", "the mutated pair is numerically exceptional",
                (True, (True, True)), _mutated_pair),
        _Record("orthogonal-complement-rank", "numerical left orthogonal of (U+, O) has rank 2",
                2, lambda m: len(m["orthogonal basis"])),
        _Record("glued-kernel-vanishing", "glued-kernel transform kills the orthogonal complement",
                True, lambda m: all(mukai.commdiag_check(v) for v in m["orthogonal basis"])),
        _Record("adjunction-threefold-curve", "chi(Phi1 b, a) = chi(b, Phi1! a) on full bases",
                True, lambda m: _adjoint("phi1", "phi1-shriek")),
        _Record("adjunction-k3-pair", "chi(Phi2* a, b) = chi(a, Phi2 b) on full bases",
                True, lambda m: _adjoint("phi2-left", "phi2")),
        _Record("k3-transform-invertible", "the K3 transform is invertible on the truncated "
                "lattice", None, _k3_transform_rank),
    ),
    "conics": (
        _Record("conic-degree", "deg of the tautological bundle on a conic is -4", Q(-4),
                lambda m: (mukai.class_u_plus().chern_classes()[0]
                           * mukai.class_o_conic()).integrate()),
        _Record("conic-vs-structure", "chi(O_R, O_X) = 1", 1, lambda m: intersect.chi(
            intersect.model_x(), mukai.class_o_conic(), CohClass.unit(intersect.model_x()))),
        _Record("conic-vs-tautological", "chi(O_R, U+) = 1", 1, lambda m: intersect.chi(
            intersect.model_x(), mukai.class_o_conic(), mukai.class_u_plus())),
        _Record("conic-right-transform", "the right adjoint sends a conic to a length-2 cycle",
                None, lambda m: dict(
                    expected=str(CohClass.basis_class(intersect.model_curve(), "pt", 2)),
                    computed=str(mukai.transform(mukai.kernel("phi1-shriek"),
                                                 mukai.class_o_conic())))),
    ),
}


def verify_suite(name: str = "all") -> VerifyReport:
    """Run a named verification suite (or all of them); deterministic.  The values
    several checks share are computed once per call."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    records = [r for suite in SUITES.values() for r in suite] if name == "all" else SUITES[name]
    memo = _Memo()
    return VerifyReport(name, tuple(_run_record(r, memo) for r in records))


# ---------------------------------------------------------------------------
# argument handling and rendering
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ClassSyntaxError(f"{name} is not a rational number")


def _class_from_text(text: str, model) -> CohClass:
    """A named class (text starting with an ASCII letter) or a JSON object
    read by ``CohClass.from_json``; JSON numbers are read exactly from their
    decimal text (0.1 is 1/10)."""
    text = text.strip()
    if text[:1].isascii() and text[:1].isalpha():
        return mukai.named_class(text, model)
    try:
        data = json.loads(text, parse_float=read_rational, parse_int=read_rational,
                          parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ClassSyntaxError(f"malformed JSON class: {exc}") from None
    cls = CohClass.from_json(model, data)
    rank = cls.coefficient(model.basis[0])
    if rank.denominator != 1:
        raise ValueError("JSON class has a non-integral rank component")
    return cls


def _cmd_bbw(args) -> tuple:
    if args.weight is not None:
        w = Weight.from_text(args.weight)
        bundle = bbw.irreducible(w)
    else:
        bundle = make_bundle(args.bundle)
    table = bbw.cohomology(bundle)
    return {"h": table.to_json(), "euler": table.euler}, [str(table)], 0


def _cmd_koszul(args) -> tuple:
    bundle = make_bundle(args.bundle).twist(bbw.read_twist(args.twist.strip()))
    res = sections.section_cohomology(bundle, args.codim)
    return res.to_json(), [f"status: {res.status}", f"h: {res.table}", f"euler: {res.euler}"], 0


def _cmd_chern(args) -> tuple:
    if args.target == "eta2":
        val = intersect.eta_square_solve()
        return {"eta_square": str(val)}, [f"eta^2 = {val}"], 0
    if args.target == "U-plus":
        ch = intersect.tautological_ch(intersect.model_x())
    else:
        ch = intersect.universal_ch(intersect.x_times_curve() if args.target == "E1"
                                    else intersect.s_times_sdual())
    cs = {i: c for i, c in enumerate(ch.chern_classes(), 1) if not c.is_zero}
    return ({"model": ch.model.name, "rank": ch.rank, "ch": ch.to_json(),
             "c": {str(i): c.to_json() for i, c in cs.items()}},
            [f"model: {ch.model.name}", f"rank: {ch.rank}", f"ch: {ch}",
             *(f"c{i}: {c}" for i, c in cs.items())], 0)


def _cmd_fm(args) -> tuple:
    if args.gram is not None and (args.kernel or args.apply is not None):
        raise ValueError("fm takes either --gram or --kernel and --apply, not both")
    if args.gram:
        collection, blocks = _gram_collection(args.gram)
        report = mukai.gram(collection, intersect.model_x(), blocks=blocks)
        return report.to_json(), ["  ".join(report.labels),
                                  *("  ".join(str(x) for x in row) for row in report.matrix),
                                  f"exceptional: {list(report.exceptional)}",
                                  f"semiorthogonal: {report.semiorthogonal}"], 0
    if not args.kernel or args.apply is None:
        raise ValueError("fm needs either --gram or both --kernel and --apply")
    K = mukai.kernel(args.kernel)
    data = _class_from_text(args.apply, K.source)
    out = mukai.transform(K, data)
    return {"model": out.model.name, "class": out.to_json()}, [f"{out} (on {out.model.name})"], 0


def _cmd_verify(args) -> tuple:
    report = verify_suite(args.suite)
    lines = [f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.claim} "
             f"(expected {c.expected}, computed {c.computed})" for c in report.checks]
    lines.append(f"suite {report.suite}: {'PASS' if report.ok else 'FAIL'} "
                 f"({sum(c.ok for c in report.checks)}/{len(report.checks)})")
    return report.to_json(), lines, 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose error line stays one line: a control character in the
    tokens it echoes is printed as its backslash escape."""

    def error(self, message: str):
        super().error("".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                              for c in message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinorcalc",
        description="Exact cohomology calculator for the spinor tenfold and its Fano sections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bbw = sub.add_parser("bbw", help="cohomology on the spinor tenfold")
    group = p_bbw.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", help='bundle expression, e.g. "dual(U)*U(-1)"')
    group.add_argument("--weight", help='weight of an irreducible bundle, e.g. "1,0,0,0,-1"')
    p_bbw.set_defaults(func=_cmd_bbw)

    p_koszul = sub.add_parser("koszul", help="cohomology on a linear section")
    p_koszul.add_argument("--codim", type=int, required=True)
    p_koszul.add_argument("--bundle", required=True)
    p_koszul.add_argument("--twist", default="0")
    p_koszul.set_defaults(func=_cmd_koszul)

    p_chern = sub.add_parser("chern", help="Chern data of the named bundles")
    p_chern.add_argument("--target", choices=("E1", "E2", "U-plus", "eta2"), required=True)
    p_chern.set_defaults(func=_cmd_chern)

    p_fm = sub.add_parser("fm", help="numerical integral transforms")
    p_fm.add_argument("--kernel", choices=mukai.KERNELS)
    p_fm.add_argument("--apply", help="named class (O_R, E1y, ...) or JSON coefficients")
    p_fm.add_argument("--gram", help="comma-separated collection tokens: u, o, phi1")
    p_fm.set_defaults(func=_cmd_fm)

    p_verify = sub.add_parser("verify", help="replay the reference computations")
    p_verify.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    p_verify.set_defaults(func=_cmd_verify)
    for p in (p_bbw, p_koszul, p_chern, p_fm, p_verify):
        p.add_argument("--format", choices=("json", "table"), default="table")
    return parser


# Built on the first run() rather than at import, which would slow the import.
_PARSER: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point returning an exit code (0 ok, 1 computation error, 2 usage)."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines, code = args.func(args)
    except (BundleExprError, RationalSyntaxError, ClassSyntaxError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, sections.SpliceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload) if args.format == "json" else "\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
