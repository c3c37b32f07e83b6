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
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import bbw, intersect, mukai, sections
from .bbw import BundleExprError, make_bundle
from .intersect import ClassSyntaxError, CohClass, Q
from .rootdata import RationalSyntaxError, Weight, read_rational


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    claim: str
    expected: str
    computed: str
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
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


def _check(name: str, claim: str, expected, computed) -> VerifyCheck:
    return VerifyCheck(name, claim, str(expected), str(computed), expected == computed)


def _suite_bbw() -> list[VerifyCheck]:
    out = [
        _check("sections-of-O(1)", "the ample generator has a 16-dimensional section space",
               "{0: 16}", str(bbw.cohomology(make_bundle("O(1)")))),
        _check("sections-of-dual-U", "dual tautological bundle has 10 sections",
               "{0: 10}", str(bbw.cohomology(make_bundle("dual(U)")))),
        _check("negative-twist-acyclicity", "O(-k) acyclic for k = 1..7",
               True, all(bbw.cohomology(bbw.O(-k)).is_zero for k in range(1, 8))),
        _check("canonical-twist", "O(-8) has one-dimensional top cohomology only",
               "{10: 1}", str(bbw.cohomology(bbw.O(-8)))),
        _check("tenfold-degree", "10! times the leading Hilbert coefficient",
               12, bbw.tenfold_degree()),
    ]
    return out


def _suite_koszul() -> list[VerifyCheck]:
    def tab(expr: str, codim: int) -> str:
        res = sections.section_cohomology(make_bundle(expr), codim)
        return f"{res.status}:{res.table}"

    checks = [
        _check("threefold-structure-sheaf", "H(X, O) is one-dimensional in degree 0",
               "exact:{0: 1}", tab("O", 7)),
        _check("threefold-endomorphisms", "self-extensions of the tautological bundle",
               "exact:{0: 1}", tab("dual(U)*U", 7)),
        _check("threefold-tautological-acyclic", "H(X, U) = 0",
               "exact:{}", tab("U", 7)),
        _check("serre-partner-acyclic", "H(X, dual(U)(-1)) = 0",
               "exact:{}", tab("dual(U)(-1)", 7)),
        _check("adjoint-twist", "H(X, U*dual(U)(-1)) is a line in degree 3",
               "exact:{3: 1}", tab("U*dual(U)(-1)", 7)),
        _check("fourfold-dual-twist", "H on the index-2 fourfold of dual(U)(-1) vanishes",
               "exact:{}", tab("dual(U)(-1)", 6)),
        _check("k3-structure-sheaf", "K3 section has h^0 = h^2 = 1",
               "exact:{0: 1, 2: 1}", tab("O", 8)),
        _check("threefold-anticanonical-hilbert", "chi(O_X(1)) = 9",
               9, sections.section_hilbert(7, 1)),
        _check("curve-hilbert", "chi on the curve is 12k - 6 for k in -2..3",
               True,
               all(sections.section_hilbert(9, k) == 12 * k - 6 for k in range(-2, 4))),
    ]

    plain, tensored = sections.pipeline_e1y_vanishing()
    checks += [
        _check("e1y-twist-vanishing", "H(X, E1y(-H)) = 0 with a collapsed page",
               "exact:{}", f"{plain.status}:{plain.table}"),
        _check("e1y-dualU-twist-vanishing", "H(X, E1y x dual(U)(-H)) = 0",
               "exact:{}", f"{tensored.status}:{tensored.table}"),
    ]
    double = sections.pipeline_e1y_double_twist()
    checks.append(_check("e1y-double-twist-degree1", "H^1(X, E1y(-2H)) = 0, exactly solved",
                         "exact:0", f"{double.status}:{double.table.dim(1)}"))
    h0 = sections.pipeline_e2y_h0()
    checks.append(_check("e2y-twist-degree0", "H^0(S, E2y(-H)) = 0, exactly solved",
                         "exact:0", f"{h0.status}:{h0.table.dim(0)}"))
    tensor_u = sections.pipeline_e1y_tensor_u()
    checks.append(_check("e1y-tensor-u-vanishing", "H(X, E1y x U(-H)) = 0",
                         "exact:{}", f"{tensor_u.status}:{tensor_u.table}"))
    adj = sections.pipeline_e1y_tensor_udual_2h()
    checks.append(_check("e1y-dualU-double-twist", "H(X, E1y x dual(U)(-2H)) is a degree-3 line",
                         "exact:{3: 1}", f"{adj.status}:{adj.table}"))
    return checks


def _suite_cherns() -> list[VerifyCheck]:
    X = intersect.model_x()
    checks = []

    taut = intersect.tautological_ch(X)
    expected = CohClass(X, {"1": Q(5), "H": Q(-2), "P": Q(1)})
    checks.append(_check("tautological-character", "ch(U) = 5 - 2H + P on the threefold",
                         str(expected), str(taut)))
    chi_taut = mukai.euler(X, CohClass.unit(X), taut)
    chi_taut_dual = mukai.euler(X, CohClass.unit(X),
                                taut.dual().twisted(-1 * intersect.hyperplane(X)))
    checks.append(_check("tautological-chi", "chi(X, U) = 0 and chi(X, dual(U)(-1)) = 0",
                         "0, 0", f"{chi_taut}, {chi_taut_dual}"))

    prod = intersect.x_times_curve()
    e1 = intersect.universal_ch(prod)
    c1, c2 = e1.chern_classes()[:2]
    expected_c1 = intersect.lift_left(prod, intersect.hyperplane(X)) \
        + intersect.lift_right(prod, intersect.hyperplane(intersect.model_curve()))
    expected_c2 = (
        intersect.lift_left(prod, intersect.hyperplane(X))
        * intersect.lift_right(prod, intersect.hyperplane(intersect.model_curve()))
    ).scale(Q(7, 12)) + intersect.lift_left(
        prod, CohClass.basis_class(X, "L", 5)) + CohClass.basis_class(prod, intersect.ETA)
    checks.append(_check("universal-c1-threefold-curve", "c1 = H_X + H_C",
                         str(expected_c1), str(c1)))
    checks.append(_check("universal-c2-threefold-curve",
                         "c2 = (7/12) H_X H_C + 5 L + eta",
                         str(expected_c2), str(c2)))
    checks.append(_check("universal-ch3-threefold-curve", "ch_3 = -P/2",
                         str(CohClass(prod, {"P*1": Q(-1, 2)})), str(e1.component(3))))

    Ssurf, Sd = intersect.model_s(), intersect.model_sdual()
    prod2 = intersect.s_times_sdual()
    e2 = intersect.universal_ch(prod2)
    c2_2 = e2.chern_classes()[1]
    expected_c2_2 = (intersect.lift_left(prod2, intersect.hyperplane(Ssurf))
                     * intersect.lift_right(prod2, intersect.hyperplane(Sd))).scale(Q(7, 12)) \
        + intersect.lift_left(prod2, CohClass.basis_class(Ssurf, "P", 5)) \
        + intersect.lift_right(prod2, CohClass.basis_class(Sd, "P", 5))
    checks.append(_check("universal-c2-k3-pair", "c2 = (7/12) H_S H_Sd + 5 P_S + 5 P_Sd",
                         str(expected_c2_2), str(c2_2)))

    eta2 = intersect.eta_square_solve()
    checks.append(_check("eta-square", "the formal class squares to 14 (sign as solved)",
                         14, abs(eta2)))
    checks.append(_check("eta-square-sign", "solver sign report", "14", str(eta2)))

    no_eta = intersect.x_times_curve(eta_square=0)
    uni0 = intersect.universal_ch(no_eta)
    checks.append(_check("eta-square-guard",
                         "dropping eta breaks the moduli self-pairing (-20/3 instead of 12)",
                         str(Q(-20, 3)), str(intersect.chi(no_eta, uni0, uni0))))

    checks.append(_check("todd-threefold", "chi(O_X) = 1 from the Todd class",
                         1, intersect.todd(X).integrate()))
    checks.append(_check("todd-curve", "chi(O_C) = -6 from the Todd class",
                         -6, intersect.todd(intersect.model_curve()).integrate()))
    checks.append(_check("riemann-roch-vs-koszul", "chi(O_X(1)) agrees between routes",
                         sections.section_hilbert(7, 1),
                         (intersect.exp_class(intersect.hyperplane(X))
                          * intersect.todd(X)).integrate()))
    checks.append(_check("glueing-character", "glued kernel character matches its pieces "
                         "below the top Kunneth class",
                         True, _glueing_defect_below_top()))
    return checks


def _glueing_defect_below_top() -> bool:
    """The glued-kernel character equals the two corrected pushforwards in
    codimension < 5; the top class sees the truncated transcendental block."""
    XxS = intersect.x_times_sdual()
    XxC = intersect.x_times_curve()
    SxS = intersect.s_times_sdual()
    X = intersect.model_x()
    S = intersect.model_s()
    C = intersect.model_curve()

    e1 = intersect.universal_ch(XxC)
    hx = intersect.lift_left(XxC, intersect.hyperplane(X))
    hc = intersect.lift_right(XxC, intersect.hyperplane(C))
    w1 = e1 * intersect.exp_class(-1 * hx) \
        * (CohClass.unit(XxC) - hc.scale(Q(1, 2)))  # normal-bundle Todd inverse
    push1 = intersect.geom_map("mu1").push(w1)

    e2 = intersect.universal_ch(SxS)
    hs = intersect.lift_left(SxS, intersect.hyperplane(S))
    td_inv = CohClass.unit(SxS) - hs.scale(Q(1, 2)) \
        + intersect.lift_left(SxS, CohClass.basis_class(S, "P", 2))
    push2 = intersect.geom_map("mu2").push(e2 * td_inv)

    glued = intersect.lift_left(XxS, intersect.tautological_ch(X).dual()) \
        - intersect.lift_right(XxS, intersect.tautological_ch(intersect.model_sdual()))
    defect = glued - push1 - push2
    return all(defect.component(k).is_zero for k in range(0, XxS.dim))


def _gram_collection(tokens: str) -> tuple[list[tuple[str, CohClass]], list[int]]:
    """The threefold classes named by comma-separated tokens, with their block
    sizes: u is U+, o is O_X, and phi1 the block (Phi1(O_C), Phi1(pt))."""
    collection: list[tuple[str, CohClass]] = []
    blocks: list[int] = []
    for token in tokens.split(","):
        token = token.strip()
        if token == "u":
            collection.append(("U+", mukai.class_u_plus()))
            blocks.append(1)
        elif token == "o":
            collection.append(("O_X", CohClass.unit(intersect.model_x())))
            blocks.append(1)
        elif token == "phi1":
            phi1_o = mukai.transform(mukai.kernel_phi1(), CohClass.unit(intersect.model_curve()))
            if phi1_o.rank != 0:
                raise ValueError(f"Phi1(O_C) has rank {phi1_o.rank}, not 0")
            collection += [("Phi1(O_C)", phi1_o), ("Phi1(pt)", mukai.class_e1y())]
            blocks.append(2)
        else:
            raise ValueError(f"unknown gram token {token!r} (use u, o, phi1)")
    return collection, blocks


def _suite_sod() -> list[VerifyCheck]:
    X = intersect.model_x()
    C = intersect.model_curve()
    Ssurf, Sd = intersect.model_s(), intersect.model_sdual()
    checks = [
        _check("fiber-self-pairing-threefold", "chi(E1y, E1y) = 0",
               0, mukai.euler(X, mukai.class_e1y(), mukai.class_e1y())),
        _check("fiber-self-pairing-k3", "chi(E2y, E2y) = 0",
               0, mukai.euler(Ssurf, mukai.class_e2y(), mukai.class_e2y())),
    ]

    coll, blocks = _gram_collection("u,o,phi1")
    report = mukai.gram(coll, X, blocks=blocks)
    checks.append(_check("gram-block-triangular",
                         "no pairings backwards from later blocks", True, report.semiorthogonal))
    checks.append(_check("gram-unit-diagonal", "the two exceptional classes are unit lines",
                         (True, True), report.exceptional[:2]))
    rows = [[cls.coefficient(l) for l in X.basis] for _, cls in coll]
    checks.append(_check("gram-span", "the four classes span the rank-4 even lattice",
                         4, mukai.matrix_rank(rows)))

    mutated = mukai.mutate(mukai.class_u_plus(), CohClass.unit(X), X, "right")
    checks.append(_check("mutation", "right mutation of U through O is dual(U)",
                         str(mukai.class_u_plus_dual()), str(mutated)))
    mreport = mukai.gram([("O_X", CohClass.unit(X)), ("mutated", mutated)], X)
    checks.append(_check("mutated-pair", "the mutated pair is numerically exceptional",
                         (True, (True, True)), (mreport.semiorthogonal, mreport.exceptional)))

    basis = mukai.orthogonal_complement_basis()
    checks.append(_check("orthogonal-complement-rank",
                         "numerical left orthogonal of (U+, O) has rank 2",
                         2, len(basis)))
    checks.append(_check("glued-kernel-vanishing",
                         "glued-kernel transform kills the orthogonal complement",
                         True, all(mukai.commdiag_check(v) for v in basis)))

    def images(kernel, basis):
        return [(b, mukai.transform(kernel, b)) for b in basis]

    x_basis, c_basis, s_basis, sd_basis = ([CohClass.basis_class(m, l) for l in m.basis]
                                           for m in (X, C, Ssurf, Sd))
    phi1_c = images(mukai.kernel_phi1(), c_basis)
    phi1s_x = images(mukai.kernel_phi1_shriek(), x_basis)
    adj_ok = all(mukai.euler(X, pb, a) == mukai.euler(C, b, pa)
                 for b, pb in phi1_c for a, pa in phi1s_x)
    checks.append(_check("adjunction-threefold-curve",
                         "chi(Phi1 b, a) = chi(b, Phi1! a) on full bases", True, adj_ok))
    phi2 = mukai.kernel_phi2()
    phi2l_s = images(mukai.kernel_phi2_left(), s_basis)
    phi2_sd = images(phi2, sd_basis)
    adj2_ok = all(mukai.euler(Sd, pa, b) == mukai.euler(Ssurf, a, pb)
                  for a, pa in phi2l_s for b, pb in phi2_sd)
    checks.append(_check("adjunction-k3-pair",
                         "chi(Phi2* a, b) = chi(a, Phi2 b) on full bases", True, adj2_ok))

    mat = mukai.transform_matrix(phi2)
    checks.append(_check("k3-transform-invertible",
                         "the K3 transform is invertible on the truncated lattice",
                         len(mat), mukai.matrix_rank(mat)))
    return checks


def _suite_conics() -> list[VerifyCheck]:
    X = intersect.model_x()
    conic = mukai.class_o_conic()
    taut_c1 = mukai.class_u_plus().chern_classes()[0]
    checks = [
        _check("conic-degree", "deg of the tautological bundle on a conic is -4",
               Q(-4), (taut_c1 * conic).integrate()),
        _check("conic-vs-structure", "chi(O_R, O_X) = 1",
               1, mukai.euler(X, conic, CohClass.unit(X))),
        _check("conic-vs-tautological", "chi(O_R, U+) = 1",
               1, mukai.euler(X, conic, mukai.class_u_plus())),
        _check("conic-right-transform", "the right adjoint sends a conic to a length-2 cycle",
               str(CohClass.basis_class(intersect.model_curve(), "pt", 2)),
               str(mukai.transform(mukai.kernel_phi1_shriek(), conic))),
    ]
    return checks


SUITES: dict[str, Callable[[], list[VerifyCheck]]] = {
    "bbw": _suite_bbw,
    "koszul": _suite_koszul,
    "cherns": _suite_cherns,
    "sod": _suite_sod,
    "conics": _suite_conics,
}


def verify_suite(name: str = "all") -> VerifyReport:
    """Run a named verification suite (or all of them); deterministic."""
    if name == "all":
        checks: list[VerifyCheck] = []
        for suite in SUITES.values():
            checks.extend(suite())
        return VerifyReport("all", tuple(checks))
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    return VerifyReport(name, tuple(SUITES[name]()))


# ---------------------------------------------------------------------------
# argument handling and rendering
# ---------------------------------------------------------------------------


def _render_table(res: sections.SectionResult) -> str:
    return "\n".join([f"status: {res.status}", f"h: {res.table}", f"euler: {res.euler}"])


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


def _cmd_bbw(args) -> int:
    if args.weight is not None:
        w = Weight.from_text(args.weight)
        bundle = bbw.irreducible(w)
    else:
        bundle = make_bundle(args.bundle)
    table = bbw.cohomology(bundle)
    if args.format == "json":
        print(json.dumps({"h": table.to_json(), "euler": table.euler}))
    else:
        print(table)
    return 0


def _cmd_koszul(args) -> int:
    bundle = make_bundle(args.bundle).twist(bbw.read_twist(args.twist.strip()))
    res = sections.section_cohomology(bundle, args.codim)
    print(json.dumps(res.to_json()) if args.format == "json" else _render_table(res))
    return 0


def _cmd_chern(args) -> int:
    target = args.target
    if target == "eta2":
        val = intersect.eta_square_solve()
        out = {"eta_square": str(val)}
        print(json.dumps(out) if args.format == "json" else f"eta^2 = {val}")
        return 0
    if target == "U-plus":
        ch = intersect.tautological_ch(intersect.model_x())
    elif target == "E1":
        ch = intersect.universal_ch(intersect.x_times_curve())
    elif target == "E2":
        ch = intersect.universal_ch(intersect.s_times_sdual())
    else:
        raise ValueError(f"unknown chern target {target!r}")
    cs = ch.chern_classes()
    payload = {
        "model": ch.model.name,
        "rank": ch.rank,
        "ch": ch.to_json(),
        "c": {str(i + 1): c.to_json() for i, c in enumerate(cs) if not c.is_zero},
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"model: {ch.model.name}")
        print(f"rank: {ch.rank}")
        print(f"ch: {ch}")
        for i, c in enumerate(cs):
            if not c.is_zero:
                print(f"c{i + 1}: {c}")
    return 0


def _cmd_fm(args) -> int:
    if args.gram:
        collection, blocks = _gram_collection(args.gram)
        report = mukai.gram(collection, intersect.model_x(), blocks=blocks)
        if args.format == "json":
            print(json.dumps(report.to_json()))
        else:
            print("  ".join(report.labels))
            for row in report.matrix:
                print("  ".join(str(x) for x in row))
            print(f"exceptional: {list(report.exceptional)}")
            print(f"semiorthogonal: {report.semiorthogonal}")
        return 0

    if not args.kernel or args.apply is None:
        raise ValueError("fm needs either --gram or both --kernel and --apply")
    K = mukai.KERNELS[args.kernel]()
    data = _class_from_text(args.apply, K.source)
    out = mukai.transform(K, data)
    if args.format == "json":
        print(json.dumps({"model": out.model.name, "class": out.to_json()}))
    else:
        print(f"{out} (on {out.model.name})")
    return 0


def _cmd_verify(args) -> int:
    report = verify_suite(args.suite)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        for c in report.checks:
            mark = "PASS" if c.ok else "FAIL"
            print(f"[{mark}] {c.name}: {c.claim} "
                  f"(expected {c.expected}, computed {c.computed})")
        print(f"suite {report.suite}: {'PASS' if report.ok else 'FAIL'} "
              f"({sum(c.ok for c in report.checks)}/{len(report.checks)})")
    return 0 if report.ok else 1


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
    p_bbw.add_argument("--format", choices=("json", "table"), default="table")
    p_bbw.set_defaults(func=_cmd_bbw)

    p_koszul = sub.add_parser("koszul", help="cohomology on a linear section")
    p_koszul.add_argument("--codim", type=int, required=True)
    p_koszul.add_argument("--bundle", required=True)
    p_koszul.add_argument("--twist", default="0")
    p_koszul.add_argument("--format", choices=("json", "table"), default="table")
    p_koszul.set_defaults(func=_cmd_koszul)

    p_chern = sub.add_parser("chern", help="Chern data of the named bundles")
    p_chern.add_argument("--target", choices=("E1", "E2", "U-plus", "eta2"), required=True)
    p_chern.add_argument("--format", choices=("json", "table"), default="table")
    p_chern.set_defaults(func=_cmd_chern)

    p_fm = sub.add_parser("fm", help="numerical integral transforms")
    p_fm.add_argument("--kernel", choices=tuple(mukai.KERNELS))
    p_fm.add_argument("--apply", help="named class (O_R, E1y, ...) or JSON coefficients")
    p_fm.add_argument("--gram", help="comma-separated collection tokens: u, o, phi1")
    p_fm.add_argument("--format", choices=("json", "table"), default="table")
    p_fm.set_defaults(func=_cmd_fm)

    p_verify = sub.add_parser("verify", help="replay the reference computations")
    p_verify.add_argument("--suite", default="all",
                          choices=("all",) + tuple(SUITES))
    p_verify.add_argument("--format", choices=("json", "table"), default="table")
    p_verify.set_defaults(func=_cmd_verify)
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
        return args.func(args)
    except (BundleExprError, RationalSyntaxError, ClassSyntaxError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, sections.SpliceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
