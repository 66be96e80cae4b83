"""Command-line surface.

Output is line-oriented ``key=value`` text, byte-deterministic for a fixed
invocation.  Exit codes: 0 success, 1 domain error (with ``error=<code>`` on
stdout), 2 usage error (diagnostic on stderr, courtesy of argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import intmat, kirby, ledger, obstruct, plumbing, sl2, strings
from .errors import DomainError


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


class _Usage(Exception):
    pass


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------- handlers


def _cmd_dual(args) -> list[str]:
    b = strings.parse_int_string(args.string)
    return [f"dual={strings.format_int_string(strings.dual_string(b))}"]


def _cmd_mono(args) -> list[str]:
    word = sl2.parse_word(args.word)
    m = sl2.word_to_matrix(word)
    lines = [f"trace={m.trace}"]
    if args.classify:
        kind, tsign = sl2.classify(m)
        lines.append(f"class={kind.value} sign={tsign.value}")
    if args.torsion:
        lines.append(f"torsion={sl2.torsion_order(m)}")
    if args.square_check:
        value, square = sl2.square_trace_check(m)
        lines.append(f"value={value} square={_yes_no(square)}")
    return lines


def _cmd_family_gen(args) -> list[str]:
    params = strings.parse_family_params(args.params)
    return [f"string={strings.format_int_string(strings.family_string(params))}"]


def _cmd_family_check(args) -> list[str]:
    b = strings.parse_int_string(args.string)
    params = strings.recognize_family(b)
    if params is None:
        return ["member=no"]
    xs = strings.format_int_string(params.xs)
    return [f"member=yes k={params.k} x={xs}"]


def _cmd_plumb_form(args) -> list[str]:
    g = plumbing.parse_graph(_read(args.graph))
    q = plumbing.intersection_form(g)
    return [f"form={intmat.inline_matrix(q)}", f"det={intmat.det(q)}"]


def _cmd_plumb_homology(args) -> list[str]:
    g = plumbing.parse_graph(_read(args.graph))
    return [f"homology={plumbing.boundary_homology(g).describe()}"]


def _cmd_plumb_selfjoin(args) -> list[str]:
    g = plumbing.parse_graph(_read(args.graph))
    sign = 1 if args.sign == "+" else -1
    out = plumbing.self_join(g, args.v1, args.v2, sign)
    return plumbing.format_graph(out).splitlines()


def _cmd_plumb_join(args) -> list[str]:
    g1 = plumbing.parse_graph(_read(args.graph))
    g2 = plumbing.parse_graph(_read(args.graph2))
    out = plumbing.join(g1, args.v1, g2, args.v2)
    return plumbing.format_graph(out).splitlines()


def _cmd_plumb_checkjoin(args) -> list[str]:
    g = plumbing.parse_graph(_read(args.graph))
    report = plumbing.check_join_hypotheses(g, args.v)
    return [
        f"boundary_s1xs2={_yes_no(report.boundary_is_s1xs2)} "
        f"complement_qs3={_yes_no(report.complement_is_qs3)}"
    ]


def _matrix_inline(m: sl2.SL2Element) -> str:
    return f"{m.a},{m.b};{m.c},{m.d}"


def _cmd_kirby_run(args) -> list[str]:
    chain = kirby.parse_chain(args.chain)
    if args.sign:
        chain = kirby.ChainState(chain.framings, 1 if args.sign == "+" else -1)
    start_monodromy = kirby.chain_monodromy(chain)
    final, witness = kirby.run_script(chain, _read(args.script).splitlines())
    conjugated = witness @ kirby.chain_monodromy(final) @ witness.inverse()
    return [
        f"framings={strings.format_int_string(final.framings)}",
        f"eps={'+' if final.eps > 0 else '-'}",
        f"monodromy={_matrix_inline(kirby.chain_monodromy(final))}",
        f"certified={_yes_no(conjugated == start_monodromy)}",
    ]


def _cmd_kirby_dualize(args) -> list[str]:
    b = strings.parse_int_string(args.string)
    result = kirby.dualize_procedure(b)
    return [
        f"framings={strings.format_int_string(result.terminal.framings)}",
        f"eps={'+' if result.terminal.eps > 0 else '-'}",
        f"blowups={result.blow_ups}",
        f"blowdowns={result.blow_downs}",
        f"certified={_yes_no(result.certified())}",
    ]


def _cmd_obstruct_square(args) -> list[str]:
    return [f"verdict={'pass' if obstruct.square_order_obstruction(args.n) else 'fail'}"]


def _cmd_obstruct_attach(args) -> list[str]:
    linking = intmat.parse_matrix_text(_read(args.matrix))
    p = obstruct.SurgeryPresentation(linking)
    k = obstruct.KnotClass(sl2._parse_list(args.kappa, "kappa-syntax"), args.framing)
    new_p, homology = obstruct.attach_two_handle(p, k)
    return [
        f"bordered={intmat.inline_matrix(new_p.linking)}",
        f"det={intmat.det(new_p.linking)}",
        f"homology={homology.describe()}",
        f"provenance={obstruct.ATTACHMENT_PROVENANCE}",
    ]


def _cmd_obstruct_mu(args) -> list[str]:
    m = intmat.parse_matrix_text(_read(args.matrix))
    return [f"signature={intmat.signature(m)}", f"mu={obstruct.rohlin_mu(m)}"]


def _cmd_ledger_eval(args) -> list[str]:
    entry = ledger.evaluate_descriptor(args.descriptor, Path.cwd())
    return [ledger.format_entry(entry)]


def _cmd_mat_det(args) -> list[str]:
    return [f"det={intmat.det(intmat.parse_matrix_text(_read(args.matrix)))}"]


def _cmd_mat_snf(args) -> list[str]:
    result = intmat.snf(intmat.parse_matrix_text(_read(args.matrix)))
    return [
        f"d={intmat.inline_matrix(result.d)}",
        f"u={intmat.inline_matrix(result.u)}",
        f"v={intmat.inline_matrix(result.v)}",
    ]


def _cmd_mat_group(args) -> list[str]:
    desc = intmat.abelian_group_of(intmat.parse_matrix_text(_read(args.matrix)))
    return [f"group={desc.describe()}"]


def _cmd_mat_signature(args) -> list[str]:
    return [f"signature={intmat.signature(intmat.parse_matrix_text(_read(args.matrix)))}"]


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbcalc",
        description="Exact calculus for plumbed 3-manifolds and torus-bundle monodromies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="dual of a string of integers >= 2")
    p.add_argument("string")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("mono", help="monodromy word arithmetic")
    p.add_argument("word", help="e.g. 3,2,2 or -:2,2")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--torsion", action="store_true")
    p.add_argument("--square-check", action="store_true")
    p.set_defaults(handler=_cmd_mono)

    p = sub.add_parser("family", help="family string generator/recognizer")
    fam = p.add_subparsers(dest="family_command", required=True)
    g = fam.add_parser("gen", help="generate from parameters k=..;x=..")
    g.add_argument("params")
    g.set_defaults(handler=_cmd_family_gen)
    c = fam.add_parser("check", help="test membership of a string")
    c.add_argument("string")
    c.set_defaults(handler=_cmd_family_check)

    p = sub.add_parser("plumb", help="plumbing graph operations")
    pl = p.add_subparsers(dest="plumb_command", required=True)
    f = pl.add_parser("form", help="intersection form of a graph file")
    f.add_argument("graph")
    f.set_defaults(handler=_cmd_plumb_form)
    h = pl.add_parser("homology", help="boundary first homology")
    h.add_argument("graph")
    h.set_defaults(handler=_cmd_plumb_homology)
    s = pl.add_parser("selfjoin", help="identify two vertices of a tree")
    s.add_argument("graph")
    s.add_argument("--v1", required=True)
    s.add_argument("--v2", required=True)
    s.add_argument("--sign", choices=["+", "-"], required=True)
    s.set_defaults(handler=_cmd_plumb_selfjoin)
    j = pl.add_parser("join", help="join two trees at distinguished vertices")
    j.add_argument("graph")
    j.add_argument("graph2")
    j.add_argument("--v1", required=True)
    j.add_argument("--v2", required=True)
    j.set_defaults(handler=_cmd_plumb_join)
    cj = pl.add_parser("checkjoin", help="join-transfer hypotheses at a vertex")
    cj.add_argument("graph")
    cj.add_argument("--v", required=True)
    cj.set_defaults(handler=_cmd_plumb_checkjoin)

    p = sub.add_parser("kirby", help="framed-chain rewriting")
    kb = p.add_subparsers(dest="kirby_command", required=True)
    r = kb.add_parser("run", help="apply a move script to a chain")
    r.add_argument("chain", help="e.g. -3,-1,-3")
    r.add_argument("--sign", choices=["+", "-"])
    r.add_argument("--script", required=True)
    r.set_defaults(handler=_cmd_kirby_run)
    d = kb.add_parser("dualize", help="two-block normal form of a family chain")
    d.add_argument("string")
    d.set_defaults(handler=_cmd_kirby_dualize)

    p = sub.add_parser("obstruct", help="homological obstructions")
    ob = p.add_subparsers(dest="obstruct_command", required=True)
    q = ob.add_parser("square", help="square-order necessary condition")
    q.add_argument("n", type=int)
    q.set_defaults(handler=_cmd_obstruct_square)
    at = ob.add_parser("attach", help="border a linking matrix by a knot class")
    at.add_argument("matrix")
    at.add_argument("--kappa", required=True)
    at.add_argument("--framing", type=int, required=True)
    at.set_defaults(handler=_cmd_obstruct_attach)
    mu = ob.add_parser("mu", help="Rohlin bit of an even unimodular form")
    mu.add_argument("matrix")
    mu.set_defaults(handler=_cmd_obstruct_mu)

    p = sub.add_parser("ledger", help="bounding certificates and obstructions")
    lg = p.add_subparsers(dest="ledger_command", required=True)
    ev = lg.add_parser("eval", help="evaluate word:/graph:/build: descriptor")
    ev.add_argument("descriptor")
    ev.set_defaults(handler=_cmd_ledger_eval)

    p = sub.add_parser("mat", help="exact matrix arithmetic")
    mt = p.add_subparsers(dest="mat_command", required=True)
    for name, handler, help_text in (
        ("det", _cmd_mat_det, "exact determinant"),
        ("snf", _cmd_mat_snf, "Smith normal form with certificates"),
        ("group", _cmd_mat_group, "cokernel as an abelian group"),
        ("signature", _cmd_mat_signature, "signature of a symmetric matrix"),
    ):
        m = mt.add_parser(name, help=help_text)
        m.add_argument("matrix")
        m.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines = args.handler(args)
    except DomainError as exc:
        print(f"error={exc.code}")
        print(str(exc), file=sys.stderr)
        return 1
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def run() -> None:
    sys.exit(main())
