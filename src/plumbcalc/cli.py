"""Command-line surface.

Output is line-oriented ``key=value`` text, byte-deterministic for a fixed
invocation.  Exit codes: 0 success, 1 domain error (with ``error=<code>`` on
stdout), 2 usage error (diagnostic on stderr, courtesy of argparse).

Every command is one row of :data:`COMMANDS`; :func:`build_parser` builds the
whole argparse tree from that table.  Handlers reach the layers through the
package namespace (``pc.<layer>.<name>``), which imports a layer on its
first use, so a command loads only the layers its handler calls.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import plumbcalc as pc

from .errors import DomainError


class _Usage(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _graph(path: str):
    return pc.plumbing.parse_graph(_read(path))


def _matrix(path: str):
    return pc.intmat.parse_matrix_text(_read(path))


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _sign(text: str) -> int:
    return 1 if text == "+" else -1


def _chain_lines(state) -> list[str]:
    return [
        f"framings={pc.strings.format_int_string(state.framings)}",
        f"eps={'+' if state.eps > 0 else '-'}",
    ]


# ---------------------------------------------------------------- handlers


def _mono(args) -> list[str]:
    m = pc.sl2.word_to_matrix(pc.sl2.parse_word(args.word))
    lines = [f"trace={m.trace}"]
    if args.classify:
        kind, tsign = pc.sl2.classify(m)
        lines.append(f"class={kind.value} sign={tsign.value}")
    if args.torsion:
        lines.append(f"torsion={pc.sl2.torsion_order(m)}")
    if args.square_check:
        value, square = pc.sl2.square_trace_check(m)
        lines.append(f"value={value} square={_yes_no(square)}")
    return lines


def _family_check(args) -> list[str]:
    params = pc.strings.recognize_family(pc.strings.parse_int_string(args.string))
    if params is None:
        return ["member=no"]
    return [f"member=yes k={params.k} x={pc.strings.format_int_string(params.xs)}"]


def _plumb_form(args) -> list[str]:
    q = pc.plumbing.intersection_form(_graph(args.graph))
    return [f"form={pc.intmat.inline_matrix(q)}", f"det={pc.intmat.det(q)}"]


def _plumb_checkjoin(args) -> list[str]:
    report = pc.plumbing.check_join_hypotheses(_graph(args.graph), args.v)
    return [
        f"boundary_s1xs2={_yes_no(report.boundary_is_s1xs2)} "
        f"complement_qs3={_yes_no(report.complement_is_qs3)}"
    ]


def _kirby_run(args) -> list[str]:
    chain = pc.kirby.parse_chain(args.chain)
    if args.sign:
        chain = pc.kirby.ChainState(chain.framings, _sign(args.sign))
    final, witness = pc.kirby.run_script(chain, _read(args.script).splitlines())
    m = pc.kirby.chain_monodromy(final)
    certified = witness @ m @ witness.inverse() == pc.kirby.chain_monodromy(chain)
    return _chain_lines(final) + [
        f"monodromy={m.a},{m.b};{m.c},{m.d}",
        f"certified={_yes_no(certified)}",
    ]


def _kirby_dualize(args) -> list[str]:
    result = pc.kirby.dualize_procedure(pc.strings.parse_int_string(args.string))
    return _chain_lines(result.terminal) + [
        f"blowups={result.blow_ups}",
        f"blowdowns={result.blow_downs}",
        f"certified={_yes_no(result.certified())}",
    ]


def _obstruct_attach(args) -> list[str]:
    p = pc.obstruct.SurgeryPresentation(_matrix(args.matrix))
    k = pc.obstruct.KnotClass(pc.sl2._parse_list(args.kappa, "kappa-syntax"), args.framing)
    new_p, homology = pc.obstruct.attach_two_handle(p, k)
    return [
        f"bordered={pc.intmat.inline_matrix(new_p.linking)}",
        f"det={pc.intmat.det(new_p.linking)}",
        f"homology={homology.describe()}",
        f"provenance={pc.obstruct.ATTACHMENT_PROVENANCE}",
    ]


def _obstruct_mu(args) -> list[str]:
    m = _matrix(args.matrix)
    return [f"signature={pc.intmat.signature(m)}", f"mu={pc.obstruct.rohlin_mu(m)}"]


def _mat_snf(args) -> list[str]:
    result = pc.intmat.snf(_matrix(args.matrix))
    return [f"{name}={pc.intmat.inline_matrix(getattr(result, name))}" for name in "duv"]


# ---------------------------------------------------------------- table

_FLAG = {"action": "store_true"}
_REQUIRED = {"required": True}
_SIGN = {"choices": ["+", "-"]}

GROUPS = {
    "family": "family string generator/recognizer",
    "plumb": "plumbing graph operations",
    "kirby": "framed-chain rewriting",
    "obstruct": "homological obstructions",
    "ledger": "bounding certificates and obstructions",
    "mat": "exact matrix arithmetic",
}

# (command path, help, arguments, handler).  An argument is its name, or
# (name, add_argument keywords).  Rows appear in --help in table order.
COMMANDS = (
    ("dual", "dual of a string of integers >= 2", ("string",),
     lambda a: ["dual=" + pc.strings.format_int_string(
         pc.strings.dual_string(pc.strings.parse_int_string(a.string)))]),
    ("mono", "monodromy word arithmetic",
     (("word", {"help": "e.g. 3,2,2 or -:2,2"}), ("--classify", _FLAG), ("--torsion", _FLAG),
      ("--square-check", _FLAG)), _mono),
    ("family gen", "generate from parameters k=..;x=..", ("params",),
     lambda a: ["string=" + pc.strings.format_int_string(
         pc.strings.family_string(pc.strings.parse_family_params(a.params)))]),
    ("family check", "test membership of a string", ("string",), _family_check),
    ("plumb form", "intersection form of a graph file", ("graph",), _plumb_form),
    ("plumb homology", "boundary first homology", ("graph",),
     lambda a: [f"homology={pc.plumbing.boundary_homology(_graph(a.graph)).describe()}"]),
    ("plumb selfjoin", "identify two vertices of a tree",
     ("graph", ("--v1", _REQUIRED), ("--v2", _REQUIRED), ("--sign", {**_SIGN, **_REQUIRED})),
     lambda a: pc.plumbing.format_graph(
         pc.plumbing.self_join(_graph(a.graph), a.v1, a.v2, _sign(a.sign))).splitlines()),
    ("plumb join", "join two trees at distinguished vertices",
     ("graph", "graph2", ("--v1", _REQUIRED), ("--v2", _REQUIRED)),
     lambda a: pc.plumbing.format_graph(
         pc.plumbing.join(_graph(a.graph), a.v1, _graph(a.graph2), a.v2)).splitlines()),
    ("plumb checkjoin", "join-transfer hypotheses at a vertex",
     ("graph", ("--v", _REQUIRED)), _plumb_checkjoin),
    ("kirby run", "apply a move script to a chain",
     (("chain", {"help": "e.g. -3,-1,-3"}), ("--sign", _SIGN), ("--script", _REQUIRED)),
     _kirby_run),
    ("kirby dualize", "two-block normal form of a family chain", ("string",), _kirby_dualize),
    ("obstruct square", "square-order necessary condition", (("n", {"type": int}),),
     lambda a: [f"verdict={'pass' if pc.obstruct.square_order_obstruction(a.n) else 'fail'}"]),
    ("obstruct attach", "border a linking matrix by a knot class",
     ("matrix", ("--kappa", _REQUIRED), ("--framing", {"type": int, **_REQUIRED})),
     _obstruct_attach),
    ("obstruct mu", "Rohlin bit of an even unimodular form", ("matrix",), _obstruct_mu),
    ("ledger eval", "evaluate word:/graph:/build: descriptor", ("descriptor",),
     lambda a: [pc.ledger.format_entry(pc.ledger.evaluate_descriptor(a.descriptor, Path.cwd()))]),
    ("mat det", "exact determinant", ("matrix",),
     lambda a: [f"det={pc.intmat.det(_matrix(a.matrix))}"]),
    ("mat snf", "Smith normal form with certificates", ("matrix",), _mat_snf),
    ("mat group", "cokernel as an abelian group", ("matrix",),
     lambda a: [f"group={pc.intmat.abelian_group_of(_matrix(a.matrix)).describe()}"]),
    ("mat signature", "signature of a symmetric matrix", ("matrix",),
     lambda a: [f"signature={pc.intmat.signature(_matrix(a.matrix))}"]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbcalc",
        description="Exact calculus for plumbed 3-manifolds and torus-bundle monodromies",
    )
    # the subparser dests name the missing level in usage errors
    # ("required: command", "required: plumb_command")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments, handler in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            group_parser = subparsers[""].add_parser(group, help=GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(dest=f"{group}_command", required=True)
        p = subparsers[group].add_parser(name, help=help_text)
        for arg in arguments:
            arg_name, keywords = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(arg_name, **keywords)
        p.set_defaults(handler=handler)
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
