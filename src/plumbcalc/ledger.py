"""Certification ledger: which descriptors bound rational homology circles.

A descriptor is a monodromy word, a plumbing graph, or a named graph inside a
construction (trees combined by joins and self-joins).  Evaluation applies:

* axioms -- negative parabolic words (trace -2) bound; hyperbolic family
  words bound; a tree whose boundary has the integral homology of
  S^1 x S^2 is the base seed (recorded as homology-level);
* closure rules -- a self-join of a bounding tree with nonsingular
  intersection form bounds; a join bounds when one side passes the
  homology-level hypotheses and the other side bounds;
* the obstruction -- a boundary whose torsion order is not a perfect square
  never bounds.

Anything else is reported unknown.  ``bounds-QSB`` and ``obstructed`` are
mutually exclusive by construction: every certified descriptor has square
torsion order.

The rules compute verdicts, ``(status, reason)`` pairs, from their operands'
verdicts; only the returned entry gets a descriptor.  A graph's torsion order
is |det Q| when det Q != 0: only a singular form asks for boundary homology.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import plumbcalc as pc

from .errors import _SIGNS, DomainError, _ints, _keyword_lines, _Value, is_perfect_square
from .sl2 import (
    MonodromyWord,
    _framed_word,
    format_word,
    lex_min_rotation,
    parse_word,
    word_to_matrix,
)
from .strings import format_int_string, recognize_family

if TYPE_CHECKING:  # a word descriptor loads neither: their users reach them as pc.<layer>
    from .plumbing import PlumbingGraph

__all__ = [
    "STATUS_BOUNDS",
    "STATUS_OBSTRUCTED",
    "STATUS_UNKNOWN",
    "LedgerEntry",
    "Construction",
    "evaluate_word",
    "evaluate_graph",
    "evaluate_descriptor",
    "parse_construction",
    "format_entry",
]

STATUS_BOUNDS = "bounds-QSB"
STATUS_OBSTRUCTED = "obstructed"
STATUS_UNKNOWN = "unknown"


class LedgerEntry(_Value):
    descriptor: str
    status: str
    reason: str

    def __init__(self, descriptor: str, status: str, reason: str) -> None:
        self.__dict__.update(descriptor=descriptor, status=status, reason=reason)


def _graph_descriptor(g: PlumbingGraph) -> str:
    return f"graph:{pc.plumbing.canonical_key(g)}"


def _square_fallback(torsion: int) -> tuple[str, str]:
    """Square-order test on a torsion order; returns (status, reason)."""
    if not is_perfect_square(torsion):
        return STATUS_OBSTRUCTED, f"torsion-not-square({torsion})"
    return STATUS_UNKNOWN, f"square-condition-holds({torsion});no-certificate"


def _word_verdict(w: MonodromyWord) -> tuple[str, str]:
    t = word_to_matrix(w).trace
    if t == -2:
        return STATUS_BOUNDS, "negative-parabolic"
    params = recognize_family(w.coeffs) if w.sign > 0 else None
    if params is not None:
        reason = f"hyperbolic-family(k={params.k};x={format_int_string(params.xs)})"
        return STATUS_BOUNDS, reason
    if t == 2:
        return STATUS_UNKNOWN, "trace-2-degenerate"
    return _square_fallback(abs(t - 2))


def _graph_verdict(g: PlumbingGraph) -> tuple[str, str]:
    if pc.plumbing.is_pure_cycle(g):
        # pure cycle: defer to the word-level rules via the traversal word
        return _word_verdict(_framed_word(*pc.plumbing.cycle_traversal(g)))
    if g.cycle_count < 2 and (q_det := pc.plumbing._form_det(g)):
        return _square_fallback(abs(q_det))  # coker(Q) is finite, of order |det Q|
    homology = pc.plumbing.boundary_homology(g)  # raises multi-cycle past one cycle
    if homology == pc.intmat.AbelianGroupDesc(1, ()) and g.is_tree():
        return STATUS_BOUNDS, "s1xs2-base(homology-level)"
    return _square_fallback(homology.torsion_order)


def evaluate_word(w: MonodromyWord) -> LedgerEntry:
    """Certify or obstruct a torus bundle given by a monodromy word."""
    canonical = MonodromyWord(lex_min_rotation(w.coeffs), w.sign)
    return LedgerEntry(f"word:{format_word(canonical)}", *_word_verdict(w))


def evaluate_graph(g: PlumbingGraph) -> LedgerEntry:
    """Certify or obstruct a plumbing graph with no construction history."""
    return LedgerEntry(_graph_descriptor(g), *_graph_verdict(g))


class Construction(_Value):
    """An explicit build history: seed trees combined by joins/self-joins.

    Steps are recorded in order; evaluation is pure and walks the history
    bottom-up, so re-evaluating after appending steps never changes earlier
    verdicts.  The one mutable record: it has no hash, and takes assignments.
    """

    _steps: dict[str, tuple[PlumbingGraph, tuple]]
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, _steps: dict[str, tuple[PlumbingGraph, tuple]] | None = None) -> None:
        self._steps = {} if _steps is None else _steps

    def _record(self, name: str, graph: PlumbingGraph, step: tuple) -> None:
        if name in self._steps:
            raise DomainError("duplicate-name", f"{name} is already defined")
        self._steps[name] = (graph, step)

    def add_tree(self, name: str, graph: PlumbingGraph) -> PlumbingGraph:
        self._record(name, graph, ("tree",))
        return graph

    def add_join(self, name: str, left: str, v1: str, right: str, v2: str) -> PlumbingGraph:
        g = pc.plumbing.join(self.graph(left), v1, self.graph(right), v2)
        self._record(name, g, ("join", left, v1, right, v2))
        return g

    def add_self_join(self, name: str, src: str, v1: str, v2: str, sign: int) -> PlumbingGraph:
        g = pc.plumbing.self_join(self.graph(src), v1, v2, sign)
        self._record(name, g, ("selfjoin", src, v1, v2, sign))
        return g

    def graph(self, name: str) -> PlumbingGraph:
        if name not in self._steps:
            raise DomainError("unknown-name", f"no graph named {name}")
        return self._steps[name][0]

    def names(self) -> tuple[str, ...]:
        return tuple(self._steps)

    def evaluate(self, name: str) -> LedgerEntry:
        """Ledger verdict for a named graph, chaining provenance through the
        recorded construction steps.

        An operand is evaluated only when a rule consults its verdict, and
        pending steps wait on an explicit stack, so deep histories do not
        recurse.  Only the answer gets a descriptor.
        """
        graph = self.graph(name)
        memo: dict[str, tuple[str, str]] = {}
        stack = [(name, self._rules(name))]
        verdict = None
        while stack:
            n, rules = stack[-1]
            try:
                operand = rules.send(verdict)
            except StopIteration as done:
                stack.pop()
                verdict = memo[n] = done.value
                continue
            verdict = memo.get(operand)
            if verdict is None:
                stack.append((operand, self._rules(operand)))
        return LedgerEntry(_graph_descriptor(graph), *verdict)

    def _rules(self, name: str):
        """The rules for one step, as a generator: it yields the name of each
        operand whose verdict it consults, is sent that (status, reason), and
        returns the step's own."""
        graph, step = self._steps[name]
        if step[0] == "selfjoin":
            src_status, src_reason = yield step[1]
            if src_status == STATUS_BOUNDS and (q_det := pc.plumbing._form_det(graph)):
                return STATUS_BOUNDS, f"self-join-nonsingular(det={q_det})<-{src_reason}"
        elif step[0] == "join":
            _, left, v1, right, v2 = step
            for pivot, pivot_v, other in ((left, v1, right), (right, v2, left)):
                other_status, other_reason = yield other
                if other_status != STATUS_BOUNDS:
                    continue
                if pc.plumbing.check_join_hypotheses(self.graph(pivot), pivot_v).all_pass:
                    reason = f"join-transfer({pivot}-hypotheses;homology-level)<-{other_reason}"
                    return STATUS_BOUNDS, reason
        return _graph_verdict(graph)


def parse_construction(text: str, base_dir: Path | None = None) -> tuple[Construction, str]:
    """Parse a construction script.  Lines::

        tree <name> <graph-file>
        join <name> <left> <left-vertex> <right> <right-vertex>
        selfjoin <name> <src> <v1> <v2> <+|->
        target <name>

    Graph-file paths resolve relative to ``base_dir``.  Returns the
    construction and the target name (defaults to the last definition).
    """
    base = base_dir or Path(".")
    build = Construction()
    target: str | None = None
    grammar = {"tree": 3, "join": 6, "selfjoin": 6, "target": 2}
    lines = _keyword_lines(text.splitlines(), "build-syntax", grammar, ("selfjoin",))
    for lineno, (keyword, *args) in lines:
        try:
            if keyword == "tree":
                path = base / args[1]
                build.add_tree(args[0], pc.plumbing.parse_graph(path.read_text(encoding="utf-8")))
            elif keyword == "join":
                build.add_join(*args)
            elif keyword == "selfjoin":
                build.add_self_join(*args[:4], _SIGNS[args[4]])
            else:
                target = args[0]
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError("build-io", f"line {lineno}: {exc}") from exc
    if not build.names():
        raise DomainError("build-empty", "construction defines no graphs")
    return build, target or build.names()[-1]


def evaluate_descriptor(text: str, base_dir: Path | None = None) -> LedgerEntry:
    """Evaluate a CLI descriptor: ``word:<word>``, ``-T^<n>``,
    ``graph:<file>``, or ``build:<file>``."""
    text = text.strip()
    if text.startswith("-T^"):  # -T^n / -T^-n: the exact word (∓n, 0), T^{∓n} S S = -T^{∓n}
        (n,) = _ints([text[3:]], "descriptor-syntax", f"bad parabolic exponent in {text!r}")
        return evaluate_word(MonodromyWord((-n, 0), 1))
    kind, colon, rest = text.partition(":")
    if not colon or kind not in ("word", "graph", "build"):
        raise DomainError(
            "descriptor-syntax",
            "descriptor must start with word:, graph:, build:, or be -T^<n>",
        )
    if kind == "word":
        return evaluate_word(parse_word(rest))
    path = (base_dir or Path(".")) / rest
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError("descriptor-io", str(exc)) from exc
    if kind == "graph":
        return evaluate_graph(pc.plumbing.parse_graph(source))
    build, target = parse_construction(source, path.parent)
    return build.evaluate(target)


def format_entry(entry: LedgerEntry) -> str:
    return f"descriptor={entry.descriptor} status={entry.status} reason={entry.reason}"
