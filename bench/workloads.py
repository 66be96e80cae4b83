"""Seeded inputs and checked operations for the four workloads.

A workload is generated one round at a time.  ``generate(rng, round_index)``
makes the benchmark-side data of a round together with every expected
answer, using only :mod:`oracles`; ``build(spec)`` turns it into plumbcalc
objects (the program-side inputs, whose cost is part of ``setup_s``) and a
list of :class:`Op`.  Each op is one call into a public plumbcalc function;
its ``check`` receives the return value, or the ``DomainError`` raised, and
says whether it is the right answer.  Every round has the same shape (the
same ladder rungs, shapes and kinds), and only the contents vary with the
seed, so the hang classes appear the same number of times in every run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from math import isqrt, prod
from typing import Callable

import oracles as O
from plumbcalc import cli, intmat, kirby, ledger, obstruct, plumbing, sl2, strings
from plumbcalc.errors import DomainError

WORD_LENS = (44, 88, 176, 352, 606)
PARABOLIC_LENS = (44, 176, 606)
CYCLE_NS = (50, 100, 200, 400)
TREE_NS = (10, 20, 30, 40)
DENSE_NS = (5, 10, 20, 40)

BOUNDS = "bounds-QSB"
BASE = "s1xs2-base(homology-level)"


@dataclass
class Op:
    name: str                       # "<layer>.<function>"
    call: Callable[[], object]
    check: Callable[[object], bool]
    rung: str | None = None         # ladder rung, e.g. "cycle_n400"


def returns(expected):
    return lambda r: not isinstance(r, DomainError) and r == expected


def satisfies(pred):
    return lambda r: not isinstance(r, DomainError) and pred(r)


def raises(code):
    return lambda r: isinstance(r, DomainError) and r.code == code


def square_verdict(torsion: int):
    """The ledger's fallback verdict on a torsion order."""
    root = isqrt(torsion)
    if root * root != torsion:
        return "obstructed", f"torsion-not-square({torsion})"
    return "unknown", f"square-condition-holds({torsion});no-certificate"


# ================================================================ words


def _family_params(rng, length):
    """Family parameters of total string length ``length`` whose second
    segment holds about half the entries, so that the dualization work per
    string (blowdowns times chain length) is nearly the same for every seed."""
    while True:
        k = rng.randint(1, 4)
        n = 2 * k + 1
        rest = length - n
        cuts = sorted(rng.randint(0, rest) for _ in range(n - 1))
        xs = tuple(b - a for a, b in zip((0, *cuts), (*cuts, rest)))
        _, e = O.family_split(k, xs)
        if abs(len(e) - length / 2) <= length / 10:
            return k, xs


def _hyperbolic_coeffs(rng, length):
    """Entries >= 2 with an even number (>= 2) of entries >= 3: hyperbolic,
    and never a family string, which has an odd number."""
    a = [rng.choice((2, 2, 2, 3, 4, 5)) for _ in range(length)]
    big = sum(x >= 3 for x in a)
    while big < 2 or big % 2:  # each flip changes the parity
        i = rng.randrange(length)
        if a[i] == 2:
            a[i], big = 3, big + 1
        elif big > 2:
            a[i], big = 2, big - 1
    return tuple(a)


def _word_spec(coeffs, sign, family=None, rung=None):
    m = O.word_matrix(coeffs, sign)
    t = O.trace(m)
    kind = "elliptic" if abs(t) < 2 else "parabolic" if abs(t) == 2 else "hyperbolic"
    tsign = "positive" if t > 0 else "negative" if t < 0 else "zero-trace"
    least = min(coeffs[r:] + coeffs[:r] for r in range(len(coeffs)))
    descriptor = "word:" + ("-:" if sign < 0 else "") + ",".join(map(str, least))
    if t == -2:
        verdict = (BOUNDS, "negative-parabolic")
    elif family is not None and sign > 0:
        k, xs = family
        verdict = (BOUNDS, f"hyperbolic-family(k={k};x={','.join(map(str, xs))})")
    else:
        verdict = square_verdict(abs(t - 2))
    return {
        "coeffs": coeffs, "sign": sign, "matrix": m, "trace": t,
        "class": (kind, tsign), "family": family, "rung": rung,
        "split": O.family_split(*family) if family else None,
        "ledger": (descriptor, *verdict),
    }


def _dualize_ok(spec, r) -> bool:
    a, (d, _) = spec["coeffs"], spec["split"]
    start_ok = r.start.framings == tuple(-x for x in a) and r.start.eps == 1
    c = (r.conjugator.a, r.conjugator.b, r.conjugator.c, r.conjugator.d)
    lhs = O.mul2(O.mul2(c, O.chain_matrix(r.terminal.framings, r.terminal.eps)), O.inverse2(c))
    target = tuple(-x for x in d) + d
    fr = r.terminal.framings
    return (
        start_ok
        and lhs == O.word_matrix(a, 1)
        and len(fr) == len(target)
        and any(fr[i:] + fr[:i] == target for i in range(len(fr)))
    )


class Words:
    """Torus-bundle words through sl2, strings, kirby and ledger."""

    spawns = False  # its operations run in this process
    shards = 1  # worker processes per round: a round is about a second of work
    name = "words"
    deadline_s = 10.0

    def generate(self, rng, round_index):
        specs = []
        for length in WORD_LENS:
            k, xs = _family_params(rng, length)
            specs.append(_word_spec(O.family_word(k, xs), 1, (k, xs), f"len{length}"))
        for length in WORD_LENS:
            specs.append(_word_spec(_hyperbolic_coeffs(rng, length), 1))
        for length in PARABOLIC_LENS:
            specs.append(_word_spec((2,) * length, -1))
        return specs

    def build(self, specs):
        ops = []
        for s in specs:
            ops.extend(self._ops(s))
        return ops

    @staticmethod
    def _ops(s):
        a, rung, fam = s["coeffs"], s["rung"], s["family"]
        w = sl2.MonodromyWord(a, s["sign"])
        m = sl2.SL2Element(*s["matrix"])
        return [
            Op("sl2.word_to_matrix", lambda: sl2.word_to_matrix(w),
               satisfies(lambda r: (r.a, r.b, r.c, r.d) == s["matrix"]), rung),
            Op("sl2.classify", lambda: sl2.classify(m),
               satisfies(lambda r: (r[0].value, r[1].value) == s["class"]), rung),
            Op("sl2.torsion_order", lambda: sl2.torsion_order(m),
               returns(abs(s["trace"] - 2)), rung),
            Op("strings.recognize_family", lambda: strings.recognize_family(a),
               satisfies(lambda r: (r.k, r.xs) == fam) if fam else returns(None), rung),
            Op("strings.split_relabel", lambda: strings.split_relabel(a),
               returns(s["split"]) if fam else raises("not-in-family"), rung),
            Op("strings.dual_string", lambda: strings.dual_string(a),
               satisfies(lambda r: O.is_dual_pair(a, r)), rung),
            Op("kirby.dualize_procedure", lambda: kirby.dualize_procedure(a),
               satisfies(lambda r: _dualize_ok(s, r)) if fam else raises("not-in-family"), rung),
            Op("ledger.evaluate_word", lambda: ledger.evaluate_word(w),
               satisfies(lambda r: (r.descriptor, r.status, r.reason) == s["ledger"]), rung),
        ]


# ================================================================ forms


def _graph_text(vertices, edges) -> str:
    lines = [f"vertex {n} {w}" for n, w in vertices]
    lines += [f"edge {u} {v} {'+' if s > 0 else '-'}" for u, v, s in edges]
    return "\n".join(lines) + "\n"


def _form_rows(vertices, edges):
    index = {n: i for i, (n, _) in enumerate(vertices)}
    q = [[0] * len(vertices) for _ in vertices]
    for i, (_, w) in enumerate(vertices):
        q[i][i] = w
    for u, v, s in edges:
        i, j = index[u], index[v]
        if i == j:
            q[i][i] += 2 * s
        else:
            q[i][j] += s
            q[j][i] += s
    return q


def _graph_spec(vertices, edges, det, sig, hom, verdict, rung):
    return {
        "vertices": tuple(vertices), "edges": tuple(edges),
        "text": _graph_text(vertices, edges), "rows": _form_rows(vertices, edges),
        "det": det, "sig": sig, "hom": hom, "rung": rung,
        "ledger": ("graph:" + O.canonical_key(vertices, edges), *verdict),
    }


def _cycle_spec(rng, n, parabolic=False):
    """A hyperbolic cycle (all + edges) or the negative parabolic cycle of
    -2's with one negative edge.  Both forms are negative definite, so the
    signature is -n and det = (-1)^n |tr - 2|."""
    a = (2,) * n if parabolic else _hyperbolic_coeffs(rng, n)
    sign = -1 if parabolic else 1
    names = [f"c{i:03d}" for i in range(n)]
    vertices = [(names[i], -a[i]) for i in range(n)]
    edges = [(names[i], names[i + 1], 1) for i in range(n - 1)]
    edges.append((names[-1], names[0], sign))
    t = O.trace(O.word_matrix(a, sign))
    verdict = (BOUNDS, "negative-parabolic") if t == -2 else square_verdict(abs(t - 2))
    weights = [w for _, w in vertices]
    return _graph_spec(vertices, edges, (-1) ** n * abs(t - 2), -n,
                       O.cycle_homology(weights, sign), verdict, f"cycle_n{n}")


def _tree_spec(rng, shape, n, rung=None):
    """A nonsingular tree with weights in -5..-2 and random edge signs."""
    while True:
        if shape == "path":
            parent = [i - 1 for i in range(n)]
        elif shape == "star":
            parent = [0] * n
        elif shape == "caterpillar":
            spine = max(2, n // 3)
            parent = [i - 1 for i in range(spine)] + [rng.randrange(spine) for _ in range(spine, n)]
        else:
            parent = [0] + [rng.randrange(i) for i in range(1, n)]
        weights = [rng.randint(-5, -2) for _ in range(n)]
        iedges = [(parent[i], i, rng.choice((1, -1))) for i in range(1, n)]
        det, sig = O.tree_det_signature(weights, iedges)
        if det:
            break
    names = [f"t{i:02d}" for i in range(n)]
    vertices = [(names[i], weights[i]) for i in range(n)]
    edges = [(names[u], names[v], s) for u, v, s in iedges]
    torsion = tuple(f for f in O.invariant_factors(_form_rows(vertices, edges)) if f > 1)
    return _graph_spec(vertices, edges, det, sig, (0, torsion),
                       square_verdict(abs(det)), rung or f"tree_n{n}")


def _seed_path(rng, length):
    """Weights of a linear chain with continued fraction 0 (boundary
    S^1 x S^2), grown from (0) by random blowups."""
    w = [0]
    while len(w) < length:
        e = rng.randrange(len(w) + 1)  # e = len(w): blow up past the right end
        if e == len(w):
            w[-1] -= 1
            w.append(-1)
        elif e == 0:
            w[0] -= 1
            w.insert(0, -1)
        else:
            w[e - 1] -= 1
            w[e] -= 1
            w.insert(e, -1)
    assert O.path_det(w) == 0
    return w


def _path_graph(prefix, weights):
    names = [f"{prefix}{j}" for j in range(len(weights))]
    return (
        [(names[j], w) for j, w in enumerate(weights)],
        [(names[j], names[j + 1], 1) for j in range(len(weights) - 1)],
    )


def _join_chain_spec(rng, steps, lengths, tree_names, join_names):
    """Seeds T_0..T_steps (paths with continued fraction 0) joined end to
    start: J_0 = T_0 and J_i = join(J_{i-1}, its last vertex, T_i, its first
    vertex).  Every J_i is again a path, so the ledger's verdict at each
    level follows from continuants: the transfer through J_{i-1} needs
    det J_{i-1} = 0 and det(J_{i-1} minus its end) != 0, the transfer
    through T_i needs the same of T_i and a bounding J_{i-1}, and otherwise
    the path's own homology Z/|det| decides."""
    seeds = [_seed_path(rng, rng.randint(*lengths)) for _ in range(steps + 1)]
    trees = [_path_graph(f"{tree_names[i]}_", w) for i, w in enumerate(seeds)]
    joined = list(seeds[0])
    pc = [0, 1] + O.prefix_continuants(joined)  # D_{-1}, D_0, D_1, ..., D_n
    entry = (BOUNDS, BASE)
    for i in range(1, steps + 1):
        left = tree_names[0] if i == 1 else join_names[i - 1]
        new = None
        if pc[-1] == 0 and pc[-2] != 0:
            new = (BOUNDS, f"join-transfer({left}-hypotheses;homology-level)<-{BASE}")
        elif entry[0] == BOUNDS and O.path_det(seeds[i][1:]) != 0:
            new = (BOUNDS, f"join-transfer({tree_names[i]}-hypotheses;homology-level)<-{entry[1]}")
        pc.pop()
        joined[-1] += seeds[i][0]
        joined.extend(seeds[i][1:])
        pc.extend(O.prefix_continuants(joined[len(pc) - 2:], (pc[-2], pc[-1])))
        entry = new or ((BOUNDS, BASE) if pc[-1] == 0 else square_verdict(abs(pc[-1])))
    names = [n for n, _ in trees[0][0]] + [n for vs, _ in trees[1:] for n, _ in vs[1:]]
    vertices = list(zip(names, joined))
    edges = [(names[j], names[j + 1], 1) for j in range(len(names) - 1)]
    return {
        "trees": trees, "tree_names": tree_names, "join_names": join_names,
        "ledger": ("graph:" + O.canonical_key(vertices, edges), *entry),
    }


def _selfjoin_spec(rng, lengths):
    """A seed path with continued fraction 0 whose two ends are identified;
    the ledger certifies it when the resulting cycle form is nonsingular."""
    while True:
        w = _seed_path(rng, rng.randint(*lengths))
        sign = rng.choice((1, -1))
        vertices, edges = _path_graph("s_", w)
        first, last = vertices[0][0], vertices[-1][0]
        cyc_vertices = [(first, w[0] + w[-1])] + vertices[1:-1]
        cyc_edges = edges[:-1] + [(edges[-1][0], first, sign)]
        det = O.det_exact(_form_rows(cyc_vertices, cyc_edges))
        if det:
            break
    return {
        "tree": (vertices, edges), "ends": (first, last), "sign": sign,
        "ledger": ("graph:" + O.canonical_key(cyc_vertices, cyc_edges), BOUNDS,
                   f"self-join-nonsingular(det={det})<-{BASE}"),
    }


def _construction_op(build, target, expected):
    return Op("ledger.Construction.evaluate", lambda: build.evaluate(target),
              satisfies(lambda r: (r.descriptor, r.status, r.reason) == expected))


def _graph(vertices, edges):
    return plumbing.PlumbingGraph(tuple(vertices), tuple(edges))


# Trees on the ladder n = 10..50.  The count of hangs per round must not
# depend on the seed, or every timing would.  Paths never send Smith
# reduction into coefficient blow-up, and random trees of 40 vertices did in
# every seed tried (the hang class).  Random trees, caterpillars and stars
# of 20 or 30 vertices blow up for some seeds and not for others, and are
# left out.  The small trees are the largest of their shape that did not
# blow up in 600 to 1200 seeds: random trees of ten vertices, caterpillars
# of nine (of ten: 2 in 600) and stars of seven (of eight: 3 in 600), whose
# centre has high degree.
SMALL_TREES = (("star", 7), ("caterpillar", 9), ("random", 10))
HANG_TREE = ("random", 40)
# A round holds the hyperbolic 50-cycles, the small trees and the short
# constructions COPIES times, paths of every size from 10 to 49 (labelled
# by the rung below them) PATH_COPIES times, and the larger cycles, the
# parabolic cycle, the hanging tree and the deep construction once.  With
# the current code a round spends 30 s in missed deadlines, so a run is one
# round, and its median and 90th percentile must rest on many operations.
# The 90th percentile falls among the paths' signatures, whose cost rises
# with the size and varies with the weights, so it is an order statistic of
# those costs and needs many of them: over ten seeds its spread (IQR over
# median) was 0.26 to 0.33 with one path of each size and 0.23 with two.
COPIES = 4
PATH_NS = range(10, 50)
PATH_COPIES = 3
DEEP_STEPS = 200


class Forms:
    """Plumbing graphs and constructions through plumbing, intmat and ledger."""

    spawns = False  # its operations run in this process
    shards = 8  # worker processes per round: a round is 30 s of missed deadlines and 20 s of work
    name = "forms"
    # The slowest operations that finish (signature of a 100-cycle,
    # determinant and homology of a 400-cycle) took 1.8 to 3.3 s on a
    # 2-vCPU VM with Python 3.11.
    deadline_s = 6.0

    def generate(self, rng, round_index):
        graphs, selfjoins, chains = [], [], []
        for _ in range(COPIES):
            graphs.append(_cycle_spec(rng, CYCLE_NS[0]))
            graphs += [_tree_spec(rng, shape, n) for shape, n in SMALL_TREES]
            selfjoins.append(_selfjoin_spec(rng, (5, 9)))
            chains.append(_join_chain_spec(rng, 1, (3, 7), ("A", "B"), (None, "J")))
        graphs += [_tree_spec(rng, "path", n, f"tree_n{n - n % 10}")
                   for n in PATH_NS for _ in range(PATH_COPIES)]
        graphs += [_cycle_spec(rng, n) for n in CYCLE_NS[1:]]
        graphs.append(_cycle_spec(rng, CYCLE_NS[0], parabolic=True))
        graphs.append(_tree_spec(rng, *HANG_TREE))
        chains.append(_join_chain_spec(
            rng, DEEP_STEPS, (3, 4), [f"T{i}" for i in range(DEEP_STEPS + 1)],
            [None] + [f"J{i}" for i in range(1, DEEP_STEPS + 1)],
        ))
        return {"graphs": graphs, "selfjoins": selfjoins, "chains": chains}

    def build(self, spec):
        ops = []
        for g in spec["graphs"]:
            ops.extend(self._graph_ops(g))
        for s in spec["selfjoins"]:
            build = ledger.Construction()
            build.add_tree("S", _graph(*s["tree"]))
            build.add_self_join("G", "S", *s["ends"], s["sign"])
            ops.append(_construction_op(build, "G", s["ledger"]))
        for s in spec["chains"]:
            build = ledger.Construction()
            trees, tnames, jnames = s["trees"], s["tree_names"], s["join_names"]
            for name, tree in zip(tnames, trees):
                build.add_tree(name, _graph(*tree))
            for i in range(1, len(trees)):
                left = tnames[0] if i == 1 else jnames[i - 1]
                end, start = trees[i - 1][0][-1][0], trees[i][0][0][0]
                build.add_join(jnames[i], left, end, tnames[i], start)
            ops.append(_construction_op(build, jnames[-1], s["ledger"]))
        return ops

    @staticmethod
    def _graph_ops(g):
        vs, es, rung = g["vertices"], g["edges"], g["rung"]
        n = len(vs)
        entries = tuple(x for row in g["rows"] for x in row)
        graph = _graph(vs, es)
        q = intmat.IntMatrix(n, n, entries)
        return [
            Op("plumbing.parse_graph", lambda: plumbing.parse_graph(g["text"]),
               satisfies(lambda r: r.vertices == vs and r.edges == es), rung),
            Op("plumbing.intersection_form", lambda: plumbing.intersection_form(graph),
               satisfies(lambda r: (r.rows, r.cols, r.entries) == (n, n, entries)), rung),
            Op("intmat.det", lambda: intmat.det(q), returns(g["det"]), rung),
            Op("plumbing.boundary_homology", lambda: plumbing.boundary_homology(graph),
               satisfies(lambda r: (r.free_rank, r.torsion_factors) == g["hom"]), rung),
            Op("intmat.signature", lambda: intmat.signature(q), returns(g["sig"]), rung),
            Op("ledger.evaluate_graph", lambda: ledger.evaluate_graph(graph),
               satisfies(lambda r: (r.descriptor, r.status, r.reason) == g["ledger"]), rung),
        ]


# ================================================================ dense

# Below the large rungs, SMALL_PER_KIND matrices of each kind, whose Smith
# reduction must finish for every seed: random and symmetric matrices of
# size 5 did in 3000 seeds each, but U diag(d) V of size 5 blew up for 14
# of 3000 (when d reached 18 or 27) and of size 4 for none, so it is the
# one matrix below the ladder.  The large rungs give about 40 operations a
# round; with 50 small matrices of each kind the 90th percentile falls in
# the middle of the symmetric ones' signature and attach_two_handle calls,
# away from the edge between the large rungs and the small matrices.
SMALL = (("random", 5), ("udv", 4), ("sym", 5))
SMALL_PER_KIND = 50
# Smith reduction blows up on dense input from n = 7 on, so each large rung
# gets one dense kind, the same in every round, plus an E8 sum, and the
# count of hangs per round stays fixed.  The random matrix sits at 40: the
# memory a blown-up reduction reaches by the deadline varies less across
# seeds for it (8 to 13 MB) than for P^T diag P (8 to 24 MB).
LARGE = (("sym", 10), ("udv", 20), ("random", 40))
E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def _unimodular(rng, n):
    """L U with random off-diagonal entries in [-c, c]: c = 1 below n = 10,
    where Smith reduction then finishes, and c = 2 from n = 10 on, where it
    then blows up every time rather than for most seeds."""
    c = 1 if n < 10 else 2
    lower = [[1 if i == j else rng.randint(-c, c) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-c, c) if j > i else 0 for j in range(n)] for i in range(n)]
    return O.matmul(lower, upper)


def _is_symmetric(rows):
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def _dense_spec(rng, kind, n):
    """One matrix with every answer known: by construction for U diag(d) V,
    P^T diag(+-1, 0) P and the E8/hyperbolic sums, by the modular oracles
    for fully random matrices."""
    knot = None
    if kind == "random":
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = O.det_exact(rows)
            if det and not _is_symmetric(rows):
                break
        factors = O.invariant_factors(rows)
        sig = mu = "non-symmetric"
    elif kind == "udv":
        while True:
            factors, f = [1] * n, 1
            for i in range(n - 3, n):
                f *= rng.choice((1, 2, 3))
                factors[i] = f
            u, v = _unimodular(rng, n), _unimodular(rng, n)
            rows = O.matmul([[x * dv for x, dv in zip(row, factors)] for row in u], v)
            if not _is_symmetric(rows):
                break
        det, sig, mu = prod(factors), "non-symmetric", "non-symmetric"
    elif kind == "sym":
        p = _unimodular(rng, n)
        zero = rng.randrange(n)
        diag = [rng.choice((1, -1)) for _ in range(n)]
        diag[zero] = 0
        pt = O.transpose(p)
        rows = O.matmul(pt, [[d * x for x in row] for d, row in zip(diag, p)])
        det, sig, factors = 0, sum(diag), [1] * (n - 1) + [0]
        mu = "odd-diagonal" if any(rows[i][i] % 2 for i in range(n)) else "determinant-not-unit"
        x = [rng.randint(-2, 2) for _ in range(n)]
        x[zero] = rng.choice((-2, -1, 1, 2))
        kappa = tuple(sum(pt[i][m] * x[m] for m in range(n)) for i in range(n))
        framing = rng.randint(-3, 3)
        # congruent to [[diag, x], [x^T, framing]]; the unit pivots clear all
        # but the 2x2 block [[0, c], [c, framing - sum d_m x_m^2]]
        corner = framing - sum(d * xm * xm for d, xm in zip(diag, x))
        bordered = [row + [k] for row, k in zip(rows, kappa)] + [list(kappa) + [framing]]
        group = O.group_from_factors(O.smith_2x2((0, x[zero], x[zero], corner)))
        knot = (kappa, framing, True, (bordered, group))
    else:  # E8 and hyperbolic summands under a random signed permutation
        blocks, hyper = n // 8, (n % 8) // 2
        signs = [rng.choice((1, -1)) for _ in range(blocks)]
        base = [[0] * n for _ in range(n)]
        for b, s in enumerate(signs):
            o = 8 * b
            for i in range(8):
                base[o + i][o + i] = 2 * s
            for i, j in E8_EDGES:
                base[o + i][o + j] = base[o + j][o + i] = -s
        for h in range(hyper):
            o = 8 * blocks + 2 * h
            base[o][o + 1] = base[o + 1][o] = 1
        perm = list(range(n))
        rng.shuffle(perm)
        flip = [rng.choice((1, -1)) for _ in range(n)]
        rows = [[flip[i] * flip[j] * base[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        det, sig, factors = (-1) ** hyper, 8 * sum(signs), [1] * n
        mu = sig % 16 // 8
        kappa = [0] * n
        for i in rng.sample(range(n), 2):
            kappa[i] = rng.choice((-2, -1, 1, 2))
        knot = (tuple(kappa), rng.randint(-3, 3), False, "finite-order-class")
    return {
        "kind": kind, "n": n, "rows": rows, "det": det, "factors": tuple(factors),
        "group": O.group_from_factors(factors), "sig": sig, "mu": mu, "knot": knot,
    }


def _rows(m):
    c = m.cols
    return [list(m.entries[i * c:(i + 1) * c]) for i in range(m.rows)]


def _snf_ok(spec, r) -> bool:
    """Diagonal of invariant factors, and u a v == d with unimodular u, v."""
    n, factors = spec["n"], spec["factors"]
    d, u, v = _rows(r.d), _rows(r.u), _rows(r.v)
    return (
        d == [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
        and O.matmul(O.matmul(u, spec["rows"]), v) == d
        and O.is_unimodular(u)
        and O.is_unimodular(v)
    )


def _expect(value):
    return raises(value) if isinstance(value, str) else returns(value)


class Dense:
    """Dense integer matrices through intmat and obstruct."""

    spawns = False  # its operations run in this process
    shards = 4  # worker processes per round: a round is 6 s of missed deadlines and 2 s of work
    name = "dense"
    # The slowest operations that finish (signature and rohlin_mu of the E8
    # sum at 40) took at most 0.16 s of CPU time on a 2-vCPU VM with
    # Python 3.11; with a deadline of 0.5 s one of them still missed it in
    # one run of twenty.
    deadline_s = 0.75

    def generate(self, rng, round_index):
        mats = [_dense_spec(rng, kind, n) for kind, n in SMALL for _ in range(SMALL_PER_KIND)]
        for kind, n in LARGE:
            mats.append(_dense_spec(rng, kind, n))
            mats.append(_dense_spec(rng, "e8", n))
        return mats

    def build(self, mats):
        ops = []
        for m in mats:
            ops.extend(self._ops(m))
        return ops

    @staticmethod
    def _ops(m):
        n, rung = m["n"], f"dense_n{m['n']}"
        a = intmat.IntMatrix(n, n, tuple(x for row in m["rows"] for x in row))
        ops = [
            Op("intmat.det", lambda: intmat.det(a), returns(m["det"]), rung),
            Op("intmat.snf", lambda: intmat.snf(a), satisfies(lambda r: _snf_ok(m, r)), rung),
            Op("intmat.abelian_group_of", lambda: intmat.abelian_group_of(a),
               satisfies(lambda r: (r.free_rank, r.torsion_factors) == m["group"]), rung),
            Op("intmat.signature", lambda: intmat.signature(a), _expect(m["sig"]), rung),
            Op("obstruct.rohlin_mu", lambda: obstruct.rohlin_mu(a), _expect(m["mu"]), rung),
        ]
        if m["knot"]:
            kappa, framing, infinite, attach = m["knot"]
            pres = obstruct.SurgeryPresentation(a)
            knot = obstruct.KnotClass(kappa, framing)
            ops.append(Op("obstruct.has_infinite_order",
                          lambda: obstruct.has_infinite_order(pres, knot), returns(infinite), rung))
            ops.append(Op(
                "obstruct.attach_two_handle", lambda: obstruct.attach_two_handle(pres, knot),
                satisfies(lambda r: _rows(r[0].linking) == attach[0]
                          and (r[1].free_rank, r[1].torsion_factors) == attach[1])
                if isinstance(attach, tuple) else raises(attach),
                rung,
            ))
        return ops


# ================================================================ cli

# The README examples, with the output the README shows.
README_CASES = (
    (("mono", "3", "--torsion"), "trace=3\ntorsion=1\n"),
    (("dual", "2,2,2"), "dual=4\n"),
    (("family", "check", "3,3,3"), "member=yes k=1 x=0,0,0\n"),
    (("family", "gen", "k=1;x=0,0,0"), "string=3,3,3\n"),
    (("kirby", "dualize", "3,3,3"),
     "framings=-2,2,2,-2\neps=+\nblowups=2\nblowdowns=1\ncertified=yes\n"),
    (("obstruct", "square", "3"), "verdict=fail\n"),
    (("ledger", "eval", "word:2,2,3"),
     "descriptor=word:2,2,3 status=obstructed reason=torsion-not-square(3)\n"),
    (("ledger", "eval", "--", "-T^5"),
     "descriptor=word:-5,0 status=bounds-QSB reason=negative-parabolic\n"),
)


def _main_in_process(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Cli:
    """The README examples and three file-based commands, each run as a
    fresh ``python -m plumbcalc`` process (or, for the traced comparison,
    through ``cli.main`` in this process)."""

    shards = 1  # worker processes per round: each operation is a fresh process already
    name = "cli"
    deadline_s = 10.0

    def __init__(self, workdir, src, in_process=False):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = in_process
        self.spawns = not in_process

    def generate(self, rng, round_index):
        """Write this round's input files and return (argv, stdout) cases."""
        files = {name: self.workdir / f"r{round_index}-{name}"
                 for name in ("tree.graph", "m.txt", "seed.graph", "build.txt")}
        tree = _tree_spec(rng, "random", rng.randint(4, 8))
        files["tree.graph"].write_text(tree["text"])
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        files["m.txt"].write_text("4 4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        sj = _selfjoin_spec(rng, (5, 9))
        files["seed.graph"].write_text(_graph_text(*sj["tree"]))
        first, last = sj["ends"]
        files["build.txt"].write_text(
            f"tree S {files['seed.graph'].name}\n"
            f"selfjoin G S {first} {last} {'+' if sj['sign'] > 0 else '-'}\ntarget G\n"
        )
        free, torsion = tree["hom"]
        descriptor, status, reason = sj["ledger"]
        return list(README_CASES) + [
            (("plumb", "homology", str(files["tree.graph"])),
             f"homology={O.describe_group(free, torsion)}\n"),
            (("mat", "det", str(files["m.txt"])), f"det={O.det_exact(rows)}\n"),
            (("ledger", "eval", f"build:{files['build.txt']}"),
             f"descriptor={descriptor} status={status} reason={reason}\n"),
        ]

    def build(self, cases):
        return [self._op(argv, expected) for argv, expected in cases]

    def _op(self, argv, expected):
        name = f"cli.{argv[0]}"
        if self.in_process:
            return Op(name, lambda: _main_in_process(argv), returns((0, expected)))
        cmd = [sys.executable, "-m", "plumbcalc", *argv]
        return Op(
            name,
            lambda: subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True),
            satisfies(lambda r: r.returncode == 0 and r.stdout == expected.encode()),
        )
