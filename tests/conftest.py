"""Shared test fixtures: independent oracles and exhaustive corpora."""

import gc
import random
from itertools import product
from time import process_time

import pytest
from hypothesis import strategies as st

from plumbcalc.intmat import IntMatrix

# The even unimodular rank-8 positive definite form (chain of seven nodes
# with the eighth attached to the fifth).  Leading principal minors are
# 2,3,4,5,6,7,8,1: positive definite, determinant 1.
E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]

HYPERBOLIC_PLANE_ROWS = [[0, 1], [1, 0]]


@pytest.fixture
def e8() -> IntMatrix:
    return IntMatrix.from_rows(E8_ROWS)


def cofactor_det(rows) -> int:
    """Independent determinant oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = head * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def all_strings(max_len: int, lo: int, hi: int):
    """Every tuple of entries in [lo, hi] with length 1..max_len."""
    for n in range(1, max_len + 1):
        yield from product(range(lo, hi + 1), repeat=n)


def hyperbolic_strings(max_len: int, max_entry: int):
    """Strings with all entries >= 2 and at least one >= 3 (the hyperbolic
    normal forms), up to the given length and entry bound."""
    for s in all_strings(max_len, 2, max_entry):
        if any(x >= 3 for x in s):
            yield s


def family_parameter_space(max_k: int, max_x: int):
    """All (k, xs) with k <= max_k and every x_i <= max_x."""
    from plumbcalc.strings import FamilyParams

    for k in range(max_k + 1):
        for xs in product(range(max_x + 1), repeat=2 * k + 1):
            yield FamilyParams(k, xs)


def random_unimodular(rng, n: int, steps: int = 12) -> IntMatrix:
    """Random determinant +-1 matrix: a product of integer elementary
    row operations and sign flips applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n == 1:
            if rng.randrange(2):
                rows[0][0] = -rows[0][0]
            continue
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                rows[i][col] += c * rows[j][col]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def best_cpu_seconds(fn, repeats: int = 3) -> float:
    """Least CPU time of ``repeats`` calls of ``fn``: a time bound checked on
    the best run does not fail on a scheduler hiccup."""
    best = float("inf")
    for _ in range(repeats):
        start = process_time()
        fn()
        best = min(best, process_time() - start)
    return best


def median_cpu_ratio(slow, fast) -> float:
    """The median of nine ratios of the CPU time of one ``slow()`` call to
    that of one ``fast()`` call.  Each ratio times the two back to back, so
    that a drift in the machine's speed hits both, with the cycle collector
    off, as timeit does: a full collection scans the whole session's heap,
    which is no cost of the code timed."""
    ratios = []
    gc.disable()
    try:
        for _ in range(9):
            start = process_time()
            slow()
            middle = process_time()
            fast()
            ratios.append((middle - start) / (process_time() - middle))
    finally:
        gc.enable()
    return sorted(ratios)[4]


def reference_recognize_family(a):
    """Reference family recognizer: tries every rotation that starts at an
    entry >= 3 and returns the parameters of the first consistent parse.
    O(n^2); the library parses one rotation only."""
    from plumbcalc.strings import FamilyParams

    a = tuple(a)
    if not a or any(x < 2 for x in a):
        return None
    n = sum(1 for x in a if x >= 3)
    if n % 2 == 0:
        return None

    def cyclic(i):  # residue -> 1-based index 1..n
        return i % n or n

    for r in range(len(a)):
        if a[r] < 3:
            continue
        rot = a[r:] + a[:r]
        blocks = []  # (head - 3, run of 2's after it)
        idx = 0
        while idx < len(rot):
            head = rot[idx] - 3
            idx += 1
            run = 0
            while idx < len(rot) and rot[idx] == 2:
                run += 1
                idx += 1
            blocks.append((head, run))
        heads, runs = {}, {}
        for j, (head, run) in enumerate(blocks):
            i = cyclic(1 + 2 * j)
            heads[i] = head
            runs[cyclic(i + 1)] = run
        if all(heads[i] == runs[i] for i in range(1, n + 1)):
            return FamilyParams((n - 1) // 2, tuple(heads[i] for i in range(1, n + 1)))
    return None


def reference_hermite(w, c):
    """Reference row Hermite pass: the Kannan-Bachem loop of ``intmat._hermite``
    with a Euclid chain of quotient-and-swap steps at every pivot clash, where
    the library takes one Bezout step.  In place, as there."""

    def axpy(dst, src, k):
        for j, y in enumerate(src):
            dst[j] += k * y

    hw, hc, cols, zw, zc = [], [], [], [], []
    n = len(w[0]) if w else 0
    for row, crow in zip(w, c):
        first = len(hw)
        lead = s = 0
        while True:
            while lead < n and not row[lead]:
                lead += 1
            while s < len(cols) and cols[s] < lead:
                s += 1
            if lead == n or s == len(cols) or cols[s] != lead:
                break
            q = row[lead] // hw[s][lead]
            axpy(row, hw[s], -q)
            axpy(crow, hc[s], -q)
            while row[lead]:  # Euclid on the pair
                q = hw[s][lead] // row[lead]
                axpy(hw[s], row, -q)
                axpy(hc[s], crow, -q)
                hw[s], row, hc[s], crow = row, hw[s], crow, hc[s]
                first = min(first, s)
        if lead == n:
            zw.append(row)
            zc.append(crow)
        else:
            if row[lead] < 0:
                row, crow = [-x for x in row], [-x for x in crow]
            cols.insert(s, lead)
            hw.insert(s, row)
            hc.insert(s, crow)
            first = min(first, s)
        for s in range(first, len(hw)):
            for s2 in range(s):
                q = hw[s2][cols[s]] // hw[s][cols[s]]
                axpy(hw[s2], hw[s], -q)
                axpy(hc[s2], hc[s], -q)
    w[:] = hw + zw
    c[:] = hc + zc


def brute_lex_min_rotation(s):
    """Least rotation by comparing all of them: the oracle for Booth's kernel."""
    s = tuple(s)
    return min((s[r:] + s[:r] for r in range(len(s))), default=s)


def family_of_length(length, k, seed):
    """A seeded family string of the given length with 2k+1 blocks."""
    from plumbcalc.strings import FamilyParams, family_string

    rng = random.Random(seed)
    xs = [0] * (2 * k + 1)
    for _ in range(length - len(xs)):
        xs[rng.randrange(len(xs))] += 1
    return family_string(FamilyParams(k, tuple(xs)))


def reference_dualize(a):
    """Reference dualization: the per-move loop on a list, which moves the
    last entry to the front with ``_cut`` and multiplies its ``SL2Element``
    conjugator at every blowdown (O(n) per move).  No contract checks."""
    from plumbcalc.kirby import ChainState, DualizeResult, _blow, _cut
    from plumbcalc.strings import _split_family

    a = tuple(a)
    offset, _, e = _split_family(a)
    fr = [-x for x in a]
    eps = 1
    ups = downs = 0
    witness = _cut(fr, (offset - 1) % len(fr))
    remaining = len(e)
    while remaining:
        _blow(fr, 1, 1, up=True)
        eps = -eps
        ups += 1
        while remaining and fr[0] == -1:
            witness = witness @ _cut(fr, len(fr) - 1)
            _blow(fr, 1, -1, up=False)
            downs += 1
            remaining -= 1
    start = ChainState(tuple(-x for x in a), 1)
    return DualizeResult(start, ChainState(tuple(fr), eps), witness, ups, downs)


def reference_join(g1, v1, g2, v2):
    """Reference join: each ``g2`` vertex renamed in declaration order by the
    fewest primes that make it free, ``v2`` mapped straight to ``v1``, the
    weights summed in place.  It walks both operands in Python; the
    library's join slices ``g1``'s tuples around ``v1`` and walks only
    ``g2``."""
    from plumbcalc.errors import DomainError
    from plumbcalc.plumbing import PlumbingGraph

    if not g1.is_tree() or not g2.is_tree():
        raise DomainError("non-tree", "join needs two plumbing trees")
    g1.weight(v1)
    w2 = g2.weight(v2)

    taken = set(g1.names)
    rename = {}
    for name, _ in g2.vertices:
        if name == v2:
            rename[name] = v1
            continue
        primes = 0
        while name + "'" * primes in taken:
            primes += 1
        fresh = name + "'" * primes
        rename[name] = fresh
        taken.add(fresh)

    vertices = [
        (n, w + w2) if n == v1 else (n, w) for n, w in g1.vertices
    ]
    vertices.extend((rename[n], w) for n, w in g2.vertices if n != v2)
    edges = list(g1.edges)
    edges.extend((rename[u], rename[v], s) for u, v, s in g2.edges)
    return PlumbingGraph(tuple(vertices), tuple(edges))


# names that clash across two trees and collide with each other's primes
CLASH_NAMES = [base + "'" * k for base in "abc" for k in range(3)]


@st.composite
def clashing_trees(draw, min_size=1):
    """Trees of min_size to 7 vertices named from :data:`CLASH_NAMES` in a
    random declaration order, with weights in -6..6 and shuffled edges."""
    from plumbcalc.plumbing import PlumbingGraph

    names = draw(st.lists(st.sampled_from(CLASH_NAMES), min_size=min_size, max_size=7, unique=True))
    weights = draw(st.lists(st.integers(-6, 6), min_size=len(names), max_size=len(names)))
    edges = [(names[draw(st.integers(0, i - 1))], names[i], draw(st.sampled_from((1, -1))))
             for i in range(1, len(names))]
    edges = [(v, u, s) if draw(st.booleans()) else (u, v, s) for u, v, s in edges]
    return PlumbingGraph(tuple(zip(names, weights)), tuple(draw(st.permutations(edges))))


def reference_self_join(g, v1, v2, sign):
    """Reference self-join: the tree path's signs fixed, then ``v2`` dropped
    and every edge end at it remapped to ``v1``."""
    from plumbcalc.errors import DomainError
    from plumbcalc.plumbing import PlumbingGraph, _spanning_forest, _tree_path

    if sign not in (1, -1):
        raise DomainError("bad-sign", "self-join sign must be +1 or -1")
    if v1 == v2:
        raise DomainError("same-vertex", "self-join needs two distinct vertices")
    if not g.is_tree():
        raise DomainError("non-tree", "self-join needs a plumbing tree")
    w1, w2 = g.weight(v1), g.weight(v2)

    path = _tree_path(_spanning_forest(g)[0], v2, v1)
    edges = list(g.edges)
    for rank, (_, idx) in enumerate(path):
        u, v, _ = edges[idx]
        edges[idx] = (u, v, sign if rank == 0 else 1)

    vertices = tuple(
        (n, w1 + w2) if n == v1 else (n, w) for n, w in g.vertices if n != v2
    )
    remapped = tuple(
        (v1 if u == v2 else u, v1 if v == v2 else v, s) for u, v, s in edges
    )
    return PlumbingGraph(vertices, remapped)


def reference_canonical_key(g):
    """Reference canonical key: a breadth-first search of its own, from the
    sorted names over each vertex's sorted neighbour names, with no use of
    the graph's cached walk."""
    adj = {n: [] for n, _ in g.vertices}
    for u, v, _ in g.edges:
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    new_id = {}
    for start in sorted(g.names):
        if start in new_id:
            continue
        new_id[start] = len(new_id)
        order = [start]
        for cur in order:
            for nb in sorted(adj[cur]):
                if nb not in new_id:
                    new_id[nb] = len(new_id)
                    order.append(nb)
    weights = dict(g.vertices)
    vparts = ",".join(f"v{i}:{weights[n]}" for n, i in new_id.items())
    eparts = ",".join(sorted(
        f"v{min(new_id[u], new_id[v])}-v{max(new_id[u], new_id[v])}:{'+' if s > 0 else '-'}"
        for u, v, s in g.edges
    ))
    return f"{vparts}|{eparts}" if eparts else vparts


def reference_boundary_homology(g):
    """Reference boundary homology: the general route alone, the cokernel of
    the core that Q's unit pivots leave plus one Z per cycle, with no det,
    no coprime-minor certificate and no pure-cycle shortcut."""
    from plumbcalc.errors import DomainError
    from plumbcalc.intmat import AbelianGroupDesc, _unit_core, abelian_group_of
    from plumbcalc.plumbing import _form_rows

    if g.cycle_count > 1:
        raise DomainError("multi-cycle", "boundary homology needs at most one cycle")
    coker = abelian_group_of(_unit_core(_form_rows(g.vertices, g.edges)))
    return AbelianGroupDesc(coker.free_rank + g.cycle_count, coker.torsion_factors)


def reference_join_hypotheses(g, v):
    """Reference join check: the boundary by :func:`reference_boundary_homology`,
    the complement by the rank of the core that the unit pivots of the
    form of the lists without ``v`` leave."""
    from plumbcalc.intmat import AbelianGroupDesc, _unit_core, rank
    from plumbcalc.plumbing import JoinHypotheses, _form_rows

    boundary = reference_boundary_homology(g) == AbelianGroupDesc(1, ())
    rest_vertices = [(n, w) for n, w in g.vertices if n != v]
    core = _unit_core(_form_rows(rest_vertices, [e for e in g.edges if v not in e]))
    return JoinHypotheses(boundary, rank(core) == core.rows)


def reference_graph_verdict(g):
    """Reference ledger verdict of a graph, homology first: a pure cycle by
    its traversal word, else the S^1 x S^2 seed on a tree whose homology is
    Z, else the square test on the torsion order."""
    from plumbcalc import ledger
    from plumbcalc.intmat import AbelianGroupDesc
    from plumbcalc.plumbing import cycle_traversal, is_pure_cycle
    from plumbcalc.sl2 import _framed_word

    if is_pure_cycle(g):
        return ledger._word_verdict(_framed_word(*cycle_traversal(g)))
    homology = reference_boundary_homology(g)
    if homology == AbelianGroupDesc(1, ()) and g.is_tree():
        return ledger.STATUS_BOUNDS, "s1xs2-base(homology-level)"
    return ledger._square_fallback(homology.torsion_order)


def reference_construction_verdicts(build):
    """The whole-graph oracle of ``Construction.evaluate``: every step's
    (status, reason), bottom-up in step order.  A join's hypotheses come from
    ``check_join_hypotheses`` on its operand and each graph's own verdict from
    a pass over the whole graph (det Q, then boundary homology when it is 0),
    so a chain costs quadratic time; the ledger reads join summaries."""
    from plumbcalc import ledger, plumbing
    from plumbcalc.intmat import AbelianGroupDesc
    from plumbcalc.sl2 import _framed_word

    def own(g):
        if plumbing.is_pure_cycle(g):
            return ledger._word_verdict(_framed_word(*plumbing.cycle_traversal(g)))
        if g.cycle_count < 2 and (q_det := plumbing._form_det(g)):
            return ledger._square_fallback(abs(q_det))
        homology = plumbing.boundary_homology(g)
        if homology == AbelianGroupDesc(1, ()) and g.is_tree():
            return ledger.STATUS_BOUNDS, "s1xs2-base(homology-level)"
        return ledger._square_fallback(homology.torsion_order)

    verdicts = {}
    for name in build.names():
        graph, step = build._steps[name]
        verdict = None
        if step[0] == "selfjoin":
            status, reason = verdicts[step[1]]
            if status == ledger.STATUS_BOUNDS and (q_det := plumbing._form_det(graph)):
                verdict = ledger.STATUS_BOUNDS, f"self-join-nonsingular(det={q_det})<-{reason}"
        elif step[0] == "join":
            _, left, v1, right, v2 = step
            for pivot, pivot_v, other in ((left, v1, right), (right, v2, left)):
                status, reason = verdicts[other]
                if (status == ledger.STATUS_BOUNDS
                        and plumbing.check_join_hypotheses(build.graph(pivot), pivot_v).all_pass):
                    verdict = (ledger.STATUS_BOUNDS,
                               f"join-transfer({pivot}-hypotheses;homology-level)<-{reason}")
                    break
        verdicts[name] = verdict or own(graph)
    return verdicts
