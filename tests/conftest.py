"""Shared test fixtures: independent oracles and exhaustive corpora."""

import gc
import random
from itertools import product
from time import process_time

import pytest

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
    """Reference join: each ``g2`` vertex renamed in declaration order, ``v2``
    mapped straight to ``v1``, the weights summed in place.  The library's
    join merges through the same vertex identification as its self-join."""
    from plumbcalc.errors import DomainError
    from plumbcalc.plumbing import PlumbingGraph, _fresh_name

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
        fresh = _fresh_name(name, taken)
        rename[name] = fresh
        taken.add(fresh)

    vertices = [
        (n, w + w2) if n == v1 else (n, w) for n, w in g1.vertices
    ]
    vertices.extend((rename[n], w) for n, w in g2.vertices if n != v2)
    edges = list(g1.edges)
    edges.extend((rename[u], rename[v], s) for u, v, s in g2.edges)
    return PlumbingGraph(tuple(vertices), tuple(edges))


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
