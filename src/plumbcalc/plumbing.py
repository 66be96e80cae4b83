"""Plumbing graphs: intersection forms, boundary homology, join and self-join.

A plumbing graph has weighted vertices and signed edges; multi-edges and
self-loops are allowed, and at most one independent cycle.  One breadth-first
walk in name order gives a spanning forest, kept on the graph: its component
count, its cycle, a self-join's tree path and the canonical key's vertex
numbering are all read from that one walk.  The boundary 3-manifold's first
homology is Z^{cycles} plus the cokernel of the intersection form Q, whose
nonzeros come from the edge list: one leaf-to-root pass gives det Q and
det(Q - v), and coker(Q) = Z/|det Q| when they are coprime; else the core
that Q's +-1 pivots leave (``intmat._unit_core``) goes to the Smith kernel.
Cyclic graphs are torus bundles: their monodromy is the product of T^{w_i} S
over the cycle, scaled by the product of edge signs.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod
from operator import itemgetter

from . import intmat
from .errors import _SIGNS, DomainError, _ints, _keyword_lines, _Value
from .intmat import AbelianGroupDesc, IntMatrix, _unit_core, abelian_group_of
from .sl2 import MonodromyWord, SL2Element, _framed_word, lex_min_rotation, word_to_matrix

__all__ = [
    "PlumbingGraph",
    "JoinHypotheses",
    "is_pure_cycle",
    "parse_graph",
    "format_graph",
    "intersection_form",
    "boundary_homology",
    "cycle_plumbing_from_word",
    "cycle_monodromy",
    "cycle_traversal",
    "join",
    "self_join",
    "check_join_hypotheses",
    "canonical_key",
]


class PlumbingGraph(_Value):
    """Weighted graph with signed edges; immutable after construction.  Its
    instance ``__dict__`` holds the fields and the cached ``_forest`` and
    ``_walk``; ``==``, hash and repr read only the ``_fields``."""

    vertices: tuple[tuple[str, int], ...]        # (name, weight) in declaration order
    edges: tuple[tuple[str, str, int], ...]      # (u, v, sign) with sign in {+1, -1}

    def __init__(self, vertices, edges) -> None:
        names = {n for n, _ in vertices}
        if len(names) != len(vertices):
            raise DomainError("duplicate-vertex", "vertex names must be unique")
        for u, v, s in edges:
            if u not in names or v not in names:
                raise DomainError("dangling-edge", f"edge ({u},{v}) references a missing vertex")
            if s not in (1, -1):
                raise DomainError("bad-edge-sign", "edge signs must be +1 or -1")
        self.__dict__.update(vertices=vertices, edges=edges)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vertices)

    def weight(self, name: str) -> int:
        for n, w in self.vertices:
            if n == name:
                return w
        raise DomainError("missing-vertex", f"no vertex named {name}")

    @cached_property
    def _forest(self):
        """The :func:`_spanning_forest`, walked on first use (a frozen graph
        never changes)."""
        return _spanning_forest(self)

    @cached_property
    def _walk(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        """The component count and the unique cycle, read from the forest.
        The cycle is (vertex, edge index) steps, each edge leading to the
        next step's vertex: across the one edge the forest left out, from its
        first end, then along the tree path back to that end; it is empty
        unless the graph has exactly one cycle.  Users need only a cyclic
        order of the steps, so a builder may hand over a cycle it knows."""
        parent, order, extra = self._forest
        if len(extra) != 1:
            return len(order) - len(parent), ()
        (i,) = extra
        u, x, _ = self.edges[i]
        return len(order) - len(parent), ((u, i), *_tree_path(parent, x, u))

    def component_count(self) -> int:
        return self._walk[0]

    @property
    def cycle_count(self) -> int:
        return len(self.edges) - len(self.vertices) + self.component_count()

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and self.component_count() == 1


def _spanning_forest(g: PlumbingGraph):
    """One breadth-first spanning tree per component, in name order: each
    root is the least name not yet reached, and a vertex takes its edges by
    neighbour name, then by edge index.  Returns the parent and tree edge of
    every non-root vertex, the vertices in the order reached, and the set of
    the indices of the edges left out of the trees."""
    adj: dict[str, list[tuple[str, int]]] = {n: [] for n in sorted(g.names)}
    for i, (u, v, _) in enumerate(g.edges):  # a self-loop once
        adj[u].append((v, i))
        if u != v:
            adj[v].append((u, i))
    parent: dict[str, tuple[str, int]] = {}
    roots, order, extra = set(), [], set()
    for root in adj:
        if root in parent or root in roots:
            continue
        roots.add(root)
        queue = [root]
        for x in queue:
            up = parent[x][1] if x in parent else None
            for y, i in sorted(adj[x]):
                if i == up:
                    continue
                if y in parent or y in roots:
                    extra.add(i)
                else:
                    parent[y] = (x, i)
                    queue.append(y)
        order += queue
    return parent, order, extra


def _tree_path(parent: dict[str, tuple[str, int]], src: str, dst: str) -> list[tuple[str, int]]:
    """The tree path from ``src`` to ``dst`` as (vertex, edge index) steps,
    each edge leading to the next step's vertex, the last one to ``dst``."""
    up, x = [src], src
    while x in parent:
        x = parent[x][0]
        up.append(x)
    depth = {v: k for k, v in enumerate(up)}
    down, x = [], dst
    while x not in depth:
        down.append(parent[x])
        x = parent[x][0]
    return [(v, parent[v][1]) for v in up[:depth[x]]] + down[::-1]


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format::

        vertex <name> <integer-weight>
        edge <name> <name> <+|->

    '#' starts a comment; a text with no vertex and no edge line is
    ``empty-graph``.  The result has at most one cycle, with its edge
    signs normalized so that at most one cycle edge is negative (preserving
    the sign product).
    """
    names, weights, edges = [], [], []
    grammar = {"vertex": 3, "edge": 4}
    for _, parts in _keyword_lines(text.splitlines(), "graph-syntax", grammar, ("edge",)):
        if parts[0] == "vertex":
            names.append(parts[1])
            weights.append(parts[2])
        else:
            edges.append((parts[1], parts[2], _SIGNS[parts[3]]))
    if not names and not edges:
        raise DomainError("empty-graph", "a graph needs at least one vertex")
    vertices = zip(names, _ints(weights, "graph-syntax", "bad weight"))
    graph = PlumbingGraph(tuple(vertices), tuple(edges))
    if graph.cycle_count > 1:
        raise DomainError("multi-cycle", "graphs with two or more independent cycles are unsupported")
    return _normalize_cycle_signs(graph)


def format_graph(g: PlumbingGraph) -> str:
    lines = [f"vertex {n} {w}" for n, w in g.vertices]
    lines.extend(f"edge {u} {v} {'+' if s > 0 else '-'}" for u, v, s in g.edges)
    return "\n".join(lines)


def _normalize_cycle_signs(g: PlumbingGraph) -> PlumbingGraph:
    """Flip cycle-edge signs to the normal form: at most one negative edge.

    Graphs already in normal form are returned untouched; otherwise the sign
    product is preserved, the negative edge (if any) lands on the first
    cycle edge in declaration order, and the new graph keeps the cached
    forest and walk.
    """
    cycle = sorted(i for _, i in g._walk[1])
    negatives = [i for i in cycle if g.edges[i][2] < 0]
    if len(negatives) <= 1:
        return g
    edges = list(g.edges)
    for i in cycle:  # the sign product is negative iff the negatives are odd
        u, v, _ = edges[i]
        edges[i] = (u, v, -1 if i == cycle[0] and len(negatives) % 2 else 1)
    flipped = PlumbingGraph(g.vertices, tuple(edges))
    flipped.__dict__.update(_forest=g._forest, _walk=g._walk)  # every edge keeps its ends and index
    return flipped


def _form_rows(vertices, edges) -> list[dict[int, int]]:
    """Q's rows ``{column: nonzero entry}``, read from a vertex list and an
    edge list: a vertex's weight plus 2*sign per self-loop on the diagonal,
    the sum of the edges' signs elsewhere."""
    index = {n: i for i, (n, _) in enumerate(vertices)}
    rows = [{i: w} for i, (_, w) in enumerate(vertices)]
    for u, v, s in edges:  # a self-loop adds its sign twice
        i, j = index[u], index[v]
        rows[i][j] = rows[i].get(j, 0) + s
        rows[j][i] = rows[j].get(i, 0) + s
    return [{c: x for c, x in r.items() if x} if 0 in r.values() else r for r in rows]


def _ring_det(pairs, ends) -> int:
    """det of a ring of m pairs (A_i, B_i) with ends[i] from the i-th to the next:
    tr(prod [[A_i, -ends[i-1]^2 B_i], [B_i, 0]]) - 2 (-1)^m prod ends prod B."""
    p, q, r, s = 1, 0, 0, 1
    for (x, y), e in zip(pairs, ends[-1:] + ends[:-1]):
        c = -e * e * y
        p, q, r, s = p * x + q * y, c * p, r * x + s * y, c * r
    return p + s - 2 * (-1) ** len(pairs) * prod(ends) * prod(y for _, y in pairs)


def _form_minors(vertices, edges, root) -> tuple[int, int]:
    """(det Q, det(Q - root)) by one leaf-to-root pass over Q's nonzeros (the
    root of ``None`` is Q's first leaf, if any).  Vertex p carries A_p, the det
    of the part folded into it, and B_p, that without p; a leaf c folds into p
    across q by A_p <- A_p A_c - q^2 B_p B_c, B_p <- B_p A_c, with no division.
    det(Q - root) is d det Q / d Q_root,root, carried as (dA, dB) by the vertex
    holding the root.  A ring left closes by :func:`_ring_det`, linear in each
    pair; a vertex of degree three left is a second cycle."""
    rows = _form_rows(vertices, edges)
    a, b = [r.pop(i, 0) for i, r in enumerate(rows)], [1] * len(rows)  # rows keep the neighbours
    leaves = [i for i, r in enumerate(rows) if len(r) == 1]
    held = next((i for i, (n, _) in enumerate(vertices) if n == root), leaves[0] if leaves else -1)
    da, db = int(held >= 0), 0
    for c in leaves:  # grows as the peel makes new leaves
        if len(rc := rows[c]) != 1:
            continue  # its neighbour was folded into it: the last of its tree
        ((p, q),) = rc.items()
        rows[c], rp = None, rows[p]
        del rp[c]
        ac, bc, ap, bp, q = a[c], b[c], a[p], b[p], q * q
        a[p], b[p] = ap * ac - q * bp * bc, bp * ac
        if held == c:
            held, da, db = p, ap * da - q * bp * db, bp * da
        elif held == p:
            da, db = da * ac - q * db * bc, db * ac
        if len(rp) == 1:
            leaves.append(p)
    q_det, minor = 1, 0  # the components' product, det Q + t det(Q - root)
    for i, r in enumerate(rows):
        if r is None:
            continue
        x, dx, ring, ends, prev, v = a[i], da if held == i else 0, [], [], -1, i
        while r and (v != i or not ring):  # a ring: each step leaves by the other neighbour
            if (rv := rows[v]) is None or len(rv) != 2:
                raise DomainError("multi-cycle", "graphs with two or more cycles are unsupported")
            rows[v], (y, z) = None, rv
            ring.append(v)
            prev, v = v, z if y == prev else y
            ends.append(rv[v])
        if ring:
            x = _ring_det([(a[v], b[v]) for v in ring], ends)
            if held in ring:
                dx = _ring_det([(da, db) if v == held else (a[v], b[v]) for v in ring], ends)
        q_det, minor = q_det * x, minor * x + q_det * dx
    return q_det, minor


def _form_det(g: PlumbingGraph) -> int:
    """det Q by one pass of :func:`_form_minors`."""
    return _form_minors(g.vertices, g.edges, None)[0]


def intersection_form(g: PlumbingGraph) -> IntMatrix:
    """Symmetric linking matrix Q, filled from :func:`_form_rows`; ``too-large``,
    with nothing built, past ``intmat._MAX_CERTIFICATE`` entries."""
    if (n := len(g.vertices)) ** 2 > (cap := intmat._MAX_CERTIFICATE):
        raise DomainError("too-large", f"a {n}-vertex form exceeds {cap} entries")
    q = [0] * (n * n)
    for i, row in enumerate(_form_rows(g.vertices, g.edges)):
        for j, x in row.items():
            q[i * n + j] = x
    return IntMatrix(n, n, tuple(q))


def boundary_homology(g: PlumbingGraph) -> AbelianGroupDesc:
    """First homology of the boundary: coker(Q) plus one Z per cycle, for a
    pure cycle Z + coker(eps M - I), M its monodromy.  Else d_1 ... d_(n-1)
    divides det Q and det(Q - v), v a leaf: if they are coprime, coker(Q) is
    Z/|det Q|; if not, it comes from the core Q's unit pivots leave."""
    cycles = g.cycle_count
    if cycles > 1:
        raise DomainError("multi-cycle", "boundary homology needs at most one cycle")
    if is_pure_cycle(g):
        m, sign = cycle_monodromy(g)
        a, b, c, d = sign * m.a - 1, sign * m.b, sign * m.c, sign * m.d - 1
        f, order = gcd(a, b, c, d), abs(a * d - b * c)  # Z/f + Z/(order/f) at full rank
        factors = (f, order // f) if order else (f,)  # else Z + Z/f, or Z^2 if f = 0
        return AbelianGroupDesc(1 + (not order) + (not f), tuple(x for x in factors if x > 1))
    q_det, minor = _form_minors(g.vertices, g.edges, None)
    if q_det and gcd(q_det, minor) == 1:
        return AbelianGroupDesc(cycles, (abs(q_det),) if abs(q_det) > 1 else ())
    coker = abelian_group_of(_unit_core(_form_rows(g.vertices, g.edges)))
    return AbelianGroupDesc(coker.free_rank + cycles, coker.torsion_factors)


def is_pure_cycle(g: PlumbingGraph) -> bool:
    """True iff the graph is a single cycle with every vertex on it."""
    return 0 < len(g.vertices) == len(g.edges) == len(g._walk[1])


def cycle_plumbing_from_word(w: MonodromyWord) -> PlumbingGraph:
    """Cycle plumbing whose boundary is the torus bundle of ``w``.

    Accepted word classes:

    * hyperbolic normal form: sign +, all a_i >= 2, some a_j >= 3 -> cycle
      with weights -a_i and all edges positive;
    * negative parabolic, trace -2 representative (2,...,2 with sign -),
      n >= 2 -> all weights -2, exactly one negative edge;
    * its mirror (-2,...,-2 with sign -), n >= 2 -> all weights +2, exactly
      one negative edge.
    """
    a = w.coeffs
    n = len(a)
    hyperbolic = w.sign > 0 and all(x >= 2 for x in a) and any(x >= 3 for x in a)
    parabolic_neg = w.sign < 0 and n >= 2 and all(x == 2 for x in a)
    parabolic_pos = w.sign < 0 and n >= 2 and all(x == -2 for x in a)
    if not (hyperbolic or parabolic_neg or parabolic_pos):
        raise DomainError(
            "unsupported-word-class",
            "need a hyperbolic normal form (+, all >=2, some >=3) or a "
            "parabolic cycle word (-, all entries 2 or all -2, length >= 2)",
        )
    width = len(str(n - 1))
    names = [f"v{str(i).zfill(width)}" for i in range(n)]
    vertices = tuple((names[i], -a[i]) for i in range(n))
    edges = tuple((names[i], names[i + 1], 1) for i in range(n - 1))
    return PlumbingGraph(vertices, edges + ((names[-1], names[0], w.sign),))


def cycle_traversal(g: PlumbingGraph) -> tuple[tuple[int, ...], int]:
    """Weights of a pure cycle in canonical traversal order, plus the product
    of the edge signs.

    The traversal starts at the lexicographically smallest vertex and moves
    toward its smaller-named neighbor, so the output is deterministic (any
    rotation is conjugate).
    """
    if not is_pure_cycle(g):
        raise DomainError("not-a-cycle", "graph is not a single cycle")
    names = [x for x, _ in g._walk[1]]
    order = min(lex_min_rotation(names), lex_min_rotation(names[::-1]))
    weights = dict(g.vertices)
    return tuple(weights[name] for name in order), prod(s for _, _, s in g.edges)


def cycle_monodromy(g: PlumbingGraph) -> tuple[SL2Element, int]:
    """Monodromy of a pure cycle graph: the product of T^{w_i} S over the
    cycle traversal, with the product of edge signs reported separately."""
    weights, sign = cycle_traversal(g)
    return word_to_matrix(_framed_word(weights)), sign


def join(g1: PlumbingGraph, v1: str, g2: PlumbingGraph, v2: str) -> PlumbingGraph:
    """Join two plumbing trees by identifying ``v1`` and ``v2``; the merged
    vertex takes the sum of the two weights.  Vertices of ``g2`` that clash
    with names in ``g1`` are renamed by appending primes.  Only ``g2`` is
    walked here: ``g1``'s tuples are sliced and concatenated as they stand."""
    if not g1.is_tree() or not g2.is_tree():
        raise DomainError("non-tree", "join needs two plumbing trees")
    names = list(map(itemgetter(0), g1.vertices))
    try:
        i = names.index(v1)
    except ValueError:
        g1.weight(v1)  # raises missing-vertex
    w2 = g2.weight(v2)

    taken = set(names)
    rename = {v2: v1}
    for name, _ in g2.vertices:
        if name != v2:
            fresh = name
            while fresh in taken:
                fresh += "'"
            rename[name] = fresh
            taken.add(fresh)

    vertices = (g1.vertices[:i] + ((v1, g1.vertices[i][1] + w2),) + g1.vertices[i + 1:]
                + tuple((rename[n], w) for n, w in g2.vertices if n != v2))
    edges = g1.edges + tuple((rename[u], rename[v], s) for u, v, s in g2.edges)
    joined = PlumbingGraph(vertices, edges)
    joined.__dict__["_walk"] = (1, ())  # one component, no cycle
    return joined


def self_join(g: PlumbingGraph, v1: str, v2: str, sign: int) -> PlumbingGraph:
    """Identify two distinct vertices of a tree, summing their weights.

    The former tree path, closed at ``v1``, is the cycle and the result's walk;
    its edges are normalized to all-positive, with the edge at the ``v2`` end
    turned negative when ``sign`` is -1.  If the vertices were adjacent, their
    edge becomes a self-loop carrying ``sign``.
    """
    if sign not in (1, -1):
        raise DomainError("bad-sign", "self-join sign must be +1 or -1")
    if v1 == v2:
        raise DomainError("same-vertex", "self-join needs two distinct vertices")
    if not g.is_tree():
        raise DomainError("non-tree", "self-join needs a plumbing tree")
    g.weight(v1)
    w2 = g.weight(v2)

    path = _tree_path(g._forest[0], v2, v1)
    edges = list(g.edges)
    for rank, (_, idx) in enumerate(path):
        u, v, _ = edges[idx]
        edges[idx] = (u, v, sign if rank == 0 else 1)
    # v2 merges into v1 and its edge ends move there (a sign is never a name);
    # other edges keep their tuples
    vertices = tuple((n, w + w2) if n == v1 else (n, w) for n, w in g.vertices if n != v2)
    moved = tuple(tuple(v1 if x == v2 else x for x in e) if v2 in e else e for e in edges)
    joined = PlumbingGraph(vertices, moved)
    joined.__dict__["_walk"] = (1, ((v1, path[0][1]), *path[1:]))
    return joined


class JoinHypotheses(_Value):
    """Homology-level hypotheses for transferring a bounding certificate
    through a join: the boundary must look like S^1 x S^2 integrally, and the
    complement of the distinguished vertex must have rational-sphere
    boundary on every component."""

    boundary_is_s1xs2: bool
    complement_is_qs3: bool

    def __init__(self, boundary_is_s1xs2: bool, complement_is_qs3: bool) -> None:
        self.__dict__.update(boundary_is_s1xs2=boundary_is_s1xs2,
                             complement_is_qs3=complement_is_qs3)

    @property
    def all_pass(self) -> bool:
        return self.boundary_is_s1xs2 and self.complement_is_qs3


def check_join_hypotheses(g: PlumbingGraph, v: str) -> JoinHypotheses:
    if not g.is_tree():
        raise DomainError("non-tree", "hypothesis check needs a plumbing tree")
    g.weight(v)
    # the forest g - v has a QS^3 boundary iff det(Q - v) != 0; coker(Q) = Z needs
    # det Q = 0, and a unit (n-1)-minor makes it so
    q_det, minor = _form_minors(g.vertices, g.edges, v)
    boundary_ok = not q_det and (minor in (1, -1) or boundary_homology(g) == AbelianGroupDesc(1, ()))
    return JoinHypotheses(boundary_ok, minor != 0)


def canonical_key(g: PlumbingGraph) -> str:
    """Deterministic value key: vertices numbered in the order the name-ordered
    walk reaches them, then vertices and edges rendered in canonical order."""
    new_id = {n: i for i, n in enumerate(g._forest[1])}
    weights = dict(g.vertices)
    vparts = ",".join(f"v{i}:{weights[n]}" for n, i in new_id.items())
    eparts = ",".join(
        sorted(
            "v{}-v{}:{}".format(
                min(new_id[u], new_id[v]),
                max(new_id[u], new_id[v]),
                "+" if s > 0 else "-",
            )
            for u, v, s in g.edges
        )
    )
    return f"{vparts}|{eparts}" if eparts else vparts
