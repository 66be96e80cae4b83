"""Plumbing graphs: intersection forms, boundary homology, join and self-join.

A plumbing graph has weighted vertices and signed edges; multi-edges and
self-loops are allowed, and at most one independent cycle.  One breadth-first
walk per component gives a spanning forest; a graph's component count and its
cycle are read from that walk once and kept.  The boundary 3-manifold's first
homology is Z^{cycles} plus the cokernel of the intersection form.  It is
computed on the spanning tree, not on the n x n form: eliminating meridians
from the leaves inward leaves a G x G matrix for the Smith kernel, G = the
root, plus the childless vertices, plus the ends of the edge left out of the
tree (2 for a path, 3 for a pure cycle, k for a star with k leaves).  Cyclic
graphs are torus bundles: their monodromy is the product of T^{w_i} S over the
cycle, scaled by the product of edge signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import _SIGNS, DomainError, _ints, _keyword_lines
from .intmat import AbelianGroupDesc, IntMatrix, abelian_group_of
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


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted graph with signed edges; immutable after construction."""

    vertices: tuple[tuple[str, int], ...]        # (name, weight) in declaration order
    edges: tuple[tuple[str, str, int], ...]      # (u, v, sign) with sign in {+1, -1}

    def __post_init__(self) -> None:
        names = {n for n, _ in self.vertices}
        if len(names) != len(self.vertices):
            raise DomainError("duplicate-vertex", "vertex names must be unique")
        for u, v, s in self.edges:
            if u not in names or v not in names:
                raise DomainError("dangling-edge", f"edge ({u},{v}) references a missing vertex")
            if s not in (1, -1):
                raise DomainError("bad-edge-sign", "edge signs must be +1 or -1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vertices)

    def weight(self, name: str) -> int:
        for n, w in self.vertices:
            if n == name:
                return w
        raise DomainError("missing-vertex", f"no vertex named {name}")

    @cached_property
    def _walk(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        """The component count and the :func:`_cycle` steps, from one walk on
        first use (a frozen graph never changes).  Users need only a cyclic
        order of the steps, so a builder may hand over a cycle it knows."""
        _, parent, forest = _spanning_forest(self)
        return len(forest), _cycle(self, parent, forest)

    def component_count(self) -> int:
        return self._walk[0]

    @property
    def cycle_count(self) -> int:
        return len(self.edges) - len(self.vertices) + self.component_count()

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and self.component_count() == 1


def _adjacency(g: PlumbingGraph) -> dict[str, list[tuple[str, int]]]:
    """Vertex -> (neighbor, edge index) per incident edge; a self-loop once."""
    adj: dict[str, list[tuple[str, int]]] = {n: [] for n, _ in g.vertices}
    for i, (u, v, _) in enumerate(g.edges):
        adj[u].append((v, i))
        if u != v:
            adj[v].append((u, i))
    return adj


def _spanning_forest(g: PlumbingGraph):
    """One breadth-first spanning tree per component, each walked once.

    Returns the adjacency, the parent and tree edge of every non-root vertex,
    and per component ``(order, extra)``: its vertices in discovery order,
    root first, and the sorted indices of its edges left out of the tree.  A
    component is rooted at a leaf where it has one, else at its first vertex
    in declaration order; a left-out edge may lie anywhere in it.
    """
    adj = _adjacency(g)
    parent: dict[str, tuple[str, int]] = {}
    forest = []
    seen: set[str] = set()
    for root in sorted(adj, key=lambda n: len(adj[n]) > 1):
        if root in seen:
            continue
        order, extra = [root], set()
        seen.add(root)
        for x in order:
            up = parent[x][1] if x in parent else None
            for y, i in adj[x]:
                if i == up:
                    continue
                if y in seen:
                    extra.add(i)
                else:
                    seen.add(y)
                    parent[y] = (x, i)
                    order.append(y)
        forest.append((order, sorted(extra)))
    return adj, parent, forest


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
    cycle edge in declaration order, and the new graph keeps the cached walk.
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
    flipped.__dict__["_walk"] = g._walk  # every edge keeps its ends and index
    return flipped


def intersection_form(g: PlumbingGraph) -> IntMatrix:
    """Symmetric linking matrix: diagonal = weight plus 2*sign per self-loop,
    off-diagonal = sum of edge signs between the two vertices."""
    index = {n: i for i, n in enumerate(g.names)}
    n = len(g.vertices)
    q = [0] * (n * n)
    q[::n + 1] = [w for _, w in g.vertices]
    for u, v, s in g.edges:  # a self-loop adds its sign twice
        i, j = index[u], index[v]
        q[i * n + j] += s
        q[j * n + i] += s
    return IntMatrix(n, n, tuple(q))


def boundary_homology(g: PlumbingGraph) -> AbelianGroupDesc:
    """First homology of the boundary: coker(Q) plus one Z per cycle.

    Q is never built.  The roots of the spanning trees, the childless
    vertices and both ends of every edge left out of the trees are the
    generators.  Children first, every other vertex's meridian is eliminated
    with the relation of its first child, whose coefficient on it is the tree
    edge's sign, +1 or -1; the remaining relations form a square matrix over
    the generators.
    """
    adj, parent, forest = _spanning_forest(g)
    cycles = sum(len(extra) for _, extra in forest)
    if cycles > 1:
        raise DomainError("multi-cycle", "boundary homology needs at most one cycle")
    order = [v for component, _ in forest for v in component]
    ends = {x for _, extra in forest for i in extra for x in g.edges[i][:2]}
    pivot: dict[str, str] = {}  # eliminated vertex -> its first child, in walk order
    for v in order:
        if v in parent and parent[v][0] in parent and parent[v][0] not in ends:
            pivot.setdefault(parent[v][0], v)
    gens = [v for v in order if v not in pivot]
    expr = {v: [int(v == x) for x in gens] for v in gens}
    weight = dict(g.vertices)

    def relation(x: str) -> list[int]:
        # Q's row of x in the generators; while x's parent is being
        # eliminated it is the one neighbor with no expression yet
        row = [weight[x] * a for a in expr[x]]
        for y, i in adj[x]:
            if y in expr:
                s = g.edges[i][2] * (2 if y == x else 1)
                row = [a + s * b for a, b in zip(row, expr[y])]
        return row

    for v, c in reversed(pivot.items()):
        expr[v] = [-g.edges[parent[c][1]][2] * a for a in relation(c)]
    used = set(pivot.values())
    rows = [relation(x) for x in order if x not in used]
    k = len(gens)
    coker = abelian_group_of(IntMatrix(k, k, tuple(a for row in rows for a in row)))
    return AbelianGroupDesc(coker.free_rank + cycles, coker.torsion_factors)


def _cycle(g: PlumbingGraph, parent, forest) -> tuple[tuple[str, int], ...]:
    """The unique cycle as (vertex, edge index) steps, each edge leading to
    the next step's vertex: across the leftover edge of
    :func:`_spanning_forest` from its first end, then along the tree path
    back to that end.  Empty unless the graph has exactly one cycle."""
    extra = [i for _, leftover in forest for i in leftover]
    if len(extra) != 1:
        return ()
    u, x, _ = g.edges[extra[0]]
    return ((u, extra[0]), *_tree_path(parent, x, u))


def is_pure_cycle(g: PlumbingGraph) -> bool:
    """True iff the graph is a single cycle with every vertex on it."""
    return 0 < len(g.vertices) == len(g.edges) == len(g._walk[1])


def _cycle_vertex_names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"v{str(i).zfill(width)}" for i in range(n)]


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
    names = _cycle_vertex_names(n)
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
    odd = sum(s < 0 for _, _, s in g.edges) % 2  # as in _normalize_cycle_signs
    return tuple(weights[name] for name in order), -1 if odd else 1


def cycle_monodromy(g: PlumbingGraph) -> tuple[SL2Element, int]:
    """Monodromy of a pure cycle graph: the product of T^{w_i} S over the
    cycle traversal, with the product of edge signs reported separately."""
    weights, sign = cycle_traversal(g)
    return word_to_matrix(_framed_word(weights)), sign


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _identify(vertices, edges, v1: str, v2: str, walk) -> PlumbingGraph:
    """Merge vertex ``v2`` into ``v1``, summing their weights, and move its
    edge ends to ``v1`` (a sign is never a name); other edges keep their tuples."""
    w2 = dict(vertices)[v2]
    merged = tuple((n, w + w2) if n == v1 else (n, w) for n, w in vertices if n != v2)
    moved = tuple(tuple(v1 if x == v2 else x for x in e) if v2 in e else e for e in edges)
    identified = PlumbingGraph(merged, moved)
    identified.__dict__["_walk"] = walk
    return identified


def join(g1: PlumbingGraph, v1: str, g2: PlumbingGraph, v2: str) -> PlumbingGraph:
    """Join two plumbing trees by identifying ``v1`` and ``v2``; the merged
    vertex takes the sum of the two weights.  Vertices of ``g2`` that clash
    with names in ``g1`` are renamed by appending primes."""
    if not g1.is_tree() or not g2.is_tree():
        raise DomainError("non-tree", "join needs two plumbing trees")
    g1.weight(v1)
    g2.weight(v2)

    taken = set(g1.names)
    rename: dict[str, str] = {}
    for name, _ in g2.vertices:
        if name != v2:
            rename[name] = _fresh_name(name, taken)
            taken.add(rename[name])
    rename[v2] = _fresh_name(v2, taken)  # a placeholder, merged into v1

    vertices = g1.vertices + tuple((rename[n], w) for n, w in g2.vertices)
    edges = g1.edges + tuple((rename[u], rename[v], s) for u, v, s in g2.edges)
    return _identify(vertices, edges, v1, rename[v2], (1, ()))  # one component, no cycle


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
    g.weight(v2)

    path = _tree_path(_spanning_forest(g)[1], v2, v1)
    edges = list(g.edges)
    for rank, (_, idx) in enumerate(path):
        u, v, _ = edges[idx]
        edges[idx] = (u, v, sign if rank == 0 else 1)
    return _identify(g.vertices, edges, v1, v2, (1, ((v1, path[0][1]), *path[1:])))


@dataclass(frozen=True)
class JoinHypotheses:
    """Homology-level hypotheses for transferring a bounding certificate
    through a join: the boundary must look like S^1 x S^2 integrally, and the
    complement of the distinguished vertex must have rational-sphere
    boundary on every component."""

    boundary_is_s1xs2: bool
    complement_is_qs3: bool

    @property
    def all_pass(self) -> bool:
        return self.boundary_is_s1xs2 and self.complement_is_qs3


def check_join_hypotheses(g: PlumbingGraph, v: str) -> JoinHypotheses:
    if not g.is_tree():
        raise DomainError("non-tree", "hypothesis check needs a plumbing tree")
    g.weight(v)
    whole = boundary_homology(g)
    boundary_ok = whole == AbelianGroupDesc(1, ())

    rest_vertices = tuple((n, w) for n, w in g.vertices if n != v)
    rest_edges = tuple((u, vv, s) for u, vv, s in g.edges if u != v and vv != v)
    rest = PlumbingGraph(rest_vertices, rest_edges)
    complement_ok = boundary_homology(rest).free_rank == 0
    return JoinHypotheses(boundary_ok, complement_ok)


def canonical_key(g: PlumbingGraph) -> str:
    """Deterministic value key: vertices renamed by a sorted breadth-first
    traversal, then vertices and edges rendered in canonical order."""
    adj = _adjacency(g)
    new_id: dict[str, int] = {}
    for start in sorted(g.names):
        if start in new_id:
            continue
        new_id[start] = len(new_id)
        order = [start]
        for cur in order:
            for nb in sorted(y for y, _ in adj[cur]):
                if nb not in new_id:
                    new_id[nb] = len(new_id)
                    order.append(nb)
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
