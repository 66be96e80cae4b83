import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbcalc.plumbing as plumbing
from plumbcalc.errors import DomainError
from plumbcalc.intmat import AbelianGroupDesc, IntMatrix, abelian_group_of, det
from plumbcalc.ledger import evaluate_graph
from plumbcalc.plumbing import (
    PlumbingGraph,
    boundary_homology,
    canonical_key,
    check_join_hypotheses,
    cycle_monodromy,
    cycle_plumbing_from_word,
    cycle_traversal,
    format_graph,
    intersection_form,
    join,
    parse_graph,
    self_join,
)
from plumbcalc.sl2 import MonodromyWord, SL2Element, word_to_matrix

from conftest import best_cpu_seconds, hyperbolic_strings, reference_join, reference_self_join


def path_graph(weights, names=None):
    names = names or [chr(ord("a") + i) for i in range(len(weights))]
    vertices = tuple(zip(names, weights))
    edges = tuple((names[i], names[i + 1], 1) for i in range(len(weights) - 1))
    return PlumbingGraph(vertices, edges)


SEED_PATH = path_graph([-1, -2, -2, -1])
SEED_PATH_TEXT = format_graph(SEED_PATH)

# a 3-cycle with trees on two of its vertices; its spanning tree is rooted
# at the leaf d, so the edge b-c left out of it does not touch the root
HANG_TEXT = (
    "vertex a -3\nvertex b -2\nvertex c -3\nvertex d -2\nvertex e -1\n"
    "edge a b +\nedge b c +\nedge c a +\nedge a d +\nedge b e +\n"
)


class TestParse:
    def test_two_vertex_path(self):
        g = parse_graph("vertex a -2\nvertex b -2\nedge a b +\n")
        assert g.vertices == (("a", -2), ("b", -2))
        assert g.edges == (("a", "b", 1),)
        assert g.cycle_count == 0

    def test_multi_edge_cycle(self):
        g = parse_graph("vertex a -2\nvertex b -3\nedge a b +\nedge a b +\n")
        assert g.cycle_count == 1

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\nvertex a -2  # weight\n")
        assert g.vertices == (("a", -2),)

    def test_two_cycles_rejected(self):
        text = (
            "vertex a 0\nvertex b 0\nvertex c 0\n"
            "edge a b +\nedge a b +\nedge b c +\nedge b c +\n"
        )
        with pytest.raises(DomainError) as err:
            parse_graph(text)
        assert err.value.code == "multi-cycle"

    def test_3000_vertex_path_and_cycle(self):
        n = 3000
        # 1000 negative edges on the path, 1001 on the cycle: an odd product
        path = "\n".join(
            [f"vertex p{i} -2" for i in range(n)]
            + [f"edge p{i} p{i + 1} {'-' if i % 3 == 0 else '+'}" for i in range(n - 1)]
        )
        cycle = path + f"\nedge p{n - 1} p0 -"
        g = parse_graph(path)
        assert sum(s < 0 for _, _, s in g.edges) == 1000
        g = parse_graph(cycle)
        assert [s for _, _, s in g.edges] == [-1] + [1] * (n - 1)
        assert best_cpu_seconds(lambda: parse_graph(path), 1) < 0.25
        assert best_cpu_seconds(lambda: parse_graph(cycle), 1) < 0.25

    def test_dangling_edge(self):
        with pytest.raises(DomainError) as err:
            parse_graph("vertex a -2\nedge a b +\n")
        assert err.value.code == "dangling-edge"

    def test_syntax_error(self):
        with pytest.raises(DomainError) as err:
            parse_graph("vertex a\n")
        assert err.value.code == "graph-syntax"

    def test_cycle_sign_normalization(self):
        # three negatives on the cycle: product is -, normal form keeps one -
        text = (
            "vertex a -2\nvertex b -2\nvertex c -2\n"
            "edge a b -\nedge b c -\nedge c a -\n"
        )
        g = parse_graph(text)
        signs = [s for _, _, s in g.edges]
        assert signs.count(-1) == 1

    def test_normalization_preserves_positive_product(self):
        text = (
            "vertex a -2\nvertex b -2\nvertex c -2\n"
            "edge a b -\nedge b c -\nedge c a +\n"
        )
        g = parse_graph(text)
        assert all(s == 1 for _, _, s in g.edges)

    def test_already_normal_untouched(self):
        text = (
            "vertex a -2\nvertex b -2\nvertex c -2\n"
            "edge a b +\nedge b c -\nedge c a +\n"
        )
        g = parse_graph(text)
        assert g.edges == (("a", "b", 1), ("b", "c", -1), ("c", "a", 1))

    def test_format_roundtrip(self):
        g = self_join(SEED_PATH, "a", "d", -1)
        assert parse_graph(format_graph(g)) == g


class TestIntersectionForm:
    def test_path_tridiagonal(self):
        q = intersection_form(SEED_PATH)
        assert q.to_rows() == [
            [-1, 1, 0, 0],
            [1, -2, 1, 0],
            [0, 1, -2, 1],
            [0, 0, 1, -1],
        ]

    def test_negative_three_cycle(self):
        g = PlumbingGraph(
            (("a", -2), ("b", -2), ("c", -2)),
            (("a", "b", 1), ("b", "c", 1), ("c", "a", -1)),
        )
        assert intersection_form(g).to_rows() == [
            [-2, 1, -1],
            [1, -2, 1],
            [-1, 1, -2],
        ]

    def test_self_loop_contributes_twice_its_sign(self):
        g = PlumbingGraph((("a", -3),), (("a", "a", 1),))
        assert intersection_form(g).to_rows() == [[-1]]

    def test_always_symmetric(self):
        g = self_join(SEED_PATH, "b", "d", -1)
        assert intersection_form(g).is_symmetric


class TestBoundaryHomology:
    def test_seed_path_is_s1xs2(self):
        assert boundary_homology(SEED_PATH) == AbelianGroupDesc(1, ())

    def test_two_cycle(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 3)))
        assert intersection_form(g).to_rows() == [[-2, 2], [2, -3]]
        assert boundary_homology(g) == AbelianGroupDesc(1, (2,))

    def test_negative_three_cycle(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 2), -1))
        assert boundary_homology(g) == AbelianGroupDesc(1, (4,))


def dense_homology(g):
    """Oracle: the cokernel of the dense n x n intersection form, plus one Z
    per cycle."""
    coker = abelian_group_of(intersection_form(g))
    return AbelianGroupDesc(coker.free_rank + g.cycle_count, coker.torsion_factors)


@st.composite
def plumbings(draw, min_extra=0, max_extra=1):
    """Forests of 1 to 3 components with weights in -6..6, plus extra edges
    inside components, each closing one cycle: a chord, a second copy of a
    tree edge, or a self-loop.  Declaration orders and edge directions are
    shuffled, since they decide where the spanning trees are rooted."""
    signs = st.sampled_from((1, -1))
    components, vertices, edges = [], [], []
    for c in range(draw(st.integers(1, 3))):
        names = [f"c{c}v{i}" for i in range(draw(st.integers(1, 8)))]
        components.append(names)
        vertices += [(name, draw(st.integers(-6, 6))) for name in names]
        edges += [(names[draw(st.integers(0, i - 1))], names[i], draw(signs))
                  for i in range(1, len(names))]
    for _ in range(draw(st.integers(min_extra, max_extra))):
        names = draw(st.sampled_from(components))
        kind = draw(st.sampled_from(("chord", "double", "loop")))
        tree_edges = [e for e in edges if e[0] in names and e[0] != e[1]]
        if kind == "double" and tree_edges:
            u, v, _ = draw(st.sampled_from(tree_edges))
        elif kind == "chord":
            u, v = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        else:
            u = v = draw(st.sampled_from(names))
        edges.append((u, v, draw(signs)))
    edges = [(v, u, s) if draw(st.booleans()) else (u, v, s) for u, v, s in edges]
    return PlumbingGraph(
        tuple(draw(st.permutations(vertices))), tuple(draw(st.permutations(edges)))
    )


class TestGraphNativeHomology:
    """boundary_homology eliminates along spanning trees; the dense
    intersection form is the oracle."""

    # the edge left out of the spanning tree, away from the root, with trees
    # hanging off its ends: two chords, a self-loop and a doubled edge
    @example(parse_graph(HANG_TEXT))
    @example(parse_graph(
        "vertex d -2\nvertex a -3\nvertex b -2\nvertex c -3\nvertex e -1\nvertex f -4\n"
        "edge a b +\nedge b c +\nedge c a +\nedge d a +\nedge e b +\nedge f c -\n"))
    @example(parse_graph(
        "vertex a -1\nvertex b -3\nvertex c -2\nvertex d 2\n"
        "edge a b +\nedge b b -\nedge b c +\nedge c d +\n"))
    @example(parse_graph(
        "vertex a -2\nvertex b -3\nvertex c -2\nvertex d -5\n"
        "edge a b +\nedge b a -\nedge b c +\nedge c d +\n"))
    @settings(max_examples=400, deadline=None)
    @given(plumbings())
    def test_matches_dense_form(self, g):
        assert boundary_homology(g) == dense_homology(g)

    def test_empty_complement_of_one_vertex_tree(self):
        empty = PlumbingGraph((), ())
        assert boundary_homology(empty) == dense_homology(empty) == AbelianGroupDesc(0, ())
        assert check_join_hypotheses(PlumbingGraph((("v", 3),), ()), "v").complement_is_qs3

    @settings(max_examples=100, deadline=None)
    @given(plumbings(min_extra=2, max_extra=3))
    def test_two_cycles_rejected(self, g):
        with pytest.raises(DomainError) as err:
            boundary_homology(g)
        assert err.value.code == "multi-cycle"

    def test_400_cycle_under_50ms(self):
        rng = random.Random(400)
        w = MonodromyWord(tuple(rng.choice((2, 3, 4)) for _ in range(400)))
        g = cycle_plumbing_from_word(w)
        # a torus bundle: H_1 = Z + coker(A - I), A the monodromy
        m = word_to_matrix(w)
        a_minus_i = IntMatrix.from_rows([[m.a - 1, m.b], [m.c, m.d - 1]])
        expected = abelian_group_of(a_minus_i)
        assert boundary_homology(g) == AbelianGroupDesc(1 + expected.free_rank, expected.torsion_factors)
        assert best_cpu_seconds(lambda: boundary_homology(g)) < 0.05


class TestOneWalkPerGraph:
    """The component count and the cycle come from one cached walk, so a
    graph descriptor walks its graph once (a cycle, also one whose edge signs
    were normalized) or twice (a tree, whose homology walks it again).  A
    path given by its weights is built directly, so no parse caches its
    walk: its homology alone walks it, unless that homology is Z and the
    tree test walks it once more (the S^1 x S^2 seed)."""

    @pytest.mark.parametrize("source, walks", [
        ("vertex a -3\nvertex b -3\nvertex c -3\nedge a b +\nedge b c +\nedge c a +\n", 1),
        (SEED_PATH_TEXT, 2),
        # two negative cycle edges: the sign-normalized graph keeps the walk
        ("vertex a -3\nvertex b -3\nvertex c -3\nedge a b -\nedge b c -\nedge c a +\n", 1),
        ((-2, -2, -2), 1),
        ((-1, -2, -2, -1), 2),
    ], ids=["3-cycle", "4-path", "3-cycle-normalized", "3-path-built", "4-path-seed-built"])
    def test_evaluate_graph(self, monkeypatch, source, walks):
        calls, forest = [], plumbing._spanning_forest

        def counted(g):
            calls.append(g)
            return forest(g)

        monkeypatch.setattr(plumbing, "_spanning_forest", counted)
        evaluate_graph(parse_graph(source) if isinstance(source, str) else path_graph(source))
        assert len(calls) == walks


class TestCycleFromWord:
    def test_hyperbolic_two_cycle(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 3)))
        assert [w for _, w in g.vertices] == [-2, -3]
        assert len(g.edges) == 2
        assert all(s == 1 for _, _, s in g.edges)

    def test_parabolic_negative(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 2), -1))
        assert [w for _, w in g.vertices] == [-2, -2, -2]
        assert sorted(s for _, _, s in g.edges) == [-1, 1, 1]

    def test_parabolic_mirror(self):
        g = cycle_plumbing_from_word(MonodromyWord((-2, -2), -1))
        assert [w for _, w in g.vertices] == [2, 2]
        assert sorted(s for _, _, s in g.edges) == [-1, 1]

    def test_not_hyperbolic_rejected(self):
        with pytest.raises(DomainError) as err:
            cycle_plumbing_from_word(MonodromyWord((2, 2)))
        assert err.value.code == "unsupported-word-class"

    def test_single_vertex_loop(self):
        g = cycle_plumbing_from_word(MonodromyWord((3,)))
        assert g.edges == (("v0", "v0", 1),)


class TestCycleMonodromy:
    def test_one_cycle(self):
        g = cycle_plumbing_from_word(MonodromyWord((3,)))
        m, sign = cycle_monodromy(g)
        assert (m, sign) == (SL2Element(3, 1, -1, 0), 1)

    def test_negative_parabolic_trace(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 2), -1))
        m, sign = cycle_monodromy(g)
        assert sign == -1
        assert (-m if sign < 0 else m).trace == -2

    def test_two_cycle_trace(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 3)))
        m, sign = cycle_monodromy(g)
        assert sign == 1 and m.trace == 4

    def test_roundtrip_through_graphs(self):
        for a in [(3,), (2, 3), (4, 2, 2), (3, 2, 2, 5)]:
            g = cycle_plumbing_from_word(MonodromyWord(a))
            m, sign = cycle_monodromy(g)
            assert sign == 1
            # some rotation of the word reproduces the matrix
            mats = [
                word_to_matrix(MonodromyWord(a[r:] + a[:r])) for r in range(len(a))
            ]
            assert m in mats

    def test_non_cycle_rejected(self):
        with pytest.raises(DomainError) as err:
            cycle_monodromy(SEED_PATH)
        assert err.value.code == "not-a-cycle"


class TestCycleTraversal:
    # the cycle a-c-e-b-d-a, two of its edges negative
    VERTICES = ["vertex a -2", "vertex b -3", "vertex c -4", "vertex d -5", "vertex e -6"]
    EDGES = [("a", "c", "-"), ("c", "e", "+"), ("e", "b", "+"), ("b", "d", "-"), ("d", "a", "+")]

    def test_least_name_toward_smaller_neighbor(self):
        text = "\n".join(self.VERTICES + [f"edge {u} {v} {s}" for u, v, s in self.EDGES])
        assert cycle_traversal(parse_graph(text)) == ((-2, -4, -6, -3, -5), 1)

    def test_edge_order_and_direction_do_not_matter(self):
        rng = random.Random(10)
        for _ in range(50):
            edges = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in self.EDGES]
            rng.shuffle(edges)
            text = "\n".join(self.VERTICES + [f"edge {u} {v} {s}" for u, v, s in edges])
            assert cycle_traversal(parse_graph(text)) == ((-2, -4, -6, -3, -5), 1), text

    def test_two_cycles_are_not_a_cycle(self):
        # as many edges as vertices, but two cycles through d and a, and c isolated
        edges = (("e", "b", 1), ("d", "e", 1), ("e", "a", 1), ("d", "a", 1), ("d", "a", 1))
        with pytest.raises(DomainError) as err:
            cycle_traversal(PlumbingGraph(tuple((x, -2) for x in "abcde"), edges))
        assert err.value.code == "not-a-cycle"


class TestJoin:
    def test_two_zero_vertices(self):
        a = PlumbingGraph((("v", 0),), ())
        b = PlumbingGraph((("w", 0),), ())
        out = join(a, "v", b, "w")
        assert out.vertices == (("v", 0),)
        assert out.edges == ()

    def test_path_end_join(self):
        a = path_graph([-2, -2], names=["p", "q"])
        b = PlumbingGraph((("r", -1),), ())
        out = join(a, "q", b, "r")
        assert out.vertices == (("p", -2), ("q", -3))

    def test_degree_preserved_and_extended(self):
        star = PlumbingGraph(
            (("c", -1), ("l1", -2), ("l2", -2), ("l3", -2)),
            (("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)),
        )
        other = path_graph([-5, -7], names=["x", "y"])
        out = join(star, "c", other, "x")
        degree = sum(1 for u, v, _ in out.edges if "c" in (u, v))
        assert degree == 4
        assert out.weight("c") == -6

    def test_name_collision_renamed(self):
        a = path_graph([-2, -3], names=["a", "b"])
        b = path_graph([-4, -5], names=["a", "b"])
        out = join(a, "a", b, "b")
        assert out.weight("a") == -2 - 5
        assert set(out.names) == {"a", "b", "a'"}

    def test_non_tree_rejected(self):
        cyc = self_join(SEED_PATH, "a", "d", 1)
        with pytest.raises(DomainError) as err:
            join(cyc, "b", SEED_PATH, "a")
        assert err.value.code == "non-tree"


class TestSelfJoin:
    def test_negative_parabolic_shape(self):
        g = self_join(SEED_PATH, "a", "d", -1)
        assert intersection_form(g).to_rows() == [
            [-2, 1, -1],
            [1, -2, 1],
            [-1, 1, -2],
        ]

    def test_positive_variant(self):
        g = self_join(SEED_PATH, "a", "d", 1)
        assert all(s == 1 for _, _, s in g.edges)
        assert g.cycle_count == 1

    def test_adjacent_vertices_become_loop(self):
        path2 = path_graph([-2, -3], names=["u", "v"])
        for sign in (1, -1):
            g = self_join(path2, "u", "v", sign)
            assert g.vertices == (("u", -5),)
            assert g.edges == (("u", "u", sign),)

    def test_same_vertex_rejected(self):
        with pytest.raises(DomainError) as err:
            self_join(SEED_PATH, "a", "a", 1)
        assert err.value.code == "same-vertex"

    def test_cycle_count_always_one(self):
        for v1, v2 in [("a", "d"), ("a", "c"), ("b", "d"), ("a", "b")]:
            for sign in (1, -1):
                assert self_join(SEED_PATH, v1, v2, sign).cycle_count == 1


# names that clash across two trees and collide with each other's primes
CLASH_NAMES = [base + "'" * k for base in "abc" for k in range(3)]


@st.composite
def clashing_trees(draw, min_size=1):
    """Trees of min_size to 7 vertices named from :data:`CLASH_NAMES` in a
    random declaration order, with weights in -6..6 and shuffled edges."""
    names = draw(st.lists(st.sampled_from(CLASH_NAMES), min_size=min_size, max_size=7, unique=True))
    weights = draw(st.lists(st.integers(-6, 6), min_size=len(names), max_size=len(names)))
    edges = [(names[draw(st.integers(0, i - 1))], names[i], draw(st.sampled_from((1, -1))))
             for i in range(1, len(names))]
    edges = [(v, u, s) if draw(st.booleans()) else (u, v, s) for u, v, s in edges]
    return PlumbingGraph(tuple(zip(names, weights)), tuple(draw(st.permutations(edges))))


POSITIONS = ("first", "middle", "last")


def at(names, where):
    return names[{"first": 0, "middle": len(names) // 2, "last": -1}[where]]


class TestMergeMatchesReference:
    """join and self-join end in one vertex identification; the parent's
    separate merges (conftest) are the oracle.  ``v2`` sits first, in the
    middle or last in its tree's declaration order."""

    @settings(max_examples=300, deadline=None)
    @given(clashing_trees(), clashing_trees(), st.sampled_from(POSITIONS), st.data())
    def test_join(self, g1, g2, where, data):
        v1 = data.draw(st.sampled_from(g1.names))
        v2 = at(g2.names, where)
        out = join(g1, v1, g2, v2)
        expected = reference_join(g1, v1, g2, v2)
        assert out == expected
        assert format_graph(out) == format_graph(expected)

    @settings(max_examples=300, deadline=None)
    @given(clashing_trees(min_size=2), st.sampled_from(POSITIONS),
           st.sampled_from((1, -1)), st.data())
    def test_self_join(self, g, where, sign, data):
        v2 = at(g.names, where)
        v1 = data.draw(st.sampled_from([n for n in g.names if n != v2]))
        out = self_join(g, v1, v2, sign)
        expected = reference_self_join(g, v1, v2, sign)
        assert out == expected
        assert format_graph(out) == format_graph(expected)


class TestJoinHypotheses:
    def test_single_zero_vertex(self):
        g = PlumbingGraph((("v", 0),), ())
        report = check_join_hypotheses(g, "v")
        assert report.boundary_is_s1xs2 and report.complement_is_qs3

    def test_single_one_vertex(self):
        g = PlumbingGraph((("v", 1),), ())
        report = check_join_hypotheses(g, "v")
        assert not report.boundary_is_s1xs2
        assert report.complement_is_qs3

    def test_seed_path_middle_vertex(self):
        report = check_join_hypotheses(SEED_PATH, "b")
        assert report.boundary_is_s1xs2 and report.complement_is_qs3
        # components (-1) and (-2,-1) both have nonsingular forms
        assert det(IntMatrix.from_rows([[-1]])) != 0
        assert det(IntMatrix.from_rows([[-2, 1], [1, -1]])) != 0


class TestTraceDeterminantIdentity:
    def test_small_corpus(self):
        # |det Q| of the cycle plumbing equals trace - 2, words up to length 4
        for a in hyperbolic_strings(4, 6):
            g = cycle_plumbing_from_word(MonodromyWord(a))
            t = word_to_matrix(MonodromyWord(a)).trace
            assert abs(det(intersection_form(g))) == t - 2


class TestGroupCrossCheck:
    def cross_check(self, graph):
        q_torsion = abelian_group_of(intersection_form(graph)).torsion_factors
        m, sign = cycle_monodromy(graph)
        m = -m if sign < 0 else m
        a_minus_i = IntMatrix.from_rows([[m.a - 1, m.b], [m.c, m.d - 1]])
        return q_torsion, abelian_group_of(a_minus_i).torsion_factors

    def test_spot_values(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 3)))
        assert self.cross_check(g) == ((2,), (2,))
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 2), -1))
        assert self.cross_check(g) == ((4,), (4,))
        g = cycle_plumbing_from_word(MonodromyWord((2, 2), -1))
        assert self.cross_check(g) == ((2, 2), (2, 2))


class TestCanonicalKey:
    def test_name_invariance(self):
        g1 = path_graph([-1, -2, -3], names=["a", "b", "c"])
        g2 = path_graph([-1, -2, -3], names=["x", "y", "z"])
        assert canonical_key(g1) == canonical_key(g2)

    def test_weight_sensitivity(self):
        g1 = path_graph([-1, -2, -3])
        g2 = path_graph([-1, -2, -4])
        assert canonical_key(g1) != canonical_key(g2)
