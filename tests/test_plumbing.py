import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbcalc.intmat as intmat
import plumbcalc.plumbing as plumbing
from plumbcalc.errors import DomainError
from plumbcalc.intmat import AbelianGroupDesc, IntMatrix, _bareiss, abelian_group_of, det
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

from conftest import (
    CLASH_NAMES,
    best_cpu_seconds,
    clashing_trees,
    hyperbolic_strings,
    median_cpu_ratio,
    reference_boundary_homology,
    reference_canonical_key,
    reference_graph_verdict,
    reference_join,
    reference_join_hypotheses,
    reference_self_join,
)


def path_graph(weights, names=None):
    names = names or [chr(ord("a") + i) for i in range(len(weights))]
    vertices = tuple(zip(names, weights))
    edges = tuple((names[i], names[i + 1], 1) for i in range(len(weights) - 1))
    return PlumbingGraph(vertices, edges)


def minus_two_path(n):
    """The -2 path v0, ..., v(n-1): Z/(n + 1)."""
    return path_graph([-2] * n, [f"v{i}" for i in range(n)])


def star_graph(arms):
    """A -2 hub with ``arms`` two-vertex arms (middle -2, leaf -1): Z/(arms - 2)."""
    vertices, edges = [("h", -2)], []
    for a in range(arms):
        vertices += [(f"m{a}", -2), (f"l{a}", -1)]
        edges += [("h", f"m{a}", 1), (f"m{a}", f"l{a}", 1)]
    return PlumbingGraph(tuple(vertices), tuple(edges))


def caterpillar_graph(n):
    """A -3 spine of n/2 vertices with one -1 leaf on each: Z/101 at n = 200."""
    spine = [f"s{i}" for i in range(n // 2)]
    vertices = [(s, -3) for s in spine] + [(f"l{s}", -1) for s in spine]
    edges = [(a, b, 1) for a, b in zip(spine, spine[1:])] + [(s, f"l{s}", 1) for s in spine]
    return PlumbingGraph(tuple(vertices), tuple(edges))


SEED_PATH = path_graph([-1, -2, -2, -1])
SEED_PATH_TEXT = format_graph(SEED_PATH)

# a 3-cycle with trees on two of its vertices; its spanning tree is rooted
# at a, so the edge b-c left out of it does not touch the root
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

    def test_matches_the_form_rows(self):
        # multi-edges, chords and self-loops: the direct fill against the
        # nonzeros that the det pass reads
        rng = random.Random(56)
        for n in range(1, 30):
            g = seeded_graph(rng, n)
            rows = plumbing._form_rows(g.vertices, g.edges)
            assert intersection_form(g).to_rows() == [[r.get(j, 0) for j in range(n)] for r in rows]

    def test_always_symmetric(self):
        g = self_join(SEED_PATH, "b", "d", -1)
        assert intersection_form(g).is_symmetric

    def test_past_the_entry_cap_is_refused_before_building(self, monkeypatch):
        # 3163^2 > 10^7 entries: the n x n tuple alone would be 80 MB of pointers
        g = minus_two_path(3163)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                intersection_form(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == "too-large"
        assert str(err.value) == f"a 3163-vertex form exceeds {10**7} entries"
        assert peak < 2**24
        # the cap is read at call time: 16 entries hold the 4-vertex form, 15 do not
        monkeypatch.setattr(intmat, "_MAX_CERTIFICATE", 16)
        assert intersection_form(SEED_PATH).rows == 4
        monkeypatch.setattr(intmat, "_MAX_CERTIFICATE", 15)
        with pytest.raises(DomainError) as err:
            intersection_form(SEED_PATH)
        assert err.value.code == "too-large"


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
    tree edge, or a self-loop.  Names are laid along each tree in a random
    order, since they decide where the spanning trees are rooted, and
    declaration orders and edge directions are shuffled, since they decide
    which unit pivots the elimination takes."""
    signs = st.sampled_from((1, -1))
    components, vertices, edges = [], [], []
    for c in range(draw(st.integers(1, 3))):
        names = draw(st.permutations([f"c{c}v{i}" for i in range(draw(st.integers(1, 8)))]))
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
    """boundary_homology eliminates Q's unit entries sparsely and reduces
    the core they leave; the dense intersection form is the oracle."""

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
    # kernel corners: a doubled edge whose signs cancel to a 0 entry, an
    # isolated weight-0 vertex (a free Z), a unit weight, a self-loop, a star
    @example(parse_graph("vertex a -2\nvertex b -3\nedge a b +\nedge b a -\n"))
    @example(parse_graph("vertex a 0\nvertex b -2\nvertex c -3\nedge b c +\n"))
    @example(parse_graph("vertex a 1\nvertex b -3\nvertex c -4\nedge a b -\nedge b c +\n"))
    @example(parse_graph(
        "vertex a -2\nvertex b -3\nvertex c 2\nedge a a +\nedge a b +\nedge b c -\n"))
    @example(star_graph(30))
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

    # every input has a small determinant, so the ratios leave out the
    # growth of the arithmetic and show the elimination alone
    @pytest.mark.parametrize("build, n", [
        (minus_two_path, 800),
        (star_graph, 800),
        (caterpillar_graph, 400),
        (lambda n: cycle_plumbing_from_word(MonodromyWord((2,) * n, -1)), 800),
    ], ids=["path", "star", "caterpillar", "parabolic-cycle"])
    def test_doubling_ratio_under_2_5(self, build, n):
        small, large = build(n), build(2 * n)
        assert median_cpu_ratio(lambda: boundary_homology(large),
                                lambda: boundary_homology(small)) < 2.5

    def test_1600_arm_star_under_100ms(self):
        g = star_graph(1600)
        assert boundary_homology(g) == AbelianGroupDesc(0, (1598,))
        assert best_cpu_seconds(lambda: boundary_homology(g)) < 0.1


class TestOneWalkPerGraph:
    """The component count and the cycle come from one cached walk, and
    boundary homology reads the cycle count from it, so a graph descriptor
    walks its graph once: a cycle, also one whose edge signs were
    normalized, a parsed tree, and a path built from its weights, whose
    homology and tree test share the walk (the S^1 x S^2 seed)."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The graphs that ``_spanning_forest`` is called on, in order."""
        calls, forest = [], plumbing._spanning_forest

        def counted(g):
            calls.append(g)
            return forest(g)

        monkeypatch.setattr(plumbing, "_spanning_forest", counted)
        return calls

    @pytest.mark.parametrize("source, count", [
        ("vertex a -3\nvertex b -3\nvertex c -3\nedge a b +\nedge b c +\nedge c a +\n", 1),
        (SEED_PATH_TEXT, 1),
        # two negative cycle edges: the sign-normalized graph keeps the walk
        ("vertex a -3\nvertex b -3\nvertex c -3\nedge a b -\nedge b c -\nedge c a +\n", 1),
        ((-2, -2, -2), 1),
        ((-1, -2, -2, -1), 1),
    ], ids=["3-cycle", "4-path", "3-cycle-normalized", "3-path-built", "4-path-seed-built"])
    def test_evaluate_graph(self, walks, source, count):
        evaluate_graph(parse_graph(source) if isinstance(source, str) else path_graph(source))
        assert len(walks) == count

    def test_join_chain_walks_each_tree_once(self, walks):
        # 50 joins of a fresh (-1, -2, -2) path, at its -2 end, onto one hub:
        # the seed and each path are walked once, and no join result again
        g = path_graph([-1, -2, -2, -1])
        for _ in range(50):
            g = join(g, "a", path_graph([-1, -2, -2], ["x", "y", "z"]), "z")
        assert len(walks) == 51
        assert g.is_tree() and len(g.vertices) == 4 + 2 * 50
        assert len(walks) == 51

    def test_self_join_reads_the_cached_tree_path(self, walks):
        # the tree path comes from the parse's forest, and the operand's
        # descriptor numbers its vertices from the same walk
        g = parse_graph(SEED_PATH_TEXT)
        self_join(g, "a", "d", -1)
        evaluate_graph(g)
        assert walks == [g] and walks[0] is g

    def test_join_hypotheses_walk_no_complement(self, walks):
        # the complement of a vertex is read from the two lists without it,
        # so the parse's walk is the only one, at an end and in the middle
        g = parse_graph(SEED_PATH_TEXT)
        for v in ("a", "b"):
            check_join_hypotheses(g, v)
        assert len(walks) == 1 and walks[0] is g


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


POSITIONS = ("first", "middle", "last")


def at(names, where):
    return names[{"first": 0, "middle": len(names) // 2, "last": -1}[where]]


class TestMergeMatchesReference:
    """join slices its left operand and renames only its right one, and
    self-join ends in one vertex identification; the references in conftest,
    which walk every operand, are the oracle.  ``v2`` sits first, in the
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
    @given(clashing_trees(), clashing_trees(), st.sampled_from(POSITIONS), st.data())
    def test_join_keeps_its_walk(self, g1, g2, where, data):
        v1 = data.draw(st.sampled_from(g1.names))
        out = join(g1, v1, g2, at(g2.names, where))
        assert "_walk" in out.__dict__  # handed over, not walked
        fresh = PlumbingGraph(out.vertices, out.edges)._walk
        assert out._walk == fresh == reference_join(g1, v1, g2, at(g2.names, where))._walk

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

    @settings(max_examples=300, deadline=None)
    @given(clashing_trees(min_size=2), st.sampled_from(POSITIONS),
           st.sampled_from((1, -1)), st.data())
    def test_self_join_keeps_its_walk(self, g, where, sign, data):
        # the handed cycle is the tree path closed at v1: a cyclic order of
        # the steps, which may differ from a fresh walk's start and direction
        v2 = at(g.names, where)
        v1 = data.draw(st.sampled_from([n for n in g.names if n != v2]))
        out = self_join(g, v1, v2, sign)
        assert "_walk" in out.__dict__  # handed over, not walked
        fresh = PlumbingGraph(out.vertices, out.edges)
        (count, steps), (fresh_count, fresh_steps) = out._walk, fresh._walk
        assert count == fresh_count == 1
        assert {x for x, _ in steps} == {x for x, _ in fresh_steps}
        assert sorted(i for _, i in steps) == sorted(i for _, i in fresh_steps)
        for (x, i), (y, _) in zip(steps, steps[1:] + steps[:1]):
            assert {x, y} == set(out.edges[i][:2])
        assert plumbing.is_pure_cycle(out) == plumbing.is_pure_cycle(fresh)
        if plumbing.is_pure_cycle(fresh):
            assert cycle_traversal(out) == cycle_traversal(fresh)
        assert evaluate_graph(out) == evaluate_graph(fresh)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("deep", ["left", "right", "mixed"])
    def test_deep_chain(self, deep, seed):
        # 120 joins of a chain and one of three reused trees named from
        # CLASH_NAMES: as the left operand the chain keeps its names and each
        # reused tree's names gather primes; as the right one its own do.
        # v1 and v2 sit first, in the middle or last, and every level is
        # checked against the reference on the same operands
        rng = random.Random(seed)
        pool = []
        for _ in range(3):
            names = rng.sample(CLASH_NAMES, rng.randint(2, 5))
            edges = tuple((names[rng.randrange(i)], n, rng.choice((1, -1)))
                          for i, n in enumerate(names) if i)
            pool.append(PlumbingGraph(tuple((n, rng.randint(-6, 6)) for n in names), edges))
        chain = pool[0]
        for level in range(120):
            small = rng.choice(pool)
            left = deep == "left" or deep == "mixed" and rng.random() < 0.5
            g1, g2 = (chain, small) if left else (small, chain)
            v1, v2 = at(g1.names, rng.choice(POSITIONS)), at(g2.names, rng.choice(POSITIONS))
            chain = join(g1, v1, g2, v2)
            expected = reference_join(g1, v1, g2, v2)
            assert format_graph(chain) == format_graph(expected), level
            assert chain._walk == PlumbingGraph(chain.vertices, chain.edges)._walk
        assert max(map(len, chain.names)) > 80  # the primes did pile up


class TestHandedOverGraphs:
    """join, self-join and the sign normalization hand their results over
    past the checking constructor: each result equals its own lists rebuilt
    through ``PlumbingGraph``, and the walk and name index it was handed
    equal those of that fresh graph.  A join takes its left operand's index
    along, and a left operand joined again builds one anew."""

    @settings(max_examples=300, deadline=None)
    @given(clashing_trees(), clashing_trees(), st.sampled_from(POSITIONS),
           st.sampled_from(POSITIONS), st.booleans())
    def test_join(self, g1, g2, where1, where2, same):
        g2 = g1 if same else g2
        v1, v2 = at(g1.names, where1), at(g2.names, where2)
        expected = format_graph(reference_join(g1, v1, g2, v2))
        g1._index  # built, so that the join hands it on
        out = join(g1, v1, g2, v2)
        fresh = PlumbingGraph(out.vertices, out.edges)
        assert out == fresh and format_graph(out) == expected
        assert {"_walk", "_index"} <= out.__dict__.keys()  # handed over, not walked
        assert out._walk == fresh._walk and out._index == fresh._index
        assert "_index" not in g1.__dict__
        again = join(g1, v1, g2, v2)  # g1's index was handed on
        assert format_graph(again) == expected and again._index == fresh._index
        # the result's own index passes on in turn, and it builds one anew
        top = format_graph(reference_join(out, v1, g2, v2))
        assert format_graph(join(out, v1, g2, v2)) == top == format_graph(join(out, v1, g2, v2))

    @settings(max_examples=300, deadline=None)
    @given(clashing_trees(min_size=2), st.sampled_from(POSITIONS),
           st.sampled_from(POSITIONS), st.sampled_from((1, -1)))
    def test_self_join(self, g, where1, where2, sign):
        v1, v2 = at(g.names, where1), at(g.names[::-1], where2)
        if v1 == v2:
            v2 = next(n for n in g.names if n != v1)
        out = self_join(g, v1, v2, sign)
        fresh = PlumbingGraph(out.vertices, out.edges)
        assert out == fresh and out._index == fresh._index
        assert out._walk[0] == fresh._walk[0] == 1

    def test_normalized_cycle(self):
        g = parse_graph("vertex a -3\nvertex b -3\nvertex c -3\nedge a b -\nedge b c -\nedge c a -\n")
        fresh = PlumbingGraph(g.vertices, g.edges)
        assert g == fresh and g._walk == fresh._walk and g._index == fresh._index
        assert [s for _, _, s in g.edges] == [-1, 1, 1]


class TestJoinErrorOrder:
    """The codes and messages of join and self-join, checked in this order:
    self-join's sign, then its two vertices' distinctness, then the tree
    test, then the vertices, ``v1`` first."""

    CYCLE = self_join(SEED_PATH, "a", "d", 1)

    @pytest.mark.parametrize("call, code, message", [
        (lambda g: join(g.CYCLE, "x", SEED_PATH, "y"), "non-tree", "join needs two plumbing trees"),
        (lambda g: join(SEED_PATH, "x", g.CYCLE, "y"), "non-tree", "join needs two plumbing trees"),
        (lambda g: join(SEED_PATH, "x", SEED_PATH, "y"), "missing-vertex", "no vertex named x"),
        (lambda g: join(SEED_PATH, "x", SEED_PATH, "a"), "missing-vertex", "no vertex named x"),
        (lambda g: join(SEED_PATH, "a", SEED_PATH, "y"), "missing-vertex", "no vertex named y"),
        (lambda g: self_join(g.CYCLE, "x", "x", 2), "bad-sign", "self-join sign must be +1 or -1"),
        (lambda g: self_join(g.CYCLE, "x", "x", -1), "same-vertex",
         "self-join needs two distinct vertices"),
        (lambda g: self_join(g.CYCLE, "x", "y", -1), "non-tree", "self-join needs a plumbing tree"),
        (lambda g: self_join(SEED_PATH, "x", "y", 1), "missing-vertex", "no vertex named x"),
        (lambda g: self_join(SEED_PATH, "a", "y", 1), "missing-vertex", "no vertex named y"),
    ])
    def test_first_failed_check_names_the_error(self, call, code, message):
        with pytest.raises(DomainError) as err:
            call(self)
        assert (err.value.code, str(err.value)) == (code, message)


def seeded_graph(rng, n):
    """n vertices, weights -3..2 with zeros drawn a third of the time, in a
    random forest (a vertex starts a new component one time in ten), plus at
    most one more edge, so at most one cycle: a chord, a doubled tree edge
    or a self-loop.  Edge signs are random."""
    names, signs = [f"v{i}" for i in range(n)], (1, -1)
    weights = [0 if rng.random() < 1 / 3 else rng.randint(-3, 2) for _ in names]
    edges = [(names[rng.randrange(i)], names[i], rng.choice(signs))
             for i in range(1, n) if rng.random() >= 0.1]
    kind = rng.choice(("none", "chord", "double", "loop"))
    if kind == "double" and edges:
        edges.append(rng.choice(edges)[:2] + (rng.choice(signs),))
    elif kind == "chord":
        edges.append((rng.choice(names), rng.choice(names), rng.choice(signs)))
    elif kind == "loop":
        v = rng.choice(names)
        edges.append((v, v, rng.choice(signs)))
    rng.shuffle(edges)
    return PlumbingGraph(tuple(zip(names, weights)), tuple(edges))


class TestFormDet:
    """``plumbing._form_det`` reads det Q from Q's nonzeros by one pass of
    ``_form_minors``: the value and sign of ``det`` on the dense form,
    whichever kernel ``det`` picks for its size."""

    def test_matches_det_of_the_dense_form(self):
        rng, dets = random.Random(2028), set()
        for _ in range(300):
            g = seeded_graph(rng, rng.randint(1, 120))
            assert g.cycle_count <= 1
            d = plumbing._form_det(g)
            assert d == det(intersection_form(g)), format_graph(g)
            dets.add((d > 0) - (d < 0))
        assert dets == {-1, 0, 1}

    def test_empty_and_zero_forms(self):
        assert plumbing._form_det(PlumbingGraph((), ())) == 1
        assert plumbing._form_det(PlumbingGraph((("v", 0),), ())) == 0
        assert plumbing._form_det(PlumbingGraph((("v", 0),), (("v", "v", -1),))) == -2

    def test_star_doubling_ratio_under_2_5(self):
        # each leaf folds into the hub in O(1), so stars are linear: 800 to 1600 arms
        small, large = star_graph(800), star_graph(1600)
        assert plumbing._form_det(large) == 1598
        assert median_cpu_ratio(lambda: plumbing._form_det(large),
                                lambda: plumbing._form_det(small)) < 2.5


def dense_minors(g, root):
    """Oracle: det Q and det(Q - root) by ``intmat._bareiss`` on the dense
    form and on the form without the root's row and column."""
    def dense_det(rows):
        minors, sign = _bareiss(rows)
        return sign * minors[-1] if len(minors) > len(rows) else 0

    q, k = intersection_form(g).to_rows(), g.names.index(root)
    rest = [r[:k] + r[k + 1:] for i, r in enumerate(q) if i != k]
    return dense_det(q), dense_det(rest)  # _bareiss works in place


class TestFormMinors:
    """``plumbing._form_minors`` against ``_bareiss`` on the dense form: det Q
    and the principal minor at a drawn root, and det Q alone with the root
    the pass picks itself.  Forests with at most one cycle, self-loops,
    doubled edges (their signs may cancel to a 0 entry), zero weights and
    isolated vertices, and rings closed by a chord."""

    @example(parse_graph("vertex a -2\nvertex b -3\nedge a b +\nedge b a -\n"), 0)
    @example(parse_graph("vertex a 0\nvertex b 0\nvertex c 0\nedge a b +\nedge b c +\n"
                         "edge c a +\n"), 1)
    @example(parse_graph(HANG_TEXT), 3)
    @example(parse_graph("vertex a 0\nvertex b -2\nvertex c -3\nedge b c +\nedge c c -\n"), 0)
    @example(star_graph(3), 2)
    @settings(max_examples=500, deadline=None)
    @given(plumbings(), st.integers(0, 10**6))
    def test_matches_bareiss(self, g, pick):
        root = g.names[pick % len(g.names)]
        expected = dense_minors(g, root)
        assert plumbing._form_minors(g.vertices, g.edges, root) == expected
        assert plumbing._form_minors(g.vertices, g.edges, None)[0] == expected[0]

    def test_empty_graph(self):
        assert plumbing._form_minors((), (), None) == (1, 0)
        # the one-vertex complement is empty: det(Q - v) = 1
        assert plumbing._form_minors((("v", 5),), (), "v") == (5, 1)

    def test_two_rings_in_two_components(self):
        # parse_graph refuses two cycles; the pass takes each ring on its own
        names = [x + y for x in "pq" for y in "abc"]
        g = PlumbingGraph(tuple(zip(names, (-3, -2, -4, -1, 0, 2))), tuple(
            (names[i], names[i + 1 if i % 3 < 2 else i - 2], 1 if i % 3 else -1) for i in range(6)))
        assert plumbing._form_minors(g.vertices, g.edges, "qb") == dense_minors(g, "qb")

    def test_theta_is_multi_cycle(self):
        g = PlumbingGraph((("a", -3), ("b", -3), ("c", -3), ("d", -3)),
                          (("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1), ("a", "c", 1)))
        with pytest.raises(DomainError) as err:
            plumbing._form_minors(g.vertices, g.edges, None)
        assert err.value.code == "multi-cycle"


def seeded_tree(rng, n):
    """A random tree on n vertices with the weights of :func:`seeded_graph`."""
    names = [f"v{i}" for i in range(n)]
    weights = [0 if rng.random() < 1 / 3 else rng.randint(-3, 2) for _ in names]
    edges = [(names[rng.randrange(i)], names[i], rng.choice((1, -1))) for i in range(1, n)]
    return PlumbingGraph(tuple(zip(names, weights)), tuple(edges))


def shaped_graphs(rng):
    """Seeded graphs of 1 to 800 vertices: random forests with at most one
    cycle and random trees, then -2 paths, stars, caterpillars, negative
    definite random trees, pure cycles and a ring with trees on it."""
    graphs = [seeded_graph(rng, rng.randint(1, 60)) for _ in range(150)]
    graphs += [seeded_tree(rng, rng.randint(1, 60)) for _ in range(150)]
    graphs += [seeded_graph(rng, n) for n in (200, 400, 800)]
    graphs += [seeded_tree(rng, n) for n in (200, 400, 800)]
    graphs += [minus_two_path(800), star_graph(400), caterpillar_graph(800)]
    for n in (10, 40, 100):
        names = [f"t{i}" for i in range(n)]
        graphs.append(PlumbingGraph(
            tuple((x, rng.randint(-5, -2)) for x in names),
            tuple((names[rng.randrange(i)], names[i], rng.choice((1, -1))) for i in range(1, n))))
    for n in (1, 2, 3, 50, 400):
        names = [f"c{i}" for i in range(n)]
        graphs.append(PlumbingGraph(
            tuple((x, rng.randint(-4, 2)) for x in names),
            tuple((names[i], names[(i + 1) % n], rng.choice((1, -1))) for i in range(n))))
    graphs.append(parse_graph(HANG_TEXT))
    return graphs


class TestAgainstTheGeneralRoute:
    """Seeded differential against the route every form took before the
    det pass (conftest): the unit-pivot core and its Smith form for
    boundary homology, homology first in the ledger, and the complement's
    core rank in the join check."""

    def test_boundary_homology(self):
        for g in shaped_graphs(random.Random(3101)):
            assert boundary_homology(g) == reference_boundary_homology(g), format_graph(g)

    def test_evaluate_graph(self):
        for g in shaped_graphs(random.Random(3102)):
            entry = evaluate_graph(g)
            assert (entry.status, entry.reason) == reference_graph_verdict(g), format_graph(g)

    def test_pure_cycles(self):
        # the pure-cycle branch reads the group off the 2x2 monodromy, not Q: cycles of
        # 1-8 vertices in random name order with random edge signs, so self-loops of both
        # signs, and 2-cycles whose two edges cancel, leaving Q's off-diagonal entry 0
        rng, ranks, statuses, kinds = random.Random(3104), set(), set(), set()
        for k in range(4000):
            n = k % 8 + 1
            names = rng.sample([f"c{i}" for i in range(n)], n)
            signs = [rng.choice((1, -1)) for _ in names]
            if n == 2 and rng.random() < 0.5:
                signs = rng.sample((1, -1), 2)
            edges = tuple((names[i], names[(i + 1) % n], s) for i, s in enumerate(signs))
            g = PlumbingGraph(tuple((x, rng.randint(-4, 4)) for x in names), edges)
            assert plumbing.is_pure_cycle(g)
            homology = boundary_homology(g)
            assert homology == reference_boundary_homology(g), format_graph(g)
            entry = evaluate_graph(g)
            assert (entry.status, entry.reason) == reference_graph_verdict(g), format_graph(g)
            ranks.add(homology.free_rank)
            statuses.add(entry.status)
            kinds.add(n if n > 2 else (n, sum(signs)))
        assert ranks == {1, 2, 3}
        assert statuses == {"bounds-QSB", "obstructed", "unknown"}
        assert {(1, 1), (1, -1), (2, 0)} <= kinds

    def test_join_hypotheses(self):
        rng, seen = random.Random(3103), set()
        trees = [seeded_tree(rng, rng.randint(1, 40)) for _ in range(300)]
        trees += [seeded_tree(rng, n) for n in (200, 400, 800)]
        trees += [minus_two_path(800), star_graph(400), SEED_PATH]
        for g in trees:
            for v in {g.names[0], g.names[-1], rng.choice(g.names)}:
                report = check_join_hypotheses(g, v)
                assert report == reference_join_hypotheses(g, v), (format_graph(g), v)
                seen.add((report.boundary_is_s1xs2, report.complement_is_qs3))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestFallbacks:
    """Forms whose det pass certifies nothing take the general route; a
    pure cycle's 2x2 matrix eps M - I may be singular."""

    @pytest.fixture
    def general(self, monkeypatch):
        """The forms handed to ``_unit_core``, in order."""
        calls, unit_core = [], plumbing._unit_core

        def counted(rows):
            calls.append(rows)
            return unit_core(rows)

        monkeypatch.setattr(plumbing, "_unit_core", counted)
        return calls

    def test_d4_star(self, general):
        # det 4, and every (n-1)-minor is even: Z/2 + Z/2, not cyclic
        g = parse_graph("vertex h -2\nvertex a -2\nvertex b -2\nvertex c -2\n"
                        "edge h a +\nedge h b +\nedge h c +\n")
        assert boundary_homology(g) == dense_homology(g) == AbelianGroupDesc(0, (2, 2))
        assert len(general) == 1

    def test_singular_tree(self, general):
        assert boundary_homology(SEED_PATH) == dense_homology(SEED_PATH) == AbelianGroupDesc(1, ())
        assert len(general) == 1

    def test_cycle_with_singular_monodromy_block(self, general):
        # the -2 cycle with positive edges is positive parabolic: eps M - I has rank 1
        g = PlumbingGraph(tuple((f"v{i}", -2) for i in range(5)),
                          tuple((f"v{i}", f"v{(i + 1) % 5}", 1) for i in range(5)))
        assert boundary_homology(g) == dense_homology(g) == AbelianGroupDesc(2, (5,))
        assert not general
        # a ring with a tree on it and det Q = 0: the general route answers
        hung = parse_graph("vertex a -4\nvertex b 1\nvertex c 1\nvertex t -4\n"
                           "edge a b +\nedge b c +\nedge c a +\nedge t a +\n")
        assert plumbing._form_det(hung) == 0
        assert boundary_homology(hung) == dense_homology(hung) == AbelianGroupDesc(2, (19,))
        assert len(general) == 1


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

    def test_complement_matches_the_dense_cokernel(self):
        # complement_qs3 reads det(Q - v) off the det pass; the oracle is the
        # cokernel of the dense form of the tree minus v.  Random
        # trees with zero weights, non-unit stars cut at the hub (isolated
        # vertices left) or at a leaf, and the one-vertex trees, whose
        # complement is empty
        rng, seen = random.Random(2030), set()
        cases = [(PlumbingGraph((("v", w),), ()), "v") for w in (-2, 0, 1)]
        for _ in range(300):
            n = rng.randint(2, 30)
            names = [f"v{i}" for i in range(n)]
            if rng.random() < 0.3:  # a -2 hub with leaves of weight -4..-2 or 0
                weights = [-2] + [rng.choice((-4, -3, -2, 0)) for _ in names[1:]]
                edges = [("v0", x, rng.choice((1, -1))) for x in names[1:]]
                v = rng.choice(("v0", names[-1]))
            else:
                weights = [0 if rng.random() < 1 / 3 else rng.randint(-3, 2) for _ in names]
                edges = [(names[rng.randrange(i)], names[i], rng.choice((1, -1)))
                         for i in range(1, n)]
                v = rng.choice(names)
            cases.append((PlumbingGraph(tuple(zip(names, weights)), tuple(edges)), v))
        for g, v in cases:
            rest = PlumbingGraph(tuple((x, w) for x, w in g.vertices if x != v),
                                 tuple(e for e in g.edges if v not in e))
            expected = abelian_group_of(intersection_form(rest)).free_rank == 0
            assert check_join_hypotheses(g, v).complement_is_qs3 == expected, format_graph(g)
            seen.add(expected)
        assert seen == {True, False}


class TestJoinHypothesesDoubling:
    """``check_join_hypotheses`` is linear on -2 paths, at an end and in the
    middle, and on stars, at the hub and at a leaf: the median ratio of 1600
    to 800 path vertices, and of 800 to 400 star arms, stays under 2.5."""

    @pytest.mark.parametrize("build, n, vertex", [
        (minus_two_path, 800, lambda n: "v0"),
        (minus_two_path, 800, lambda n: f"v{n // 2}"),
        (star_graph, 400, lambda k: "h"),
        (star_graph, 400, lambda k: "l0"),
    ], ids=["path-end", "path-middle", "star-hub", "star-leaf"])
    def test_doubling_ratio_under_2_5(self, build, n, vertex):
        small, large = build(n), build(2 * n)
        assert median_cpu_ratio(lambda: check_join_hypotheses(large, vertex(2 * n)),
                                lambda: check_join_hypotheses(small, vertex(n))) < 2.5


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


# names whose sorted order is not the order they are drawn in
KEY_NAMES = ("b", "a", "a'", "B", "v10", "v2", "v1", "z", "_")


@st.composite
def named_multigraphs(draw):
    """1 to 9 vertices named from :data:`KEY_NAMES` in a random declaration
    order, weights in -3..3, and up to 12 edges between any two vertices:
    parallel edges, self-loops, isolated vertices, several components and
    several cycles."""
    names = draw(st.lists(st.sampled_from(KEY_NAMES), min_size=1, max_size=9, unique=True))
    weights = draw(st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names)))
    ends = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from((1, -1))), max_size=12))
    return PlumbingGraph(tuple(zip(names, weights)), tuple(edges))


def entry_or_code(g):
    try:
        return evaluate_graph(g)
    except DomainError as err:
        return err.code


class TestCanonicalKey:
    @settings(max_examples=500, deadline=None)
    @given(named_multigraphs())
    @example(PlumbingGraph((("b", -1), ("a", -2), ("c", -3), ("_", 0)),
                           (("c", "b", 1), ("a", "c", -1), ("c", "a", 1), ("b", "b", 1))))
    def test_matches_reference(self, g):
        assert canonical_key(g) == reference_canonical_key(g)

    @settings(max_examples=300, deadline=None)
    @given(named_multigraphs(), st.data())
    def test_declaration_order_invariance(self, g, data):
        shuffled = PlumbingGraph(tuple(data.draw(st.permutations(g.vertices))),
                                 tuple(data.draw(st.permutations(g.edges))))
        assert canonical_key(shuffled) == canonical_key(g)
        assert entry_or_code(shuffled) == entry_or_code(g)

    def test_name_invariance(self):
        g1 = path_graph([-1, -2, -3], names=["a", "b", "c"])
        g2 = path_graph([-1, -2, -3], names=["x", "y", "z"])
        assert canonical_key(g1) == canonical_key(g2)

    def test_weight_sensitivity(self):
        g1 = path_graph([-1, -2, -3])
        g2 = path_graph([-1, -2, -4])
        assert canonical_key(g1) != canonical_key(g2)
