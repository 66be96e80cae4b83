import random
import tracemalloc

import pytest

import plumbcalc.ledger as ledger
import plumbcalc.plumbing as plumbing
from plumbcalc.errors import DomainError
from plumbcalc.intmat import is_perfect_square
from plumbcalc.ledger import (
    STATUS_BOUNDS,
    STATUS_OBSTRUCTED,
    STATUS_UNKNOWN,
    Construction,
    LedgerEntry,
    evaluate_descriptor,
    evaluate_graph,
    evaluate_word,
    format_entry,
    parse_construction,
)
from plumbcalc.plumbing import (
    PlumbingGraph,
    boundary_homology,
    cycle_plumbing_from_word,
    format_graph,
)
from plumbcalc.sl2 import MonodromyWord
from plumbcalc.strings import FamilyParams, family_string, format_int_string

from conftest import (
    best_cpu_seconds,
    brute_lex_min_rotation,
    family_parameter_space,
    hyperbolic_strings,
    median_cpu_ratio,
)


def path_graph(weights):
    names = [chr(ord("a") + i) for i in range(len(weights))]
    vertices = tuple(zip(names, weights))
    edges = tuple((names[i], names[i + 1], 1) for i in range(len(weights) - 1))
    return PlumbingGraph(vertices, edges)


SEED_PATH = path_graph([-1, -2, -2, -1])


class TestWordEvaluation:
    def test_negative_parabolic_bounds(self):
        entry = evaluate_word(MonodromyWord((-5, 0)))  # exact -T^5
        assert entry.status == STATUS_BOUNDS
        assert entry.reason == "negative-parabolic"

    def test_family_member_bounds(self):
        entry = evaluate_word(MonodromyWord((3,)))
        assert entry.status == STATUS_BOUNDS
        assert entry.reason.startswith("hyperbolic-family")

    def test_torsion_three_obstructed(self):
        entry = evaluate_word(MonodromyWord((2, 2, 3)))
        assert entry.status == STATUS_OBSTRUCTED
        assert entry.reason == "torsion-not-square(3)"

    def test_trace_two_unknown(self):
        entry = evaluate_word(MonodromyWord((2, 2)))
        assert entry.status == STATUS_UNKNOWN
        assert entry.reason == "trace-2-degenerate"

    def test_descriptor_is_rotation_canonical(self):
        a = evaluate_word(MonodromyWord((4, 2)))
        b = evaluate_word(MonodromyWord((2, 4)))
        assert a.descriptor == b.descriptor == "word:2,4"

    def test_square_but_uncertified_is_unknown(self):
        # (4,5): trace 18, torsion 16 is a square, but an even number of
        # entries >= 3 can never be a family string
        entry = evaluate_word(MonodromyWord((4, 5)))
        assert entry.status == STATUS_UNKNOWN
        assert "square-condition-holds(16)" in entry.reason


class TestGraphEvaluation:
    def test_parabolic_cycle_bounds(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 2, 2, 2), -1))
        entry = evaluate_graph(g)
        assert entry.status == STATUS_BOUNDS
        assert entry.reason == "negative-parabolic"

    def test_family_cycle_bounds(self):
        g = cycle_plumbing_from_word(MonodromyWord((4, 2)))
        entry = evaluate_graph(g)
        assert entry.status == STATUS_BOUNDS
        assert entry.reason.startswith("hyperbolic-family")

    def test_obstructed_cycle(self):
        g = cycle_plumbing_from_word(MonodromyWord((2, 2, 3)))
        assert evaluate_graph(g).status == STATUS_OBSTRUCTED

    def test_seed_tree_bounds(self):
        entry = evaluate_graph(SEED_PATH)
        assert entry.status == STATUS_BOUNDS
        assert entry.reason == "s1xs2-base(homology-level)"

    def test_qs3_tree_is_unknown_or_obstructed(self):
        entry = evaluate_graph(path_graph([-2, -2, -2]))
        assert entry.status in (STATUS_UNKNOWN, STATUS_OBSTRUCTED)


class TestConstruction:
    def test_self_join_certified(self):
        build = Construction()
        build.add_tree("X", SEED_PATH)
        build.add_self_join("G", "X", "a", "d", -1)
        entry = build.evaluate("G")
        assert entry.status == STATUS_BOUNDS
        assert entry.reason.startswith("self-join-nonsingular(det=")
        assert "<-s1xs2-base" in entry.reason

    def test_join_transfer_certified(self):
        build = Construction()
        build.add_tree("X", SEED_PATH)
        build.add_tree("Y", SEED_PATH)
        build.add_join("H", "X", "b", "Y", "a")
        entry = build.evaluate("H")
        assert entry.status == STATUS_BOUNDS
        assert entry.reason.startswith("join-transfer(")

    def test_singular_self_join_not_certified(self):
        # joining the two middle -2 vertices makes a graph with det 0
        build = Construction()
        build.add_tree("X", path_graph([-1, -2, -2, -1]))
        build.add_self_join("G", "X", "b", "c", 1)
        entry = build.evaluate("G")
        assert entry.status != STATUS_BOUNDS or "self-join" not in entry.reason

    def test_monotone_under_extension(self):
        build = Construction()
        build.add_tree("X", SEED_PATH)
        build.add_self_join("G", "X", "a", "d", -1)
        before = build.evaluate("G")
        build.add_tree("Y", path_graph([-2, -2]))
        build.add_join("H", "X", "b", "Y", "a")
        after = build.evaluate("G")
        assert before == after

    def test_duplicate_name_rejected(self):
        build = Construction()
        build.add_tree("X", SEED_PATH)
        with pytest.raises(DomainError):
            build.add_tree("X", SEED_PATH)

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            Construction().evaluate("missing")


class TestSelfJoinBuildsNoDenseForm:
    """The self-join rule reads det Q from the form's nonzeros, so a long
    self-join evaluates in memory linear in its size."""

    def test_3000_vertex_self_join_peaks_under_8_mib(self):
        n = 3000
        names = [f"p{i}" for i in range(n)]
        weights = [-1] + [-2] * (n - 2) + [-1]
        build = Construction()
        build.add_tree("X", PlumbingGraph(
            tuple(zip(names, weights)), tuple(zip(names, names[1:], [1] * (n - 1)))))
        g = build.add_self_join("G", "X", names[0], names[-1], -1)
        tracemalloc.start()
        try:
            entry = build.evaluate("G")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entry == LedgerEntry(
            f"graph:{plumbing.canonical_key(g)}", STATUS_BOUNDS,
            "self-join-nonsingular(det=-4)<-s1xs2-base(homology-level)")
        assert peak < 8 * 2**20  # the n x n form alone is about 70 MiB


class TestOnlyTheAnswerGetsADescriptor:
    """Rules pass (status, reason) verdicts; a descriptor is rendered only
    for the entry that is returned."""

    def test_join_falls_through_to_the_joined_graph(self, monkeypatch):
        # Y = (-2,-2,-2) does not bound, and Y fails the hypotheses at a, so
        # neither side transfers and H gets its own whole-graph verdict
        keys, canonical_key = [], plumbing.canonical_key

        def counted(g):
            keys.append(g)
            return canonical_key(g)

        monkeypatch.setattr(plumbing, "canonical_key", counted)
        build = Construction()
        build.add_tree("X", SEED_PATH)
        build.add_tree("Y", path_graph([-2, -2, -2]))
        build.add_join("H", "X", "b", "Y", "a")
        entry = build.evaluate("H")
        assert keys == [build.graph("H")]
        assert (entry.status, entry.reason) == (
            STATUS_UNKNOWN,
            "square-condition-holds(4);no-certificate",
        )
        assert entry == evaluate_graph(build.graph("H"))

    def test_pure_cycle_builds_no_word_descriptor(self, monkeypatch):
        calls, rotation = [], ledger.lex_min_rotation

        def counted(coeffs):
            calls.append(coeffs)
            return rotation(coeffs)

        monkeypatch.setattr(ledger, "lex_min_rotation", counted)
        entry = evaluate_graph(cycle_plumbing_from_word(MonodromyWord((3, 3, 3))))
        assert calls == []
        assert (entry.status, entry.reason) == (STATUS_BOUNDS, "hyperbolic-family(k=1;x=0,0,0)")


def seed_path(rng, length):
    """Weights of a path with continued fraction 0 (boundary S^1 x S^2),
    grown from (0) by random blow-ups."""
    w = [0]
    while len(w) < length:
        e = rng.randrange(len(w) + 1)
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
    return w


def continuant(weights):
    """Determinant of a path form with positive edges."""
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
    return cur


class TestDeepJoinChain:
    """T_0..T_200 are seed paths; J_i joins J_{i-1} at its last vertex to
    T_i at its first, so every J_i is a path and continuants decide each
    verdict: a transfer through J_{i-1} needs det J_{i-1} = 0 and a
    nonsingular J_{i-1} minus its end; a transfer through T_i needs a
    bounding J_{i-1} and a nonsingular T_i minus its start; otherwise J_i's
    own homology Z/|det| decides."""

    STEPS = 200
    BASE = "s1xs2-base(homology-level)"

    def chain(self, seed, steps=STEPS):
        rng = random.Random(seed)
        seeds = [seed_path(rng, rng.randint(3, 4)) for _ in range(steps + 1)]
        build = Construction()
        for i, w in enumerate(seeds):
            names = [f"T{i}_{j}" for j in range(len(w))]
            build.add_tree(f"T{i}", PlumbingGraph(
                tuple(zip(names, w)),
                tuple((names[j], names[j + 1], 1) for j in range(len(w) - 1)),
            ))
        for i in range(1, steps + 1):
            left = "T0" if i == 1 else f"J{i - 1}"
            build.add_join(f"J{i}", left, f"T{i - 1}_{len(seeds[i - 1]) - 1}", f"T{i}", f"T{i}_0")
        return build, seeds

    def oracle(self, seeds):
        """(status, reason) of J_1..J_steps from continuants alone."""
        joined, entry, out = list(seeds[0]), (STATUS_BOUNDS, self.BASE), []
        for i in range(1, len(seeds)):
            left = "T0" if i == 1 else f"J{i - 1}"
            new = None
            if continuant(joined) == 0 and continuant(joined[:-1]) != 0:
                new = (STATUS_BOUNDS, f"join-transfer({left}-hypotheses;homology-level)<-{self.BASE}")
            elif entry[0] == STATUS_BOUNDS and continuant(seeds[i][1:]) != 0:
                new = (STATUS_BOUNDS, f"join-transfer(T{i}-hypotheses;homology-level)<-{entry[1]}")
            joined[-1] += seeds[i][0]
            joined += seeds[i][1:]
            d = abs(continuant(joined))
            if new is None and d == 0:
                new = (STATUS_BOUNDS, self.BASE)
            elif new is None:
                new = (
                    (STATUS_UNKNOWN, f"square-condition-holds({d});no-certificate")
                    if is_perfect_square(d)
                    else (STATUS_OBSTRUCTED, f"torsion-not-square({d})")
                )
            entry = new
            out.append(entry)
        return out

    @pytest.mark.parametrize("seed", [7, 11])
    def test_every_level_matches_continuants(self, seed):
        build, seeds = self.chain(seed)
        got = [build.evaluate(f"J{i}") for i in range(1, self.STEPS + 1)]
        assert [(e.status, e.reason) for e in got] == self.oracle(seeds)

    def test_top_under_50ms(self):
        build, _ = self.chain(7)
        top = f"J{self.STEPS}"
        assert best_cpu_seconds(lambda: build.evaluate(top)) < 0.05

    def test_top_doubling_ratio_under_2_5(self):
        # one generator draws the seed paths in order, so J_200 of the
        # 400-step chain is the top of the 200-step one
        build, _ = self.chain(7, 2 * self.STEPS)
        assert median_cpu_ratio(lambda: build.evaluate(f"J{2 * self.STEPS}"),
                                lambda: build.evaluate(f"J{self.STEPS}")) < 2.5


class TestMutualExclusivity:
    def test_certified_descriptors_have_square_torsion(self):
        # family words and parabolic words across a corpus
        words = [MonodromyWord((-n, 0)) for n in range(0, 13)]
        words += [MonodromyWord((n, 0)) for n in range(2, 13)]
        for params in family_parameter_space(2, 2):
            from plumbcalc.strings import family_string

            words.append(MonodromyWord(family_string(params)))
        for w in words:
            entry = evaluate_word(w)
            if entry.status != STATUS_BOUNDS:
                continue
            from plumbcalc.sl2 import word_to_matrix

            t = word_to_matrix(w).trace
            assert t != 2
            assert is_perfect_square(abs(t - 2))

    def test_certified_graphs_have_square_torsion(self):
        build = Construction()
        build.add_tree("X", SEED_PATH)
        build.add_self_join("G", "X", "a", "d", -1)
        entry = build.evaluate("G")
        assert entry.status == STATUS_BOUNDS
        torsion = boundary_homology(build.graph("G")).torsion_order
        assert is_perfect_square(torsion)


class TestDescriptorParsing:
    def test_word_descriptor(self):
        entry = evaluate_descriptor("word:2,2,3")
        assert entry.status == STATUS_OBSTRUCTED

    def test_parabolic_sugar(self):
        plus = evaluate_descriptor("-T^5")
        minus = evaluate_descriptor("-T^-5")
        assert plus.status == minus.status == STATUS_BOUNDS
        assert plus.descriptor == "word:-5,0"
        assert minus.descriptor == "word:0,5"

    def test_graph_descriptor(self, tmp_path):
        (tmp_path / "g.graph").write_text(format_graph(SEED_PATH) + "\n")
        entry = evaluate_descriptor("graph:g.graph", tmp_path)
        assert entry.status == STATUS_BOUNDS

    def test_build_descriptor(self, tmp_path):
        (tmp_path / "seed.graph").write_text(format_graph(SEED_PATH) + "\n")
        (tmp_path / "c.build").write_text(
            "tree X seed.graph\nselfjoin G X a d -\ntarget G\n"
        )
        entry = evaluate_descriptor("build:c.build", tmp_path)
        assert entry.status == STATUS_BOUNDS
        assert entry.reason.startswith("self-join-nonsingular")

    def test_bad_descriptor(self):
        with pytest.raises(DomainError) as err:
            evaluate_descriptor("nonsense")
        assert err.value.code == "descriptor-syntax"

    def test_report_line_shape(self):
        line = format_entry(evaluate_word(MonodromyWord((3,))))
        assert line.startswith("descriptor=word:3 status=bounds-QSB reason=")
        assert " " not in line.split("reason=", 1)[1]


class TestConstructionParsing:
    def test_parse_and_default_target(self, tmp_path):
        (tmp_path / "seed.graph").write_text(format_graph(SEED_PATH) + "\n")
        build, target = parse_construction(
            "tree X seed.graph\nselfjoin G X a d -\n", tmp_path
        )
        assert target == "G"
        assert build.names() == ("X", "G")

    def test_bad_line(self, tmp_path):
        with pytest.raises(DomainError) as err:
            parse_construction("frobnicate\n", tmp_path)
        assert err.value.code == "build-syntax"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            parse_construction("# nothing\n", tmp_path)


class TestRotatedWordDescriptors:
    """Word descriptors name the least rotation, so rotating a word keeps them."""

    def test_rotated_family_words(self):
        for params in family_parameter_space(1, 2):
            s = family_string(params)
            first = evaluate_word(MonodromyWord(s))
            assert first.descriptor == f"word:{format_int_string(brute_lex_min_rotation(s))}"
            for r in range(1, len(s)):
                entry = evaluate_word(MonodromyWord(s[r:] + s[:r]))
                assert (entry.descriptor, entry.status) == (first.descriptor, STATUS_BOUNDS)

    def test_rotated_hyperbolic_words(self):
        for s in hyperbolic_strings(5, 4):
            first = evaluate_word(MonodromyWord(s))
            assert first.descriptor == f"word:{format_int_string(brute_lex_min_rotation(s))}"
            for r in range(1, len(s)):
                entry = evaluate_word(MonodromyWord(s[r:] + s[:r]))
                assert (entry.descriptor, entry.status) == (first.descriptor, first.status)

    def test_rotated_long_family_word(self):
        params = FamilyParams(10, tuple(range(21)))
        s = family_string(params)
        first = evaluate_word(MonodromyWord(s))
        assert first.status == STATUS_BOUNDS
        for r in (1, 17, len(s) // 2, len(s) - 1):
            entry = evaluate_word(MonodromyWord(s[r:] + s[:r]))
            assert (entry.descriptor, entry.status) == (first.descriptor, STATUS_BOUNDS)
