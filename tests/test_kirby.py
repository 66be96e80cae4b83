import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc import kirby
from plumbcalc.cli import main
from plumbcalc.errors import ContractError, DomainError
from plumbcalc.kirby import (
    ChainState,
    blow_down,
    blow_up,
    chain_monodromy,
    chains_rotation_equal,
    dualize_procedure,
    format_chain,
    parse_chain,
    rotate,
    run_script,
)
from plumbcalc.sl2 import SL2Element
from plumbcalc.strings import FamilyParams, family_string, split_relabel

from conftest import (
    best_cpu_seconds,
    family_of_length,
    family_parameter_space,
    reference_dualize,
)

chains = st.builds(
    ChainState,
    st.lists(st.integers(-6, 6), min_size=1, max_size=8).map(tuple),
    st.sampled_from([1, -1]),
)


def random_walk(state, rng, moves):
    """Apply up to ``moves`` legal blow moves chosen at random."""
    applied = 0
    for _ in range(moves):
        n = len(state.framings)
        options = []
        if n >= 2:
            options.append("up")
        if n >= 3 and any(
            state.framings[i] in (1, -1) for i in range(1, n - 1)
        ):
            options.append("down")
        if not options:
            break
        if rng.choice(options) == "up":
            state = blow_up(state, rng.randrange(n - 1), rng.choice([1, -1]))
        else:
            sites = [i for i in range(1, n - 1) if state.framings[i] in (1, -1)]
            state = blow_down(state, rng.choice(sites))
        applied += 1
    return state, applied


class TestChainMonodromy:
    def test_single(self):
        assert chain_monodromy(ChainState((-3,))) == SL2Element(3, 1, -1, 0)

    def test_double(self):
        assert chain_monodromy(ChainState((-2, -2))) == SL2Element(3, 2, -2, -1)

    def test_signed(self):
        assert chain_monodromy(ChainState((-1, 1, -1), -1)) == SL2Element(3, 2, -2, -1)


class TestBlowDown:
    def test_negative_one(self):
        assert blow_down(ChainState((-3, -1, -3)), 1) == ChainState((-2, -2))

    def test_positive_one_flips_eps(self):
        assert blow_down(ChainState((-1, 1, -1), -1), 1) == ChainState((-2, -2), 1)

    def test_non_unit_framing_rejected(self):
        with pytest.raises(DomainError) as err:
            blow_down(ChainState((-3, 2, -3)), 1)
        assert err.value.code == "framing-not-unit"

    def test_short_chain_rejected(self):
        with pytest.raises(DomainError) as err:
            blow_down(ChainState((-1, -1)), 1)
        assert err.value.code == "chain-too-short"

    def test_cut_positions_rejected(self):
        with pytest.raises(DomainError) as err:
            blow_down(ChainState((-1, -3, -3)), 0)
        assert err.value.code == "cut-boundary"
        with pytest.raises(DomainError):
            blow_down(ChainState((-3, -3, -1)), 2)

    def test_preserves_monodromy(self):
        before = ChainState((-3, -1, -3))
        after = blow_down(before, 1)
        assert chain_monodromy(before) == chain_monodromy(after)


class TestBlowUp:
    def test_negative(self):
        assert blow_up(ChainState((-2, -2)), 0, -1) == ChainState((-3, -1, -3))

    def test_positive_flips_eps(self):
        assert blow_up(ChainState((-2, -2)), 0, 1) == ChainState((-1, 1, -1), -1)

    def test_inverse_pair(self):
        state = ChainState((-4, -5, -6), -1)
        for e in (1, -1):
            for edge in (0, 1):
                assert blow_down(blow_up(state, edge, e), edge + 1) == state

    def test_bad_edge_rejected(self):
        with pytest.raises(DomainError) as err:
            blow_up(ChainState((-2, -2)), 1, -1)  # the wrap edge is the cut
        assert err.value.code == "cut-boundary"

    def test_preserves_monodromy(self):
        before = ChainState((-2, -2))
        for e in (1, -1):
            assert chain_monodromy(blow_up(before, 0, e)) == chain_monodromy(before)


class TestRotate:
    @given(chains, st.integers(0, 10))
    def test_conjugation_identity(self, c, r):
        rotated, conj = rotate(c, r)
        assert conj @ chain_monodromy(rotated) @ conj.inverse() == chain_monodromy(c)

    def test_identity_rotation(self):
        c = ChainState((-2, -3))
        rotated, conj = rotate(c, 0)
        assert rotated == c and conj == SL2Element.identity()


class TestMoveInvariance:
    @settings(max_examples=120, deadline=None)
    @given(chains, st.integers(0, 2**30))
    def test_random_walks_preserve_monodromy(self, c, seed):
        final, _ = random_walk(c, random.Random(seed), 20)
        assert chain_monodromy(final) == chain_monodromy(c)

    @settings(max_examples=60, deadline=None)
    @given(chains, st.integers(0, 2**30))
    def test_torsion_order_is_move_invariant(self, c, seed):
        t0 = chain_monodromy(c).trace
        final, _ = random_walk(c, random.Random(seed), 12)
        assert chain_monodromy(final).trace == t0


class TestDualize:
    def test_two_entry_family(self):
        result = dualize_procedure((4, 2))
        assert chains_rotation_equal(result.terminal, ChainState((-2, 2), result.terminal.eps))
        assert result.certified()

    def test_three_threes(self):
        result = dualize_procedure((3, 3, 3))
        target = (-2, -2, 2, 2)
        fr = result.terminal.framings
        assert any(fr[r:] + fr[:r] == target for r in range(len(fr)))
        assert result.certified()

    def test_special_case_rejected(self):
        with pytest.raises(DomainError) as err:
            dualize_procedure((3,))
        assert err.value.code == "special-case"

    def test_non_family_rejected(self):
        with pytest.raises(DomainError) as err:
            dualize_procedure((2, 2, 3))
        assert err.value.code == "not-in-family"

    def test_terminal_length_and_certificate(self):
        for params in family_parameter_space(2, 2):
            if params.k == 0 and params.xs == (0,):
                continue
            a = family_string(params)
            d, _ = split_relabel(a)
            result = dualize_procedure(a)
            assert len(result.terminal.framings) == 2 * len(d)
            target = tuple(-x for x in d) + d
            fr = result.terminal.framings
            assert any(fr[r:] + fr[:r] == target for r in range(len(fr)))
            assert result.certified()

    def test_rotated_input_accepted(self):
        a = family_string(FamilyParams(1, (1, 0, 2)))
        rotated = a[3:] + a[:3]
        result = dualize_procedure(rotated)
        assert result.certified()
        assert result.start.framings == tuple(-x for x in rotated)

    def test_blowup_count_equals_d_length(self):
        for a in [(4, 2), (3, 3, 3), (5, 2, 2), (3, 4, 3, 2)]:
            d, _ = split_relabel(a)
            result = dualize_procedure(a)
            assert result.blow_ups == len(d)


class TestChainSyntax:
    def test_bare(self):
        assert parse_chain("-3,-1,-3") == ChainState((-3, -1, -3))

    def test_long_form(self):
        assert parse_chain("chain -3,-1,-3 sign=-") == ChainState((-3, -1, -3), -1)

    def test_roundtrip(self):
        c = ChainState((-3, -1, -3), -1)
        assert parse_chain(format_chain(c)) == c

    def test_bad_framing(self):
        with pytest.raises(DomainError):
            parse_chain("chain -3,x sign=+")


class TestRunScript:
    def test_round_trip_script(self):
        start = ChainState((-2, -2))
        final, witness = run_script(start, ["up 0 -1", "down 1"])
        assert final == start
        assert witness == SL2Element.identity()

    def test_script_with_rotation_certifies(self):
        start = ChainState((-4, -2))
        script = ["rotate 1", "up 0 1", "rotate 2", "down 1"]
        final, witness = run_script(start, script)
        assert final.framings == (-2, 2)
        lhs = witness @ chain_monodromy(final) @ witness.inverse()
        assert lhs == chain_monodromy(start)

    def test_bad_line(self):
        with pytest.raises(DomainError) as err:
            run_script(ChainState((-2, -2)), ["sideways 1"])
        assert err.value.code == "script-syntax"


class TestShorterSideConjugator:
    """rotate builds its conjugator from the shorter side of the cut."""

    @given(chains, st.integers(0, 20))
    def test_prefix_or_inverse_suffix(self, c, r):
        n = len(c.framings)
        rotated, conj = rotate(c, r)
        r %= n
        fr = c.framings
        if 2 * r <= n:
            expected = chain_monodromy(ChainState(fr[:r])) if r else SL2Element.identity()
        else:
            expected = chain_monodromy(ChainState(fr[r:])).inverse()
        assert conj == expected
        assert rotated.framings == fr[r:] + fr[:r] and rotated.eps == c.eps

    def test_last_to_front_uses_one_factor(self):
        c = ChainState((-3, -1, -4, -2, -5, 7))
        rotated, conj = rotate(c, len(c.framings) - 1)
        assert rotated.framings == (7, -3, -1, -4, -2, -5)
        # (T^7 S)^-1
        assert conj == chain_monodromy(ChainState((7,))).inverse()


class TestDualizeLong:
    def test_every_rotation_reaches_the_two_block_form(self):
        for params in family_parameter_space(1, 2):
            s = family_string(params)
            if s == (3,):
                continue
            for r in range(len(s)):
                rotated = s[r:] + s[:r]
                d, _ = split_relabel(rotated)
                target = tuple(-x for x in d) + d
                result = dualize_procedure(rotated)
                fr = result.terminal.framings
                assert any(fr[i:] + fr[:i] == target for i in range(len(fr)))
                assert result.certified()

    def test_length_606_is_fast_and_certified(self):
        a = family_of_length(606, 10, 606)
        assert len(a) == 606
        result = dualize_procedure(a)
        d, _ = split_relabel(a)
        target = tuple(-x for x in d) + d
        fr = result.terminal.framings
        assert any(fr[i:] + fr[:i] == target for i in range(len(fr)))
        assert result.start == ChainState(tuple(-x for x in a), 1)
        assert result.certified()
        assert best_cpu_seconds(lambda: dualize_procedure(a)) < 0.05

    def test_length_606_under_5ms(self):
        a = family_of_length(606, 10, 606)
        assert best_cpu_seconds(lambda: dualize_procedure(a)) < 0.005


class TestDualizeAgainstReference:
    """The deque loop with its int conjugator equals the per-move ``_cut``
    loop: same terminal chain, conjugator and move counts."""

    def test_every_rotation_of_small_family_strings(self):
        for params in list(family_parameter_space(1, 2)) + list(family_parameter_space(2, 1)):
            s = family_string(params)
            if s == (3,):
                continue
            for r in range(len(s)):
                rotated = s[r:] + s[:r]
                assert dualize_procedure(rotated) == reference_dualize(rotated)

    def test_length_606_and_its_rotations(self):
        a = family_of_length(606, 10, 606)
        for r in (0, 1, 5, 303, 605):
            rotated = a[r:] + a[:r]
            assert dualize_procedure(rotated) == reference_dualize(rotated)


class TestDualizeContracts:
    """A broken move makes the dualization contracts fire, in the library
    and through the CLI."""

    A = family_string(FamilyParams(1, (1, 0, 2)))

    def _dualize_cli(self, capsys):
        code = main(["kirby", "dualize", ",".join(map(str, self.A))])
        return code, capsys.readouterr().out

    def test_two_block(self, monkeypatch, capsys):
        blow = kirby._blow

        def bad_blow(fr, i, e, up):  # a blowdown that also lowers the last framing
            blow(fr, i, e, up)
            if not up:
                fr[-1] -= 1

        monkeypatch.setattr(kirby, "_blow", bad_blow)
        with pytest.raises(ContractError) as err:
            dualize_procedure(self.A)
        assert err.value.code == "contract-two-block"
        assert self._dualize_cli(capsys) == (1, "error=contract-two-block\n")

    def test_certificate(self, monkeypatch, capsys):
        cut = kirby._cut

        def bad_cut(fr, r):  # rotates, but forgets the conjugator
            cut(fr, r)
            return SL2Element.identity()

        monkeypatch.setattr(kirby, "_cut", bad_cut)
        with pytest.raises(ContractError) as err:
            dualize_procedure(self.A)
        assert err.value.code == "contract-certificate"
        assert self._dualize_cli(capsys) == (1, "error=contract-certificate\n")
