import json
import sys
import tracemalloc
from pathlib import Path
from time import process_time

import pytest

import plumbcalc.intmat
from plumbcalc.cli import build_parser, main
from plumbcalc.plumbing import parse_graph

# ``--help`` of every command path and the usage errors of a missing
# subcommand, recorded before the parser was built from a table
GOLDEN_HELP = json.loads((Path(__file__).parent / "golden_help.json").read_text())

SEED_PATH_TEXT = (
    "vertex a -1\nvertex b -2\nvertex c -2\nvertex d -1\n"
    "edge a b +\nedge b c +\nedge c d +\n"
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_mono_torsion(self, capsys):
        code, out, _ = invoke(capsys, "mono", "3", "--torsion")
        assert code == 0
        assert out == "trace=3\ntorsion=1\n"

    def test_dual(self, capsys):
        code, out, _ = invoke(capsys, "dual", "2,2,2")
        assert code == 0
        assert out == "dual=4\n"

    def test_family_check(self, capsys):
        code, out, _ = invoke(capsys, "family", "check", "3,3,3")
        assert code == 0
        assert out == "member=yes k=1 x=0,0,0\n"

    def test_family_check_negative(self, capsys):
        code, out, _ = invoke(capsys, "family", "check", "2,2,2")
        assert code == 0
        assert out == "member=no\n"

    def test_family_gen(self, capsys):
        code, out, _ = invoke(capsys, "family", "gen", "k=1;x=0,0,0")
        assert code == 0
        assert out == "string=3,3,3\n"

    def test_mono_classify_and_square(self, capsys):
        code, out, _ = invoke(capsys, "mono", "3", "--classify", "--square-check")
        assert code == 0
        assert out == "trace=3\nclass=hyperbolic sign=positive\nvalue=5 square=no\n"


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = invoke(capsys, "mono", "3,2,2", "--classify", "--torsion")
        second = invoke(capsys, "mono", "3,2,2", "--classify", "--torsion")
        assert first == second


class TestExitCodes:
    def test_domain_error_is_one_with_error_line(self, capsys):
        code, out, err = invoke(capsys, "mono", "2,2", "--torsion")
        assert code == 1
        assert out == "error=parabolic-positive\n"
        assert err.strip()

    def test_usage_error_is_two(self, capsys):
        code, out, err = invoke(capsys, "mono", "3", "--bogus")
        assert code == 2

    def test_other_value_error_is_not_too_large(self, monkeypatch):
        # only the int-to-str digit limit reads as error=too-large; a bug raises
        def boom(_):
            raise ValueError("boom")

        monkeypatch.setattr("plumbcalc.strings.dual_string", boom)
        with pytest.raises(ValueError, match="boom"):
            main(["dual", "2,2"])

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "plumb", "form", "/nonexistent/file.graph")
        assert code == 2
        assert "cannot read" in err

    def test_help_everywhere(self, capsys, monkeypatch):
        # argparse wraps help at $COLUMNS (less 2); pin it so the bytes are
        # those recorded in golden_help.json
        monkeypatch.setenv("COLUMNS", "80")
        assert len([c for c in GOLDEN_HELP if c["argv"][-1:] == ["--help"]]) == 26
        for case in GOLDEN_HELP:
            assert invoke(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# every command that reads a file, and the ledger's three read sites, on a
# file that is not UTF-8 text ({bad}); {graph} is a readable graph.
# (argv, exit code, stdout); a usage error says "cannot read" on stderr
NON_UTF8_CASES = {
    "plumb form": (["plumb", "form", "{bad}"], 2, ""),
    "plumb homology": (["plumb", "homology", "{bad}"], 2, ""),
    "plumb selfjoin": (
        ["plumb", "selfjoin", "{bad}", "--v1", "a", "--v2", "d", "--sign", "+"], 2, ""
    ),
    "plumb join": (["plumb", "join", "{bad}", "{graph}", "--v1", "a", "--v2", "a"], 2, ""),
    "plumb join (graph2)": (["plumb", "join", "{graph}", "{bad}", "--v1", "a", "--v2", "a"], 2, ""),
    "plumb checkjoin": (["plumb", "checkjoin", "{bad}", "--v", "a"], 2, ""),
    "kirby run": (["kirby", "run", "chain -2,-2 sign=+", "--script", "{bad}"], 2, ""),
    "obstruct attach": (["obstruct", "attach", "{bad}", "--kappa", "2", "--framing", "1"], 2, ""),
    "obstruct mu": (["obstruct", "mu", "{bad}"], 2, ""),
    "mat det": (["mat", "det", "{bad}"], 2, ""),
    "mat snf": (["mat", "snf", "{bad}"], 2, ""),
    "mat group": (["mat", "group", "{bad}"], 2, ""),
    "mat signature": (["mat", "signature", "{bad}"], 2, ""),
    "ledger graph:": (["ledger", "eval", "graph:{bad}"], 1, "error=descriptor-io\n"),
    "ledger build:": (["ledger", "eval", "build:{bad}"], 1, "error=descriptor-io\n"),
    "ledger tree": (["ledger", "eval", "build:{tree_script}"], 1, "error=build-io\n"),
}


class TestUnreadableFiles:
    """A file that is not UTF-8 text is an error with a code, never a
    traceback."""

    @pytest.fixture
    def paths(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"vertex a -1\n\xd0\xff\xfe\x00\x80 not utf-8\n")
        graph = tmp_path / "seed.graph"
        graph.write_text(SEED_PATH_TEXT)
        tree_script = tmp_path / "tree.build"
        tree_script.write_text("tree T bad.bin\n")
        return {"bad": str(bad), "graph": str(graph), "tree_script": str(tree_script)}

    @pytest.mark.parametrize("case", sorted(NON_UTF8_CASES))
    def test_non_utf8(self, capsys, paths, case):
        argv, exit_code, stdout = NON_UTF8_CASES[case]
        code, out, err = invoke(capsys, *[a.format(**paths) for a in argv])
        assert (code, out) == (exit_code, stdout)
        assert "Traceback" not in err
        if exit_code == 2:
            assert err.startswith(f"cannot read {paths['bad']}: ")

    def test_every_file_command_is_covered(self):
        from plumbcalc.cli import COMMANDS

        file_args = {"graph", "graph2", "matrix", "--script"}
        takes_file = {
            path for path, _, arguments, _ in COMMANDS
            if file_args & {a if isinstance(a, str) else a[0] for a in arguments}
        }
        covered = {c.split(" (")[0] for c in NON_UTF8_CASES if not c.startswith("ledger")}
        assert takes_file == covered


class TestUtf8WhateverTheLocale:
    """Input files are read as UTF-8 even where the locale's encoding is
    ASCII, so a comment holding an ``é`` does not make a file unreadable."""

    CASES = {
        "plumb homology": (["plumb", "homology", "u.graph"], "homology=Z/5\n"),
        "ledger graph:": (["ledger", "eval", "graph:u.graph"], "{entry}\n"),
        "ledger build: and tree": (["ledger", "eval", "build:u.build"], "{entry}\n"),
    }
    ENTRY = "descriptor=graph:v0:-2,v1:-3|v0-v1:+ status=obstructed reason=torsion-not-square(5)"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_c_locale(self, tmp_path, case):
        import os
        import subprocess
        import sys

        import plumbcalc

        (tmp_path / "u.graph").write_text(
            "vertex a -2 # café\nvertex b -3\nedge a b +\n", encoding="utf-8"
        )
        (tmp_path / "u.build").write_text("tree T u.graph # café\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        # the child runs in tmp_path, so a relative PYTHONPATH would not find the package
        env["PYTHONPATH"] = str(Path(plumbcalc.__file__).resolve().parents[1])
        argv, stdout = self.CASES[case]
        result = subprocess.run(
            [sys.executable, "-m", "plumbcalc", *argv],
            capture_output=True, encoding="utf-8", cwd=tmp_path, env=env,
        )
        assert (result.returncode, result.stdout) == (0, stdout.format(entry=self.ENTRY))
        assert result.stderr == ""


class TestEmptyGraphFile:
    """A graph file with no vertex and no edge line is an error, not the
    empty plumbing."""

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    @pytest.mark.parametrize("argv, name", [
        (["plumb", "form", "{path}"], "empty.graph"),
        (["ledger", "eval", "graph:{path}"], "empty.graph"),
        (["ledger", "eval", "build:{path}"], "empty.build"),
    ])
    def test_empty_graph(self, capsys, tmp_path, text, argv, name):
        (tmp_path / "empty.graph").write_text(text)
        (tmp_path / "empty.build").write_text("tree T empty.graph\n")
        path = str(tmp_path / name)
        code, out, err = invoke(capsys, *[a.format(path=path) for a in argv])
        assert (code, out) == (1, "error=empty-graph\n")
        assert "Traceback" not in err


class TestPlumbCommands:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "seed.graph"
        path.write_text(SEED_PATH_TEXT)
        return str(path)

    def test_form(self, capsys, graph_file):
        code, out, _ = invoke(capsys, "plumb", "form", graph_file)
        assert code == 0
        assert out == ("form=-1,1,0,0;1,-2,1,0;0,1,-2,1;0,0,1,-1\ndet=0\n")

    def test_form_past_the_entry_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        # 3163^2 > 10^7 entries: refused before the n x n form is built
        n = 3163
        path = tmp_path / "path.graph"
        path.write_text("".join(f"vertex p{i} -2\n" for i in range(n))
                        + "".join(f"edge p{i} p{i + 1} +\n" for i in range(n - 1)))
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "plumb", "form", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "error=too-large\n")
        assert "Traceback" not in err
        assert peak < 2**24  # the form alone is 80 MB of pointers
        # the cap itself: 16 entries hold the 4-vertex form, 15 do not
        monkeypatch.setattr(plumbcalc.intmat, "_MAX_CERTIFICATE", 16)
        seed = tmp_path / "seed.graph"
        seed.write_text(SEED_PATH_TEXT)
        assert invoke(capsys, "plumb", "form", str(seed))[0] == 0
        monkeypatch.setattr(plumbcalc.intmat, "_MAX_CERTIFICATE", 15)
        assert invoke(capsys, "plumb", "form", str(seed))[:2] == (1, "error=too-large\n")

    def test_form_det_of_a_long_path(self, capsys, tmp_path):
        # det= comes from the form's nonzeros; a tridiagonal form's det follows
        # the continuant recurrence D_k = w_k D_(k-1) - D_(k-2)
        weights = [-3] + [-2] * 88 + [-3]
        path = tmp_path / "path.graph"
        path.write_text("".join(f"vertex p{i} {w}\n" for i, w in enumerate(weights))
                        + "".join(f"edge p{i} p{i + 1} +\n" for i in range(len(weights) - 1)))
        before, d = 1, weights[0]
        for w in weights[1:]:
            before, d = d, w * d - before
        code, out, _ = invoke(capsys, "plumb", "form", str(path))
        assert code == 0 and out.splitlines()[1] == f"det={d}"

    def test_homology(self, capsys, graph_file):
        code, out, _ = invoke(capsys, "plumb", "homology", graph_file)
        assert code == 0
        assert out == "homology=Z\n"

    def test_selfjoin_roundtrips(self, capsys, graph_file):
        code, out, _ = invoke(
            capsys, "plumb", "selfjoin", graph_file,
            "--v1", "a", "--v2", "d", "--sign", "-",
        )
        assert code == 0
        g = parse_graph(out)
        assert [w for _, w in g.vertices] == [-2, -2, -2]
        assert sorted(s for _, _, s in g.edges) == [-1, 1, 1]

    def test_join(self, capsys, graph_file, tmp_path):
        other = tmp_path / "single.graph"
        other.write_text("vertex z -1\n")
        code, out, _ = invoke(
            capsys, "plumb", "join", graph_file, str(other),
            "--v1", "d", "--v2", "z",
        )
        assert code == 0
        g = parse_graph(out)
        assert g.weight("d") == -2

    def test_join_renames_clashes_exactly(self, capsys, graph_file, tmp_path):
        # a' keeps its name; a takes the next free one, a''
        clash = tmp_path / "clash.graph"
        clash.write_text("vertex a' -2\nvertex c -3\nvertex a -2\nedge a' c +\nedge c a -\n")
        code, out, _ = invoke(
            capsys, "plumb", "join", graph_file, str(clash), "--v1", "b", "--v2", "c",
        )
        assert code == 0
        assert out == (
            "vertex a -1\nvertex b -5\nvertex c -2\nvertex d -1\nvertex a' -2\nvertex a'' -2\n"
            "edge a b +\nedge b c +\nedge c d +\nedge a' b +\nedge b a'' -\n"
        )

    def test_checkjoin(self, capsys, graph_file):
        code, out, _ = invoke(capsys, "plumb", "checkjoin", graph_file, "--v", "b")
        assert code == 0
        assert out == "boundary_s1xs2=yes complement_qs3=yes\n"


class TestKirbyCommands:
    def test_run_script(self, capsys, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("up 0 -1\ndown 1\n")
        code, out, _ = invoke(
            capsys, "kirby", "run", "chain -2,-2 sign=+", "--script", str(script)
        )
        assert code == 0
        assert out == (
            "framings=-2,-2\neps=+\nmonodromy=3,2;-2,-1\ncertified=yes\n"
        )

    def test_run_with_rotation(self, capsys, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("rotate 1\nup 0 1\nrotate 2\ndown 1\n")
        code, out, _ = invoke(
            capsys, "kirby", "run", "chain -4,-2 sign=+", "--script", str(script)
        )
        assert code == 0
        assert "framings=-2,2" in out
        assert "certified=yes" in out

    def test_run_negative_chain_sign(self, capsys, tmp_path):
        # the chain's own sign= field is the one way to set eps
        script = tmp_path / "down.script"
        script.write_text("down 1\n")
        argv = ["kirby", "run", "chain -3,-1,-3 sign=-", "--script", str(script)]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == "framings=-2,-2\neps=-\nmonodromy=-3,-2;2,1\ncertified=yes\n"
        code, _, err = invoke(capsys, *argv, "--sign", "-")
        assert code == 2
        assert "unrecognized arguments: --sign" in err

    def test_dualize(self, capsys):
        code, out, _ = invoke(capsys, "kirby", "dualize", "3,3,3")
        assert code == 0
        assert out == (
            "framings=-2,2,2,-2\neps=+\nblowups=2\nblowdowns=1\ncertified=yes\n"
        )

    def test_dualize_special_case(self, capsys):
        code, out, _ = invoke(capsys, "kirby", "dualize", "3")
        assert code == 1
        assert out == "error=special-case\n"


class TestObstructCommands:
    @pytest.fixture
    def zero_matrix(self, tmp_path):
        path = tmp_path / "zero.mat"
        path.write_text("1 1\n0\n")
        return str(path)

    def test_square(self, capsys):
        assert invoke(capsys, "obstruct", "square", "4")[1] == "verdict=pass\n"
        assert invoke(capsys, "obstruct", "square", "3")[1] == "verdict=fail\n"

    def test_attach(self, capsys, zero_matrix):
        code, out, _ = invoke(
            capsys, "obstruct", "attach", zero_matrix, "--kappa", "2", "--framing", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["bordered=0,2;2,1", "det=-4", "homology=Z/4"]
        assert lines[3].startswith("provenance=") and "homology-level" in lines[3]

    def test_mu(self, capsys, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text("2 2\n0 1\n1 0\n")
        code, out, _ = invoke(capsys, "obstruct", "mu", str(path))
        assert code == 0
        assert out == "signature=0\nmu=0\n"


class TestLedgerCommand:
    def test_word(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "eval", "word:2,2,3")
        assert code == 0
        assert out == (
            "descriptor=word:2,2,3 status=obstructed reason=torsion-not-square(3)\n"
        )

    def test_parabolic_sugar(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "eval", "--", "-T^5")
        assert code == 0
        assert "status=bounds-QSB reason=negative-parabolic" in out

    def test_family_word(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "eval", "word:3")
        assert code == 0
        assert out == (
            "descriptor=word:3 status=bounds-QSB reason=hyperbolic-family(k=0;x=0)\n"
        )


    def test_1200_step_build_answers(self, tmp_path):
        import subprocess
        import sys

        # every tree is one vertex of weight -1, which does not bound, so
        # each join consults its left operand all the way down to T0
        (tmp_path / "unit.graph").write_text("vertex x -1\n")
        lines = ["tree T0 unit.graph"]
        for i in range(1, 1201):
            left = "T0" if i == 1 else f"J{i - 1}"
            lines += [f"tree T{i} unit.graph", f"join J{i} {left} x T{i} x"]
        script = tmp_path / "deep.build"
        script.write_text("\n".join(lines) + "\n")
        result = subprocess.run(
            [sys.executable, "-m", "plumbcalc", "ledger", "eval", f"build:{script}"],
            capture_output=True,
            text=True,
        )
        assert result.returncode in (0, 1)
        assert "Traceback" not in result.stderr
        assert result.stdout == (
            "descriptor=graph:v0:-1201 status=obstructed reason=torsion-not-square(1201)\n"
        )


class TestMatCommands:
    def test_det_and_group(self, capsys, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("3 3\n-2 1 -1\n1 -2 1\n-1 1 -2\n")
        assert invoke(capsys, "mat", "det", str(path))[1] == "det=-4\n"
        assert invoke(capsys, "mat", "group", str(path))[1] == "group=Z/4\n"

    def test_snf_certificate_shape(self, capsys, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n2 1\n1 2\n")
        code, out, _ = invoke(capsys, "mat", "snf", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d=1,0;0,3"
        assert lines[1].startswith("u=") and lines[2].startswith("v=")

    def test_signature(self, capsys, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n0 1\n1 0\n")
        assert invoke(capsys, "mat", "signature", str(path))[1] == "signature=0\n"

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path):
        """A reader that has gone, as in ``plumbcalc mat snf r30.mat | head -c 20``,
        gives exit 1 and nothing on stderr: for output past the pipe buffer,
        which fails in ``print``, and for one line, which fails at the flush."""
        import os
        import random
        import subprocess

        import plumbcalc

        rng = random.Random(30)
        entries = " ".join(str(rng.randint(-9, 9)) for _ in range(900))
        (tmp_path / "r30.mat").write_text(f"30 30\n{entries}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(plumbcalc.__file__).resolve().parents[1]))
        for argv in (["mat", "snf", "r30.mat"], ["dual", "2,2,2"]):
            read, write = os.pipe()
            os.close(read)  # the read end is closed before the child writes
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "plumbcalc", *argv], stdout=write,
                    stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
                )
            finally:
                os.close(write)
            assert (result.returncode, result.stderr) == (1, ""), argv  # no traceback


def test_parser_builds():
    assert build_parser().prog == "plumbcalc"


def _parse(parser, argv):
    """``parser.parse_args(argv)`` as (namespace dict or exit code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestPrunedParser:
    """``build_parser(argv)`` parses ``argv`` as the full tree does: the same
    namespace, or the same exit code, stdout and stderr."""

    # misspelt commands and groups, missing arguments, -h at each level,
    # options before the command and -- before negative values
    EXPLICIT = [
        [], ["dul", "2"], ["plum", "homology", "x"], ["plumb", "homolgy", "x"], ["plumb"],
        ["plumb", "homology"], ["mono"], ["obstruct", "attach", "m.mat"], ["-h"],
        ["-h", "dual"], ["--help", "plumb", "join"], ["plumb", "-h"], ["plumb", "join", "-h"],
        ["ledger", "eval", "--", "-T^5"], ["ledger", "eval", "-T^5"],
        ["obstruct", "square", "--", "-3"], ["obstruct", "square", "-3"], ["mono", "--", "-3,2"],
        ["--classify", "mono", "3"], ["mono", "3", "--classify", "--torsion"],
        ["mat", "det", "a", "b"], ["family", "gen", "k=1;x=0,0,0", "--help"],
        ["plumb", "selfjoin", "g", "--v1", "a", "--v2", "b", "--sign", "x"],
        ["obstruct", "square", "three"], ["mono", "mat"], ["family", "check", "plumb", "join"],
    ]

    @staticmethod
    def sample(count, seed):
        """``count`` argvs drawn from the command table's own tokens, their
        misspellings and the argument values the commands take."""
        import random

        from plumbcalc.cli import COMMANDS

        rng = random.Random(seed)
        paths = [row[0].split() for row in COMMANDS]
        words = sorted({word for path in paths for word in path})
        options = sorted({arg[0] for row in COMMANDS for arg in row[2]
                          if not isinstance(arg, str) and arg[0].startswith("-")})
        values = ["-h", "--help", "--", "-3", "3", "+", "-", "-T^5", "word:2,2,3", "a.mat"]
        pool = words + [w[:-1] for w in words] + options + values
        argvs = []
        for _ in range(count):
            argv = [rng.choice(["-h", "--help", "--torsion"])] if rng.random() < 0.1 else []
            path = list(rng.choice(paths))
            if rng.random() < 0.2:
                i = rng.randrange(len(path))
                path[i] = path[i][:-1]
            argv += path[:rng.randint(0, len(path))] if rng.random() < 0.2 else path
            argv += rng.choices(pool if rng.random() < 0.5 else values[2:], k=rng.randint(0, 4))
            argvs.append(argv)
        return argvs

    def test_same_parse(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cases = [case["argv"] for case in GOLDEN_HELP + GOLDEN_LONG]
        cases += self.EXPLICIT + self.sample(600, 26)
        full = build_parser()
        exits = set()
        for argv in cases:
            expected = _parse(full, argv)
            assert _parse(build_parser(argv), argv) == expected, argv
            exits.add(expected[0] if isinstance(expected[0], int) else "parsed")
        assert exits == {0, 2, "parsed"}

    def test_builds_only_what_argv_names(self):
        import argparse

        from plumbcalc.cli import COMMANDS, GROUPS

        def tree(parser):
            """prog -> action count, for each parser of the tree under ``parser``."""
            counts = {parser.prog: len(parser._actions)}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        counts.update(tree(sub))
            return counts

        assert len(tree(build_parser())) == 1 + len(GROUPS) + len(COMMANDS)
        pruned = tree(build_parser(["plumb", "homology", "x"]))
        assert len(pruned) == 1 + 8 + 5  # the root, every top-level entry, plumb's rows
        built = {prog for prog, count in pruned.items() if count}
        assert built == {"plumbcalc", "plumbcalc plumb", "plumbcalc plumb homology"}


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "plumbcalc", "dual", "2,2,2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "dual=4\n"


class TestDenseRegressions:
    """Inputs on which unreduced Smith elimination used to grow without
    bound: both commands must now answer."""

    DENSE_SYMMETRIC_8 = (
        "8 8\n"
        "-5 9 -7 -1 -6 6 5 6\n9 3 -3 -6 6 -9 3 4\n-7 -3 -9 5 -1 -2 9 -6\n"
        "-1 -6 5 1 -9 -9 -9 8\n-6 6 -1 -9 -9 3 -3 4\n6 -9 -2 -9 3 -9 7 -2\n"
        "5 3 9 -9 -3 7 5 6\n6 4 -6 8 4 -2 6 8\n"
    )
    # P^T diag(0, +-1, ...) P for a unimodular P: singular, rank 9
    SINGULAR_10 = (
        "10 10\n"
        "-2 4 -3 1 -5 3 -2 5 -4 3\n4 -6 0 3 0 -3 1 -9 10 -6\n"
        "-3 0 -4 7 -2 0 2 4 -7 -2\n1 3 7 -14 8 -1 0 1 5 3\n"
        "-5 0 -2 8 2 0 5 3 -14 1\n3 -3 0 -1 0 -2 3 -5 11 -4\n"
        "-2 1 2 0 5 3 -3 3 -8 2\n5 -9 4 1 3 -5 3 -3 3 -2\n"
        "-4 10 -7 5 -14 11 -8 3 -9 11\n3 -6 -2 3 1 -4 2 -2 11 -11\n"
    )

    def test_group_of_dense_symmetric(self, capsys, tmp_path):
        path = tmp_path / "dense.mat"
        path.write_text(self.DENSE_SYMMETRIC_8)
        # sympy: det 37980, invariant factors 1 (x7), 37980
        assert invoke(capsys, "mat", "group", str(path)) == (0, "group=Z/37980\n", "")
        assert invoke(capsys, "mat", "det", str(path)) == (0, "det=37980\n", "")

    def test_attach_on_singular(self, capsys, tmp_path):
        path = tmp_path / "singular.mat"
        path.write_text(self.SINGULAR_10)
        assert invoke(capsys, "mat", "group", str(path)) == (0, "group=Z\n", "")
        code, out, _ = invoke(
            capsys, "obstruct", "attach", str(path),
            "--kappa=2,-2,2,-2,0,-2,0,0,0,2", "--framing", "1",
        )
        assert code == 0
        lines = out.splitlines()
        # sympy: the bordered matrix has det 4 and invariant factors 1 (x10), 4
        assert lines[0].startswith("bordered=-2,4,-3,1,-5,3,-2,5,-4,3,2;")
        assert lines[0].endswith(";2,-2,2,-2,0,-2,0,0,0,2,1")
        assert lines[1:3] == ["det=4", "homology=Z/4"]


GOLDEN_LONG = json.loads((Path(__file__).parent / "golden_long.json").read_text())


class TestLongGoldens:
    """Outputs on long inputs, recorded before the cyclic-word kernels were
    shared; ``{script}`` in argv stands for a file holding ``script``."""

    @pytest.mark.parametrize(
        "case", GOLDEN_LONG, ids=[f"{i}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(GOLDEN_LONG)]
    )
    def test_byte_identical(self, capsys, tmp_path, case):
        argv = list(case["argv"])
        if "script" in case:
            path = tmp_path / "moves.txt"
            path.write_text(case["script"])
            argv = [str(path) if a == "{script}" else a for a in argv]
        code, out, _ = invoke(capsys, *argv)
        assert code == case["exit"]
        assert out == case["stdout"]

    def test_goldens_cover_long_inputs(self):
        dualized = [c["argv"][2] for c in GOLDEN_LONG if c["argv"][:2] == ["kirby", "dualize"]]
        assert {44, 176} <= {len(s.split(",")) for s in dualized}
        run = next(c for c in GOLDEN_LONG if "script" in c)
        n = len(run["argv"][2].split()[1].split(","))
        rotations = [int(line.split()[1]) for line in run["script"].splitlines() if "rotate" in line]
        assert any(r > n // 2 for r in rotations)


class TestTooLarge:
    """Commands whose output would pass the entry cap fail before building it."""

    def test_dual(self, capsys):
        assert invoke(capsys, "dual", "1000000000")[:2] == (1, "error=too-large\n")

    def test_family_gen(self, capsys):
        assert invoke(capsys, "family", "gen", "k=0;x=1000000000")[:2] == (1, "error=too-large\n")

    @pytest.mark.parametrize("header", ["2147483648 0", "0 2147483648"])
    @pytest.mark.parametrize("command", ["group", "snf"])
    def test_matrix_header_with_a_huge_dimension(self, capsys, tmp_path, header, command):
        # 13 bytes that declare no entries, yet 2^31 rows or a 2^31-square v
        matrix = tmp_path / "huge.mat"
        matrix.write_text(header + "\n")
        start = process_time()
        code, out, err = invoke(capsys, "mat", command, str(matrix))
        assert process_time() - start < 0.5
        assert (code, out) == (1, "error=too-large\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, group", [("0 1000000", "group=0"),
                                               ("1000000 0", "group=Z^1000000")])
    def test_empty_matrix_at_the_dimension_cap(self, capsys, tmp_path, header, group):
        # within the parser's cap, but snf's u and v would be 10^12 entries
        matrix = tmp_path / "wide.mat"
        matrix.write_text(header + "\n")
        start = process_time()
        code, out, err = invoke(capsys, "mat", "snf", str(matrix))
        assert process_time() - start < 0.5
        assert (code, out) == (1, "error=too-large\n")
        assert "Traceback" not in err
        assert invoke(capsys, "mat", "group", str(matrix))[:2] == (0, group + "\n")

    def test_kirby_dualize_of_one_huge_entry(self, capsys):
        # a single entry 3+x needs a run of x 2's to be a family string, so
        # this is rejected from its parse and nothing long is built
        assert invoke(capsys, "kirby", "dualize", "1000000003")[:2] == (1, "error=not-in-family\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
class TestPastIntToStrLimit:
    """A result longer than CPython's int-to-str limit (4300 digits) fails
    with error=too-large and no traceback; the limit is not raised."""

    BIG = "7" * 4000

    def test_ledger_word(self, capsys):
        code, out, err = invoke(capsys, "ledger", "eval", f"word:{self.BIG},{self.BIG}")
        assert (code, out) == (1, "error=too-large\n")
        assert "Exceeds the limit" in err and "Traceback" not in err

    def test_mono_torsion(self, capsys):
        code, out, err = invoke(capsys, "mono", f"{self.BIG},{self.BIG}", "--torsion")
        assert (code, out) == (1, "error=too-large\n")
        assert "Exceeds the limit" in err and "Traceback" not in err

    def test_mat_det_but_not_snf(self, capsys, tmp_path):
        matrix = tmp_path / "big.mat"
        matrix.write_text(f"2 2\n{self.BIG} 0\n0 {self.BIG}\n")
        code, out, err = invoke(capsys, "mat", "det", str(matrix))
        assert (code, out) == (1, "error=too-large\n")
        assert "Exceeds the limit" in err and "Traceback" not in err
        code, out, _ = invoke(capsys, "mat", "snf", str(matrix))
        assert code == 0 and out.startswith(f"d={self.BIG},0;0,{self.BIG}\n")


class TestListSyntaxCodes:
    """Every comma-list argument keeps its own error code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["mono", "3,x"], "word-syntax"),
            (["mono", "3,,2"], "word-syntax"),
            (["dual", "3,,2"], "string-syntax"),
            (["dual", " "], "string-syntax"),
            (["family", "check", "3;3"], "string-syntax"),
            (["family", "gen", "k=0;x=a"], "family-syntax"),
            (["family", "gen", "k=z;x=1"], "family-syntax"),
            (["kirby", "dualize", "3,3,"], "string-syntax"),
            (["family", "gen", "k=1;x=0,0,0;junk"], "family-syntax"),
            (["family", "gen", "k=1;x=0,0,0;k=2"], "family-syntax"),
            (["mono", "+:3,2"], "word-syntax"),
        ],
    )
    def test_codes(self, capsys, argv, code):
        assert invoke(capsys, *argv)[:2] == (1, f"error={code}\n")

    def test_chain_and_kappa(self, capsys, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("")
        out = invoke(capsys, "kirby", "run", "chain -3,x sign=+", "--script", str(script))
        assert out[:2] == (1, "error=chain-syntax\n")
        out = invoke(capsys, "kirby", "run", "", "--script", str(script))
        assert out[:2] == (1, "error=chain-syntax\n")
        matrix = tmp_path / "zero.mat"
        matrix.write_text("1 1\n0\n")
        out = invoke(capsys, "obstruct", "attach", str(matrix), "--kappa", "2,", "--framing", "1")
        assert out[:2] == (1, "error=kappa-syntax\n")


_NO_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit"
)


class TestBadTokenInEveryFormat:
    """A non-integer token, one that ``int()`` alone would read (digit-group
    underscores, a non-ASCII digit, padding inside a comma list or after
    ``=`` or ``^``) and one past CPython's 4300-digit ``int()`` limit fail in
    every text format with that format's syntax code."""

    # written to the working directory; TOKEN stands for the bad token
    FILES = {
        "t.graph": "vertex a -1\nvertex b TOKEN\nedge a b +\n",
        "t.mat": "2 2\n1 0\n0 TOKEN\n",
        "t.script": "up 0 1\ndown TOKEN\n",
        "t.build": "# one tree\ntree X t.graph\n",
        "ok.mat": "1 1\n0\n",
        "ok.script": "",
    }
    FORMATS = {
        "graph-weight": ("graph-syntax", ["plumb", "homology", "t.graph"]),
        "matrix-entry": ("matrix-syntax", ["mat", "det", "t.mat"]),
        "down-move": ("script-syntax",
                      ["kirby", "run", "chain -3,-1,-3 sign=+", "--script", "t.script"]),
        "chain-framing": ("chain-syntax",
                          ["kirby", "run", "chain -3,TOKEN,-3 sign=+", "--script", "ok.script"]),
        "build-tree": ("graph-syntax", ["ledger", "eval", "build:t.build"]),
        "mono-word": ("word-syntax", ["mono", "3,TOKEN"]),
        "dual-string": ("string-syntax", ["dual", "3,TOKEN"]),
        "family-k": ("family-syntax", ["family", "gen", "k=TOKEN;x=0"]),
        "family-x": ("family-syntax", ["family", "gen", "k=1;x=0,TOKEN"]),
        "parabolic": ("descriptor-syntax", ["ledger", "eval", "--", "-T^TOKEN"]),
        "kappa": ("kappa-syntax",
                  ["obstruct", "attach", "ok.mat", "--kappa", "1,TOKEN", "--framing", "0"]),
    }

    @pytest.mark.parametrize("token", [
        "1.5", "1_0", "\u0663", pytest.param("9" * 5000, marks=_NO_DIGIT_LIMIT),
    ], ids=["non-integer", "underscore", "non-ascii-digit", "past-digit-limit"])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_syntax_code(self, capsys, tmp_path, monkeypatch, fmt, token):
        self.check(capsys, tmp_path, monkeypatch, fmt, token)

    # a whitespace-split format never sees a padded token
    @pytest.mark.parametrize("fmt", ["dual-string", "family-k", "family-x", "kappa",
                                     "mono-word", "parabolic"])
    def test_padded_token(self, capsys, tmp_path, monkeypatch, fmt):
        self.check(capsys, tmp_path, monkeypatch, fmt, " 3")

    def check(self, capsys, tmp_path, monkeypatch, fmt, token):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text.replace("TOKEN", token), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, argv = self.FORMATS[fmt]
        result = invoke(capsys, *(arg.replace("TOKEN", token) for arg in argv))
        assert result[:2] == (1, f"error={code}\n")
        assert "Traceback" not in result[2]


def _child(argv, cwd):
    """Run ``python <argv>`` in a fresh interpreter that finds plumbcalc where
    this test process found it."""
    import os
    import subprocess
    import sys

    import plumbcalc

    env = dict(os.environ, PYTHONPATH=str(Path(plumbcalc.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env
    )


class TestImportSets:
    """A launch imports only the layers its command uses: the exact set of
    ``plumbcalc.*`` modules loaded, in a fresh interpreter, and none of
    ``HEAVY``."""

    LOADED = (
        "print(*sorted(m.partition('.')[2] for m in sys.modules if m.startswith('plumbcalc.')))"
    )
    HEAVY = ("dataclasses", "inspect")
    # run ``python -m plumbcalc <argv>`` in-process, then print its exit
    # code, the loaded ``plumbcalc.*`` modules and the loaded ``HEAVY`` ones
    PROBE = (
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['plumbcalc', *sys.argv[1:]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('plumbcalc', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code)\n" + LOADED + f"\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    )
    BASE = {"cli", "errors"}
    CASES = {
        "--help": (["--help"], BASE),
        "mono": (["mono", "3", "--torsion"], BASE | {"sl2"}),
        "mono square-check": (["mono", "3", "--square-check"], BASE | {"sl2"}),
        "dual": (["dual", "2,2,2"], BASE | {"sl2", "strings"}),
        "family check": (["family", "check", "3,3,3"], BASE | {"sl2", "strings"}),
        "kirby dualize": (["kirby", "dualize", "3,3,3"], BASE | {"sl2", "strings", "kirby"}),
        "obstruct square": (["obstruct", "square", "3"], BASE | {"obstruct"}),
        "mat det": (["mat", "det", "m.mat"], BASE | {"intmat"}),
        "plumb homology": (["plumb", "homology", "seed.graph"], BASE | {"intmat", "plumbing", "sl2"}),
        "ledger eval": (["ledger", "eval", "word:2,2,3"], BASE | {"ledger", "sl2", "strings"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_command(self, tmp_path, case):
        (tmp_path / "m.mat").write_text("2 2\n2 1\n1 2\n")
        (tmp_path / "seed.graph").write_text(SEED_PATH_TEXT)
        argv, layers = self.CASES[case]
        result = _child(["-c", self.PROBE, *argv], tmp_path)
        code, loaded, heavy = result.stdout.split("\n")[:3]
        assert (code, loaded.split(), heavy) == ("0", sorted(layers), "")

    @pytest.mark.parametrize("code, layers", [
        ("import plumbcalc", []),
        ("import plumbcalc; plumbcalc.det", ["errors", "intmat"]),
    ])
    def test_package(self, tmp_path, code, layers):
        result = _child(["-c", f"{code}; import sys; {self.LOADED}"], tmp_path)
        assert result.stdout.split() == layers


class TestEveryCommandRunsCold:
    """Each row of ``COMMANDS`` as its own ``python -m plumbcalc`` process:
    a handler that finds its layer only because another command (or a test)
    imported it first fails here."""

    CASES = {
        "dual": ["2,2,2"],
        "mono": ["3", "--classify", "--torsion", "--square-check"],
        "family gen": ["k=1;x=0,0,0"],
        "family check": ["3,3,3"],
        "plumb form": ["seed.graph"],
        "plumb homology": ["seed.graph"],
        "plumb selfjoin": ["seed.graph", "--v1", "a", "--v2", "d", "--sign", "-"],
        "plumb join": ["seed.graph", "single.graph", "--v1", "d", "--v2", "z"],
        "plumb checkjoin": ["seed.graph", "--v", "b"],
        "kirby run": ["chain -2,-2 sign=+", "--script", "moves.txt"],
        "kirby dualize": ["3,3,3"],
        "obstruct square": ["4"],
        "obstruct attach": ["zero.mat", "--kappa", "2", "--framing", "1"],
        "obstruct mu": ["h.mat"],
        "ledger eval": ["word:2,2,3"],
        "mat det": ["m.mat"],
        "mat snf": ["m.mat"],
        "mat group": ["m.mat"],
        "mat signature": ["h.mat"],
    }

    def test_every_row_has_a_case(self):
        from plumbcalc.cli import COMMANDS

        assert [row[0] for row in COMMANDS] == list(self.CASES)

    @pytest.mark.parametrize("path", list(CASES))
    def test_cold(self, capsys, monkeypatch, tmp_path, path):
        files = {
            "seed.graph": SEED_PATH_TEXT, "single.graph": "vertex z -1\n",
            "moves.txt": "up 0 -1\ndown 1\n", "zero.mat": "1 1\n0\n",
            "h.mat": "2 2\n0 1\n1 0\n", "m.mat": "3 3\n-2 1 -1\n1 -2 1\n-1 1 -2\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [*path.split(), *self.CASES[path]]
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        result = _child(["-m", "plumbcalc", *argv], tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
