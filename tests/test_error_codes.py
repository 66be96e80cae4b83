"""Every error code raised in ``src/plumbcalc`` is named in a test.

The table holds one row for each code that no other test names: a library
call, or a CLI argv run where one reaches the code.  A contract row patches
the check it guards, so the contract itself fires.  A second table reaches
the raise sites whose code another test already names, but at another site.
"""

import ast
import re
from pathlib import Path

import pytest

import plumbcalc
import plumbcalc.intmat as intmat
import plumbcalc.obstruct as obstruct
import plumbcalc.strings as strings
from plumbcalc.cli import main
from plumbcalc.errors import DomainError
from plumbcalc.intmat import AbelianGroupDesc, IntMatrix
from plumbcalc.kirby import ChainState
from plumbcalc.plumbing import PlumbingGraph, parse_graph, self_join
from plumbcalc.sl2 import MonodromyWord, SL2Element

SEED = "vertex a -1\nvertex b -2\nvertex c -2\nvertex d -1\nedge a b +\nedge b c +\nedge c d +\n"

# the files a CLI row may read, written to its working directory
FILES = {
    "seed.graph": SEED,
    "dup.graph": "vertex a -1\nvertex a -2\n",
    "bad.mat": "2 2\n1 2 3\n",
    "empty.build": "# defines nothing\n",
    "twice.build": "tree X seed.graph\ntree X seed.graph\n",
    "unknown.build": "tree X seed.graph\njoin H X b Y a\n",
    "wide.mat": "2 3\n1 2 3\n4 5 6\n",
    "negative.mat": "-1 2\n",
    "asym.mat": "2 2\n0 1\n2 0\n",
    "weight.graph": "vertex a x\n",
    "c3.graph": "vertex a -3\nvertex b -3\nvertex c -3\nedge a b +\nedge b c +\nedge c a +\n",
    "up.script": "up 0 2\n",
    "down.script": "down x\n",
    "sign.graph": "vertex a -1\nvertex b -2\nedge a b x\n",
    "sign.build": "tree X seed.graph\nselfjoin G X a d x\n",
}

# (code, call, patch): a call is a function raising the code, or a CLI argv
# that must print ``error=<code>`` and exit 1; a patch is (module, name, value)
ROWS = [
    ("bad-edge-sign", lambda: PlumbingGraph((("a", -1), ("b", -2)), (("a", "b", 2),)), None),
    ("bad-family-params", ["family", "gen", "k=1;x=0,0"], None),
    ("bad-group", lambda: AbelianGroupDesc(0, (1,)), None),
    ("bad-shape", lambda: IntMatrix.from_rows([[1, 2], [3]]), None),
    ("bad-sign", lambda: MonodromyWord((3,), 0), None),
    ("bad-string", ["dual", "1,2"], None),
    ("build-empty", ["ledger", "eval", "build:empty.build"], None),
    # a dual that returns its input breaks the split of (3,3,3) into (2,2) | (3)
    ("contract-family-split", lambda: strings.split_relabel((3, 3, 3)),
     (strings, "dual_string", lambda b: b)),
    # an even unimodular form whose signature reads 4
    ("contract-rohlin", lambda: obstruct.rohlin_mu(IntMatrix.from_rows([[0, 1], [1, 0]])),
     (intmat, "_det_signature", lambda m: (1, 4))),
    # a negative modulus: the sweep never ended
    ("contract-smith-modulus", lambda: intmat._smith_mod([[3, 6, 4], [3, -4, 0]], -30), None),
    ("duplicate-name", ["ledger", "eval", "build:twice.build"], None),
    ("duplicate-vertex", ["plumb", "homology", "dup.graph"], None),
    ("empty-chain", lambda: ChainState(()), None),
    ("matrix-syntax", ["mat", "det", "bad.mat"], None),
    ("missing-vertex", ["plumb", "checkjoin", "seed.graph", "--v", "q"], None),
    ("not-unimodular", lambda: SL2Element(1, 1, 1, 1), None),
    ("unknown-name", ["ledger", "eval", "build:unknown.build"], None),
]


# (site, code, call): raise sites that no other test reaches, though their
# codes are named at other sites; a call is as in ROWS
WIDE = IntMatrix(2, 3, (1, 2, 3, 4, 5, 6))
SITES = [
    ("IntMatrix-negative-rows", "bad-shape", lambda: IntMatrix(-1, 0, ())),
    ("IntMatrix-entry-count", "bad-shape", lambda: IntMatrix(2, 2, (1,))),
    ("matmul-inner-dimensions", "bad-shape", lambda: WIDE @ WIDE),
    ("AbelianGroupDesc-free-rank", "bad-group", lambda: AbelianGroupDesc(-1, ())),
    ("signature-non-square", "non-square", ["mat", "signature", "wide.mat"]),
    ("parse_matrix_text-negative-rows", "matrix-syntax", ["mat", "det", "negative.mat"]),
    ("ChainState-eps", "bad-sign", lambda: ChainState((1,), 2)),
    ("blow_up-framing", "framing-not-unit",
     ["kirby", "run", "chain -3,-1,-3 sign=+", "--script", "up.script"]),
    ("parse_chain-no-framings", "chain-syntax", ["kirby", "run", "chain", "--script", "up.script"]),
    ("parse_chain-sign-field", "chain-syntax",
     ["kirby", "run", "chain -3,-1 sign=x", "--script", "up.script"]),
    ("run_script-integer", "script-syntax",
     ["kirby", "run", "chain -3,-1,-3", "--script", "down.script"]),
    ("parabolic-sugar-exponent", "descriptor-syntax", ["ledger", "eval", "--", "-T^x"]),
    ("SurgeryPresentation-symmetric", "non-symmetric",
     ["obstruct", "attach", "asym.mat", "--kappa", "1,0", "--framing", "0"]),
    ("parse_graph-weight", "graph-syntax", ["plumb", "homology", "weight.graph"]),
    ("parse_graph-edge-sign", "graph-syntax", ["plumb", "homology", "sign.graph"]),
    ("parse_construction-selfjoin-sign", "build-syntax", ["ledger", "eval", "build:sign.build"]),
    ("self_join-sign", "bad-sign", lambda: self_join(parse_graph(SEED), "a", "b", 2)),
    ("self_join-tree", "non-tree", ["plumb", "selfjoin", "c3.graph", "--v1", "a", "--v2", "b",
                                    "--sign", "+"]),
    ("check_join_hypotheses-tree", "non-tree", ["plumb", "checkjoin", "c3.graph", "--v", "a"]),
    ("FamilyParams-k", "bad-family-params", ["family", "gen", "k=-1;x="]),
    # the zero modulus, which divided by zero
    ("_smith_mod-zero-modulus", "contract-smith-modulus", lambda: intmat._smith_mod([[2]], 0)),
]


@pytest.mark.parametrize("code, call, patch", ROWS, ids=[row[0] for row in ROWS])
def test_code_is_raised(code, call, patch, tmp_path, monkeypatch, capsys):
    check_raises(code, call, patch, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("code, call", [row[1:] for row in SITES], ids=[row[0] for row in SITES])
def test_site_is_reached(code, call, tmp_path, monkeypatch, capsys):
    check_raises(code, call, None, tmp_path, monkeypatch, capsys)


def check_raises(code, call, patch, tmp_path, monkeypatch, capsys):
    if patch is not None:
        monkeypatch.setattr(*patch)
    if isinstance(call, list):
        for name, text in FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(call) == 1
        assert capsys.readouterr().out == f"error={code}\n"
    else:
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == code


# where the code is among the arguments of each call that raises with it:
# the error types, and the token readers, which raise with the code they get
CODE_ARG = {"DomainError": 0, "ContractError": 0, "_ints": 1, "_parse_list": 1,
            "_keyword_lines": 1}


def _raised_codes(text):
    """The string-literal codes passed to a call in ``CODE_ARG``."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            args = node.args[CODE_ARG[name]:] if name in CODE_ARG else []
            if args and isinstance(args[0], ast.Constant):
                yield args[0].value


def test_every_raised_code_is_named_in_a_test():
    source = Path(plumbcalc.__file__).parent
    raised = {
        code
        for path in source.glob("*.py")
        for code in _raised_codes(path.read_text(encoding="utf-8"))
    }
    # the readers' codes, which a scan of the error types alone misses
    assert {"word-syntax", "string-syntax", "kappa-syntax", "graph-syntax"} <= raised
    assert len(raised) > 40  # the scan found the codes
    tests = Path(__file__).parent
    named = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(tests.iterdir())
        if path.suffix in (".py", ".json")
    )
    unnamed = [c for c in sorted(raised) if not re.search(rf"(?<![\w-]){c}(?![\w-])", named)]
    assert unnamed == []
