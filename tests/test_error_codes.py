"""Every error code raised in ``src/plumbcalc`` is named in a test.

The table holds one row for each code that no other test names: a library
call, or a CLI argv run where one reaches the code.  A contract row patches
the check it guards, so the contract itself fires.
"""

import re
from pathlib import Path

import pytest

import plumbcalc
import plumbcalc.obstruct as obstruct
import plumbcalc.strings as strings
from plumbcalc.cli import main
from plumbcalc.errors import DomainError
from plumbcalc.intmat import AbelianGroupDesc, IntMatrix
from plumbcalc.kirby import ChainState
from plumbcalc.plumbing import PlumbingGraph
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
     (obstruct, "_det_signature", lambda m: (1, 4))),
    ("duplicate-name", ["ledger", "eval", "build:twice.build"], None),
    ("duplicate-vertex", ["plumb", "homology", "dup.graph"], None),
    ("empty-chain", lambda: ChainState(()), None),
    ("matrix-syntax", ["mat", "det", "bad.mat"], None),
    ("missing-vertex", ["plumb", "checkjoin", "seed.graph", "--v", "q"], None),
    ("not-unimodular", lambda: SL2Element(1, 1, 1, 1), None),
    ("unknown-name", ["ledger", "eval", "build:unknown.build"], None),
]


@pytest.mark.parametrize("code, call, patch", ROWS, ids=[row[0] for row in ROWS])
def test_code_is_raised(code, call, patch, tmp_path, monkeypatch, capsys):
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


RAISED = re.compile(r'(?:DomainError|ContractError)\(\s*"([^"]+)"')


def test_every_raised_code_is_named_in_a_test():
    source = Path(plumbcalc.__file__).parent
    raised = {
        code
        for path in source.glob("*.py")
        for code in RAISED.findall(path.read_text(encoding="utf-8"))
    }
    assert len(raised) > 40  # the scan found the codes
    tests = Path(__file__).parent
    named = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(tests.iterdir())
        if path.suffix in (".py", ".json")
    )
    unnamed = [c for c in sorted(raised) if not re.search(rf"(?<![\w-]){c}(?![\w-])", named)]
    assert unnamed == []
