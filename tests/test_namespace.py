"""The package namespace is the union of the layers' ``__all__`` lists."""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import plumbcalc
from plumbcalc import errors, intmat, kirby, ledger, obstruct, plumbing, sl2, strings

LAYERS = {
    "errors": errors,
    "intmat": intmat,
    "kirby": kirby,
    "ledger": ledger,
    "obstruct": obstruct,
    "plumbing": plumbing,
    "sl2": sl2,
    "strings": strings,
}

# every name ``plumbcalc`` exported when its re-exports were a hand-kept list,
# with the layer that defines it
HAND_KEPT = {
    "errors": ["DomainError"],
    "intmat": [
        "AbelianGroupDesc", "IntMatrix", "SNFResult", "abelian_group_of", "det",
        "is_perfect_square", "rank", "signature", "snf",
    ],
    "kirby": [
        "ChainState", "DualizeResult", "blow_down", "blow_up", "chain_monodromy",
        "dualize_procedure", "rotate",
    ],
    "ledger": [
        "Construction", "LedgerEntry", "evaluate_descriptor", "evaluate_graph", "evaluate_word",
    ],
    "obstruct": [
        "KnotClass", "SurgeryPresentation", "attach_two_handle", "has_infinite_order",
        "rohlin_mu", "square_order_obstruction",
    ],
    "plumbing": [
        "JoinHypotheses", "PlumbingGraph", "boundary_homology", "check_join_hypotheses",
        "cycle_monodromy", "cycle_plumbing_from_word", "intersection_form", "join",
        "parse_graph", "self_join",
    ],
    "sl2": [
        "BundleType", "MonodromyWord", "SL2Element", "TraceSign", "classify",
        "rotation_equivalent", "square_trace_check", "torsion_order", "word_to_matrix",
    ],
    "strings": [
        "FamilyParams", "cf_value", "dual_string", "family_string", "recognize_family",
        "split_relabel",
    ],
}


def test_hand_kept_names_are_the_same_objects():
    pairs = [(layer, name) for layer, names in HAND_KEPT.items() for name in names]
    assert len(pairs) == 53
    for layer, name in pairs:
        assert getattr(plumbcalc, name) is getattr(LAYERS[layer], name), name


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_public_name_resolves(layer):
    module = LAYERS[layer]
    for name in module.__all__:
        assert getattr(plumbcalc, name) is getattr(module, name), name


def test_star_import_binds_the_union():
    namespace = {}
    exec("from plumbcalc import *", namespace)
    # the package's ``__all__``, resolved lazily, is the union of the
    # layers', so no submodule comes along; the filter only guards that
    bound = {name for name, value in namespace.items() if not isinstance(value, ModuleType)}
    assert bound - {"__builtins__"} == {name for module in LAYERS.values() for name in module.__all__}


def test_no_name_in_two_layers():
    # a star import would let the later layer shadow the earlier one silently
    counts = Counter(name for module in LAYERS.values() for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_version():
    assert plumbcalc.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    listed = set(dir(plumbcalc))
    for module in LAYERS.values():
        assert set(module.__all__) <= listed, module.__name__


def test_unknown_name():
    assert not hasattr(plumbcalc, "no_such_name")
    with pytest.raises(AttributeError, match="module 'plumbcalc' has no attribute 'no_such_name'"):
        plumbcalc.no_such_name


def test_second_lookup_is_the_same_object():
    for name in ("det", "dual_string", "Construction", "DomainError"):
        assert getattr(plumbcalc, name) is getattr(plumbcalc, name)


def _imports_plumbcalc(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.partition(".")[0] == "plumbcalc"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "plumbcalc" for alias in node.names)


def test_no_function_imports_a_layer():
    # a layer is reached lazily through the package namespace
    # (``pc.<layer>.<name>``), never by an import inside a function
    sites = set()
    for path in sorted(Path(plumbcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                sites.update(f"{path.name}:{node.lineno}" for node in ast.walk(function)
                             if _imports_plumbcalc(node))
    assert sorted(sites) == []
