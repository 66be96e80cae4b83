"""plumbcalc: exact calculus for plumbed 3-manifolds and torus bundles.

Exact integer linear algebra (determinants, Smith normal form, signatures),
SL(2,Z) monodromy words, dual-string combinatorics, plumbing-graph homology
with join/self-join constructions and a certification ledger, blowup/blowdown
rewriting of framed chains, and homological obstructions.

The package namespace is the union of the layers' ``__all__`` lists, resolved
lazily (PEP 562): a public name is looked up in each layer's ``__all__`` in
the order of ``_LAYERS``, and a layer is imported only when the lookup
reaches it.  A layer's own name (``cli`` included) resolves to that module.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAYERS = ("errors", "intmat", "sl2", "strings", "plumbing", "kirby", "obstruct", "ledger")


def __getattr__(name):
    if name in _LAYERS or name == "cli":
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [public for layer in _LAYERS for public in __getattr__(layer).__all__]
    for layer in _LAYERS:
        module = __getattr__(layer)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, "cli", *__getattr__("__all__")})
