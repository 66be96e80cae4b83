"""plumbcalc: exact calculus for plumbed 3-manifolds and torus bundles.

Exact integer linear algebra (determinants, Smith normal form, signatures),
SL(2,Z) monodromy words, dual-string combinatorics, plumbing-graph homology
with join/self-join constructions and a certification ledger, blowup/blowdown
rewriting of framed chains, and homological obstructions.

The package namespace is the union of the layers' ``__all__`` lists.
"""

from .errors import *
from .intmat import *
from .kirby import *
from .ledger import *
from .obstruct import *
from .plumbing import *
from .sl2 import *
from .strings import *

__version__ = "0.1.0"
