"""Homological obstructions and the bordered-linking-matrix two-handle step.

Attaching a two-handle along a knot class of infinite order in the first
homology borders the linking matrix with the class's linking vector and
drops the free rank of the cokernel by exactly one.  The square-order test
is the necessary condition for bounding; the Rohlin bit comes from the
signature of an even unimodular presentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import plumbcalc as pc

from .errors import ContractError, DomainError, _Value, is_perfect_square

if TYPE_CHECKING:  # obstruct square never loads intmat: the others reach it as pc.intmat
    from .intmat import AbelianGroupDesc, IntMatrix

__all__ = [
    "SurgeryPresentation",
    "KnotClass",
    "ATTACHMENT_PROVENANCE",
    "has_infinite_order",
    "attach_two_handle",
    "square_order_obstruction",
    "rohlin_mu",
]

# What the two-handle step actually certifies.  The computation is purely
# homological: it shows the surgered manifold is a rational homology sphere
# and that it bounds a rational homology ball *provided* the starting
# manifold bounds a rational homology circle; no 4-manifold is constructed.
ATTACHMENT_PROVENANCE = (
    "two-handle-on-infinite-order-class;result-qs3;"
    "bounds-qb4-given-base-bounds-qs1xb3;homology-level"
)


class SurgeryPresentation(_Value):
    """Integer surgery presentation of a 3-manifold by its linking matrix."""

    linking: IntMatrix

    def __init__(self, linking: IntMatrix) -> None:
        if not linking.is_symmetric:
            raise DomainError("non-symmetric", "a linking matrix must be symmetric")
        self.__dict__.update(linking=linking)

    @property
    def homology(self) -> AbelianGroupDesc:
        return pc.intmat.abelian_group_of(self.linking)


class KnotClass(_Value):
    """A knot's homology class: its linking numbers with the surgery
    components, plus the framing of the handle to attach along it."""

    kappa: tuple[int, ...]
    framing: int

    def __init__(self, kappa, framing: int) -> None:
        self.__dict__.update(kappa=tuple(map(int, kappa)), framing=framing)


def has_infinite_order(p: SurgeryPresentation, k: KnotClass) -> bool:
    """True iff the class is nonzero in H_1 tensor Q, i.e. kappa lies outside
    the rational column span of the linking matrix."""
    if len(k.kappa) != p.linking.rows:
        raise DomainError(
            "dimension-mismatch",
            f"class has {len(k.kappa)} linking numbers for a "
            f"{p.linking.rows}-component presentation",
        )
    l = p.linking
    rows = [row + [k.kappa[i]] for i, row in enumerate(l.to_rows())]
    return pc.intmat.rank(pc.intmat.IntMatrix.from_rows(rows)) > pc.intmat.rank(l)


def attach_two_handle(
    p: SurgeryPresentation, k: KnotClass
) -> tuple[SurgeryPresentation, AbelianGroupDesc]:
    """Border the linking matrix by the class (row/column kappa, corner the
    framing).  Requires infinite order; the free rank then drops by exactly
    one, which is checked (``contract-free-rank``)."""
    if not has_infinite_order(p, k):
        raise DomainError(
            "finite-order-class",
            "two-handle attachment needs a class of infinite order",
        )
    rows = p.linking.to_rows()
    bordered = [row + [k.kappa[i]] for i, row in enumerate(rows)]
    bordered.append(list(k.kappa) + [k.framing])
    new_p = SurgeryPresentation(pc.intmat.IntMatrix.from_rows(bordered))
    before = p.homology
    after = new_p.homology
    if after.free_rank != before.free_rank - 1:
        raise ContractError("contract-free-rank", "free rank must drop by exactly 1")
    return new_p, after


def square_order_obstruction(torsion_order: int) -> bool:
    """Necessary condition for bounding: the torsion order must be a perfect
    square.  True means the test passes; it is never a certificate."""
    if torsion_order < 1:
        raise DomainError("bad-torsion-order", "torsion order must be positive")
    return is_perfect_square(torsion_order)


def rohlin_mu(m: IntMatrix) -> int:
    """Rohlin invariant bit from an even unimodular symmetric presentation:
    (signature mod 16) / 8.  Requires every diagonal entry even and
    |det| = 1 (the signature of such a form is divisible by 8)."""
    if any(x % 2 for x in m.diagonal()) and m.is_symmetric:  # else non-symmetric comes first
        raise DomainError("odd-diagonal", "the form must be even (all diagonal entries even)")
    d, sigma = pc.intmat._det_signature(m)  # checks symmetry before it eliminates
    if abs(d) != 1:
        raise DomainError("determinant-not-unit", "the presentation must be unimodular")
    residue = sigma % 16
    if residue not in (0, 8):
        raise ContractError("contract-rohlin", "even unimodular signature must be 0 or 8 mod 16")
    return residue // 8
