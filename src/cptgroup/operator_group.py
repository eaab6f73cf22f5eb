"""The sixteen-element group generated by the quantum operators C, P, T.

An operator X acts on the Dirac field as X ψ X⁻¹ = M·ψ⁽ᵃ⁾, with ψ⁽¹⁾ = ψ*,
and is antiunitary where b = 1: it is the triple (M, a, b).  X·Y acts as
X(Y ψ Y⁻¹)X⁻¹, so `operator_product` gives it as (κ^b_X(M_Y)·κ^a_Y(M_X),
a_X ⊕ a_Y, b_X ⊕ b_Y), κ = `Mat4.conj`.  C = (C·γ0ᵀ, 1, 0), as ψ ↦ C·ψ̄ᵀ,
P = (P, 0, 0), T = (T, 0, 1) and -1 = (-1, 0, 0) generate the group, the
same from either canonical set, so the signs of (67)-(68) are derived,
not stated.  The printed relations are evaluated as words on it, and it
is checked to be isomorphic to DC8 x Z2 and to Q x S0 but to neither
matrix group.  Its embedding in S10 is the isomorphism onto DC8 x Z2
fixed by C -> z, P -> x, T -> y.  `select_matrix_group` singles out one
matrix family by a criterion that the action alone does not give.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Mapping, Sequence

from .groups import (FiniteGroup, GroupError, GroupMap, Permutation,
                     dicyclic_8_x_z2, extend_generator_images)
from .matrices import GammaRep, Mat4, RepTag, get_rep
from .matrix_groups import cpt_group
from .solver import CptSolutionSet, canonical_sets

BASE_NAMES = ("C", "P", "T", "C*P", "C*T", "P*T", "Θ")


def field_operators(sol: CptSolutionSet, rep: GammaRep) -> tuple:
    """C, P, T and -1 of a set in presentation `rep`, each as (M, a, b)."""
    return ((sol.C * rep.gamma[0].transpose(), 1, 0), (sol.P, 0, 0),
            (sol.T, 0, 1), (-Mat4.identity(), 0, 0))


def operator_product(x: tuple, y: tuple) -> tuple:
    (mx, ax, bx), (my, ay, by) = x, y
    return ((my.conj() if bx else my) * (mx.conj() if ay else mx),
            ax ^ ay, bx ^ by)


@cache
def build_operator_group() -> FiniteGroup:
    """The operator group in the standard element order, built once per
    process from the second canonical set."""
    c, p, t, minus_one = field_operators(canonical_sets()[2],
                                         get_rep(RepTag.DIRAC_PAULI))
    return cpt_group(c, p, t, operator_product, minus_one, BASE_NAMES)


def isomorphism_from_cpt(target: FiniteGroup, names: Sequence[str],
                         read: Callable[[str], int]) -> list[int]:
    """The images in `target`, in the operator group's element order, of
    the map fixed by sending C, P, T to the elements that `read` finds for
    `names`.  Raises GroupError unless it is an isomorphism."""
    gt = build_operator_group()
    images = extend_generator_images(gt, target,
                                     [gt.letters[x] for x in "CPT"],
                                     [read(name) for name in names])
    if images is None or not GroupMap(gt, target, images).is_isomorphism():
        raise GroupError(f"C, P, T -> {', '.join(names)} extends to no "
                         "isomorphism")
    return images


@cache
def to_s10() -> tuple[Permutation, ...]:
    """The images in S10 of the operators, in the group's element order:
    the map into DC8 x Z2 fixed by C -> z, P -> x, T -> y, computed once per
    process.  Raises GroupError unless it is an isomorphism."""
    s10 = dicyclic_8_x_z2()
    return tuple(s10.elements[i]
                 for i in isomorphism_from_cpt(s10, "zxy", s10.word))


def select_matrix_group(solutions: Mapping[int, CptSolutionSet]) -> int:
    """The variant whose matrices obey TC = C*T (entrywise-conjugated C)
    and T* = T, the paper's matrix-level reading of the field relations:
    compatibility of the one-particle and field pictures.  Raises
    GroupError unless exactly one variant passes."""
    passing = [v for v, sol in sorted(solutions.items())
               if sol.T * sol.C == sol.C.conj() * sol.T
               and sol.T.conj() == sol.T]
    if len(passing) != 1:
        raise GroupError(f"selection criterion passed by {passing}")
    return passing[0]
