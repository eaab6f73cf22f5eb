"""The sixteen-element group generated by the quantum operators C, P, T.

The paper's relations (67)-(68) present the group by six signs, with -1
central of order 2:

    C*C = 1,  P*P = -1,  T*T = -1,  C*P = P*C,  C*T = T*C,  T*P = -P*T.

So every word in C, P, T and -1 collects to one of sixteen normal forms
s*C^a*P^b*T^c, and `groups.collector` multiplies them; `FiniteGroup`
checks that the collected table is a group.  The printed relations are
then evaluated as words on it, and the group is checked to be isomorphic
to DC8 x Z2 and to Q x S0 but to neither matrix group.  Its embedding in
S10 is the isomorphism onto DC8 x Z2 fixed by C -> z, P -> x, T -> y.

The module also implements the consistency criterion that singles out
one matrix group: compatibility of the one-particle and field pictures
forces TC = C*T at the matrix level, which combined with CT* = TC*
forces T* = T — satisfied by the second solution family only.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Mapping, Sequence

from .groups import (FiniteGroup, GroupError, GroupMap, Permutation,
                     collector, dicyclic_8_x_z2, extend_generator_images)
from .matrix_groups import cpt_group
from .solver import CptSolutionSet

# the six signs of (67)-(68): C², P², T², and κ in XY = κ·YX for
# (X, Y) = (C, P), (C, T), (P, T)
SQUARES = (1, -1, -1)
KAPPA = (1, 1, -1)

BASE_NAMES = ("C", "P", "T", "C*P", "C*T", "P*T", "Θ")


@cache
def build_operator_group() -> FiniteGroup:
    """The order-16 operator group on the normal forms (s, a, b, c) =
    s·C^a·P^b·T^c, in the standard element order, built once per process."""
    c, p, t = (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)
    return cpt_group(c, p, t, collector(SQUARES, KAPPA), (-1, 0, 0, 0),
                     (1, 0, 0, 0), BASE_NAMES)


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
    """Return the variant whose matrices are consistent with the
    operator relations: TC = C*T (entrywise-conjugated C) and T* = T.

    Raises GroupError unless exactly one variant passes.
    """
    passing = [v for v, sol in sorted(solutions.items())
               if sol.T * sol.C == sol.C.conj() * sol.T
               and sol.T.conj() == sol.T]
    if len(passing) != 1:
        raise GroupError(f"selection criterion passed by {passing}")
    return passing[0]
