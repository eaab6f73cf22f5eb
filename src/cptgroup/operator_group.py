"""The sixteen-element group generated by the quantum operators C, P, T.

The operator product A*B is associative and obeys the relations

    P*P = -1,  C*C = 1,  T*T = -1,  T*P = -P*T,
    C*P = P*C,  C*T = T*C,

with -1 central.  Rather than doing word rewriting on this presentation,
the group is realized concretely on pairs (quaternion unit, sign):

    P -> (i, 1),   T -> (j, 1),   C -> (1, -1),

multiplied componentwise.  The realization is checked against every
relation, the closure has order 16, and the group is isomorphic to
DC8 x Z2 (and to Q x S0) but to neither of the two matrix groups.  Its
embedding in S10 is the isomorphism onto DC8 x Z2 fixed by C -> z, P -> x,
T -> y.

The module also implements the consistency criterion that singles out
one matrix group: compatibility of the one-particle and field pictures
forces TC = C*T at the matrix level, which combined with CT* = TC*
forces T* = T — satisfied by the second solution family only.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping

from .groups import (FiniteGroup, GroupError, GroupMap, Permutation,
                     _quat_mul, dicyclic_8_x_z2, extend_generator_images)
from .matrix_groups import cpt_group
from .solver import CptSolutionSet

# an element is ((sign, unit), eps): a quaternion unit with sign, and a
# sign from the two-element factor
Operator = tuple[tuple[int, str], int]

IDENTITY: Operator = ((1, "1"), 1)
C_OP: Operator = ((1, "1"), -1)
P_OP: Operator = ((1, "i"), 1)
T_OP: Operator = ((1, "j"), 1)
MINUS_ONE: Operator = ((-1, "1"), 1)

BASE_NAMES = ("C", "P", "T", "C*P", "C*T", "P*T", "Θ")


def op_mul(a: Operator, b: Operator) -> Operator:
    return (_quat_mul(a[0], b[0]), a[1] * b[1])


def presentation_checks() -> dict[str, bool]:
    """Each defining relation, evaluated in the realization."""
    m, minus_one = op_mul, MINUS_ONE
    return {
        "P*P = -1": m(P_OP, P_OP) == minus_one,
        "C*C = 1": m(C_OP, C_OP) == IDENTITY,
        "T*T = -1": m(T_OP, T_OP) == minus_one,
        "T*P = -P*T": m(T_OP, P_OP) == m(minus_one, m(P_OP, T_OP)),
        "C*P = P*C": m(C_OP, P_OP) == m(P_OP, C_OP),
        "C*T = T*C": m(C_OP, T_OP) == m(T_OP, C_OP),
        "(-1)*(-1) = 1": m(minus_one, minus_one) == IDENTITY,
        # commuting with the generators makes -1 central
        "-1 central": all(m(minus_one, g) == m(g, minus_one)
                          for g in (C_OP, P_OP, T_OP)),
    }


@cache
def build_operator_group() -> FiniteGroup:
    """The order-16 operator group in the standard element order, built
    once per process."""
    failed = [rel for rel, ok in presentation_checks().items() if not ok]
    if failed:
        raise GroupError(f"realization violates relations: {failed}")
    return cpt_group(C_OP, P_OP, T_OP, op_mul, MINUS_ONE, IDENTITY,
                     BASE_NAMES)


@cache
def to_s10() -> tuple[Permutation, ...]:
    """The images in S10 of the operators, in the group's element order:
    the map into DC8 x Z2 fixed by C -> z, P -> x, T -> y, computed once per
    process.  Raises GroupError unless it is an isomorphism."""
    gt, s10 = build_operator_group(), dicyclic_8_x_z2()
    images = extend_generator_images(
        gt, s10, [gt.labels.index(name) for name in "CPT"],
        [s10.word(letter) for letter in "zxy"])
    if images is None or not GroupMap(gt, s10, images).is_isomorphism():
        raise GroupError("C, P, T -> z, x, y extends to no isomorphism")
    return tuple(s10.elements[i] for i in images)


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
