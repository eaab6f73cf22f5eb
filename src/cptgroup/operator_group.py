"""The sixteen-element group generated by the quantum operators C, P, T.

The operator product A*B is associative and obeys the relations

    P*P = -1,  C*C = 1,  T*T = -1,  T*P = -P*T,
    C*P = P*C,  C*T = T*C,

with -1 central.  Rather than doing word rewriting on this presentation,
the group is realized concretely on pairs (quaternion unit, sign):

    P -> (i, 1),   T -> (j, 1),   C -> (1, -1),

multiplied componentwise.  The realization is checked against every
relation, the closure has order 16, and the group is isomorphic to
DC8 x Z2 (and to Q x S0) but to neither of the two matrix groups.

The module also implements the consistency criterion that singles out
one matrix group: compatibility of the one-particle and field pictures
forces TC = C*T at the matrix level, which combined with CT* = TC*
forces T* = T — satisfied by the second solution family only.
"""

from __future__ import annotations

from functools import cache

from .groups import (DICYCLIC_GENERATORS, FiniteGroup, GroupError,
                     Permutation, _quat_mul)
from .matrix_groups import cpt_group
from .solver import CptSolutionSet

# an element is ((sign, unit), eps): a quaternion unit with sign, and a
# sign from the two-element factor
Operator = tuple[tuple[int, str], int]

IDENTITY: Operator = ((1, "1"), 1)
C_OP: Operator = ((1, "1"), -1)
P_OP: Operator = ((1, "i"), 1)
T_OP: Operator = ((1, "j"), 1)

BASE_NAMES = ("C", "P", "T", "C*P", "C*T", "P*T", "Θ")


def op_mul(a: Operator, b: Operator) -> Operator:
    return (_quat_mul(a[0], b[0]), a[1] * b[1])


def op_neg(a: Operator) -> Operator:
    (s, u), eps = a
    return ((-s, u), eps)


def presentation_checks() -> dict[str, bool]:
    """Each defining relation, evaluated in the realization."""
    m, n = op_mul, op_neg
    minus_one = n(IDENTITY)
    return {
        "P*P = -1": m(P_OP, P_OP) == minus_one,
        "C*C = 1": m(C_OP, C_OP) == IDENTITY,
        "T*T = -1": m(T_OP, T_OP) == minus_one,
        "T*P = -P*T": m(T_OP, P_OP) == n(m(P_OP, T_OP)),
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
    return cpt_group(C_OP, P_OP, T_OP, op_mul, op_neg, IDENTITY, BASE_NAMES)


# -- embeddings into permutation groups ------------------------------------------

# the letters x, y (the dicyclic generators, on 1..8) and z = (9 10)
_S10_LETTERS = {letter: Permutation.from_cycles(g, 10) for letter, g in
                zip("xyz", (*DICYCLIC_GENERATORS, "(9 10)"))}

# signed quaternion unit -> word in the dicyclic generators x, y
_QUAT_TO_DICYCLIC = {
    (1, "1"): "", (1, "i"): "x", (-1, "1"): "xx", (-1, "i"): "xxx",
    (1, "j"): "y", (1, "k"): "xy", (-1, "j"): "xxy", (-1, "k"): "xxxy",
}


def s10_word(word: str) -> Permutation:
    """The permutation in S10 of a word in the letters x, y, z; raises
    KeyError on any other letter."""
    perm = Permutation.identity(10)
    for letter in word:
        perm = perm * _S10_LETTERS[letter]
    return perm


@cache
def to_s10(e: Operator) -> Permutation:
    """Image of an operator in S10: the quaternion part acts on 1..8
    through the dicyclic generators, the sign part through (9 10); built
    once per operator, so its cycle text is kept with it."""
    quat, eps = e
    return s10_word(_QUAT_TO_DICYCLIC[quat] + ("z" if eps == -1 else ""))


def select_matrix_group(solutions: dict[int, CptSolutionSet]) -> int:
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
