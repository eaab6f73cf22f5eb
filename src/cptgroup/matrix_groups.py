"""The sixteen-element groups generated by C, P, T.

Each consistent solution family, with its canonical plus-sign choice,
generates a group {±1, ±C, ±P, ±T, ±CP, ±CT, ±PT, ±θ} of exact matrices
inside the Dirac algebra, and the quantum operators generate one more
(see `cptgroup.operator_group`).  This module builds all three as labeled
FiniteGroup objects in the standard element order

    1, C, P, T, CP, CT, PT, θ, -C, -P, -T, -CP, -CT, -PT, -θ, -1

(positions 1..16) and renders their 7x7 basic multiplication tables.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Callable, Hashable, Sequence

from .groups import FiniteGroup, GroupError
from .matrices import Mat4, monomial_code
from .solver import CptSolutionSet

BASE_NAMES = ("C", "P", "T", "CP", "CT", "PT", "θ")

# list positions of C, P, T, CP, CT, PT, θ in the standard order
_BASE_POSITIONS = range(1, 8)


def cpt_group(c: Hashable, p: Hashable, t: Hashable,
              mul: Callable[[Hashable, Hashable], Hashable],
              minus_one: Hashable, base_names: Sequence[str]) -> FiniteGroup:
    """The group {±1, ±C, ±P, ±T, ±CP, ±CT, ±PT, ±θ} in the standard order,
    with `base_names` naming C, P, T, CP, CT, PT, θ, -e = minus_one·e and
    1 = minus_one².  Its letters C, P, T and "-" name C, P, T and -1.

    Raises GroupError if the sixteen named products are not distinct or
    not closed, or if the closure of {C, P, T} is not exactly this set.
    """
    cp, one = mul(c, p), mul(minus_one, minus_one)
    positive = [one, c, p, t, cp, mul(c, t), mul(p, t), mul(cp, t)]
    elements = positive + [mul(minus_one, e) for e in positive[1:]] \
        + [minus_one]
    labels = ["1", *base_names, *("-" + n for n in base_names), "-1"]
    group = FiniteGroup(elements, mul, labels=labels)
    # the sixteen are closed under the product, since their table exists;
    # C, P, T must also generate all of them
    if len(group.closure_of(_BASE_POSITIONS[:3])) != group.order:
        raise GroupError("closure of {C,P,T} differs from the named products")
    group.letters.update(zip("CPT-", (*_BASE_POSITIONS[:3], group.order - 1)))
    return group


@cache
def build_matrix_group(sol: CptSolutionSet) -> FiniteGroup:
    """The group generated by a solution set, in the standard order, built
    once per process.  C, P and T must be monomial unit matrices, as in
    every Clifford basis, so that each product composes their codes (see
    `Mat4`).  Raises GroupError otherwise."""
    if any(monomial_code(m) is None for m in (sol.C, sol.P, sol.T)):
        raise GroupError("not a monomial unit matrix")
    return cpt_group(sol.C, sol.P, sol.T, mul, -Mat4.identity(), BASE_NAMES)


def base_labels(group: FiniteGroup) -> list[str]:
    """The group's own names for C, P, T, CP, CT, PT, θ."""
    return [group.labels[i] for i in _BASE_POSITIONS]


def basic_table(group: FiniteGroup) -> list[list[str]]:
    """The 7x7 table over the non-identity positive labels (the identity
    row and column are implicit): entry = row times column."""
    return [[group.labels[group.table[r][c]] for c in _BASE_POSITIONS]
            for r in _BASE_POSITIONS]


def render_table(group: FiniteGroup) -> str:
    table, names = basic_table(group), base_labels(group)
    width = max(len(x) for row in table for x in row) + 2
    header = " " * width + "".join(n.rjust(width) for n in names)
    lines = [header]
    for name, row in zip(names, table):
        lines.append(name.rjust(width) + "".join(x.rjust(width) for x in row))
    return "\n".join(lines)
