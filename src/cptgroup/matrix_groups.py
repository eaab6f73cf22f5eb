"""The two sixteen-element matrix groups generated by C, P, T.

Each consistent solution family, with its canonical plus-sign choice,
generates a group {±1, ±C, ±P, ±T, ±CP, ±CT, ±PT, ±θ} of exact matrices
inside the Dirac algebra.  This module builds those groups as labeled
FiniteGroup objects in the standard element order

    1, C, P, T, CP, CT, PT, θ, -C, -P, -T, -CP, -CT, -PT, -θ, -1

(positions 1..16), renders their 7x7 basic multiplication tables, and
produces the regular-representation cycle listings in that labeling.
"""

from __future__ import annotations

from .groups import FiniteGroup, GroupError, Permutation, generate_closure
from .matrices import Mat4
from .solver import CptSolutionSet

BASE_NAMES = ("C", "P", "T", "CP", "CT", "PT", "θ")

# labels in list order; position k holds the element numbered k+1
STANDARD_ORDER_LABELS = (
    "1", "C", "P", "T", "CP", "CT", "PT", "θ",
    "-C", "-P", "-T", "-CP", "-CT", "-PT", "-θ", "-1",
)


def named_products(sol: CptSolutionSet) -> dict[str, Mat4]:
    c, p, t = sol.C, sol.P, sol.T
    pos = {
        "1": Mat4.identity(), "C": c, "P": p, "T": t,
        "CP": c * p, "CT": c * t, "PT": p * t, "θ": sol.theta,
    }
    out = dict(pos)
    for name, m in pos.items():
        out["-" + name if name != "1" else "-1"] = -m
    return out


def build_matrix_group(sol: CptSolutionSet) -> FiniteGroup:
    """The group generated by a solution set, in the standard order.

    Raises GroupError if the sixteen named products are not distinct or
    not closed, or if the closure of {C, P, T} is not exactly this set.
    """
    named = named_products(sol)
    elements = [named[lbl] for lbl in STANDARD_ORDER_LABELS]
    group = FiniteGroup(elements, lambda a, b: a * b,
                        labels=STANDARD_ORDER_LABELS,
                        name=f"G_theta({sol.variant})")
    closure = generate_closure([sol.C, sol.P, sol.T], lambda a, b: a * b,
                               Mat4.identity())
    if set(closure.elements) != set(elements):
        raise GroupError("closure of {C,P,T} differs from the named products")
    return group


def basic_table(group: FiniteGroup,
                base_names: tuple[str, ...] = BASE_NAMES) -> list[list[str]]:
    """The 7x7 table over the non-identity positive labels (the identity
    row and column are implicit): entry = row times column."""
    idx = [group.label_index(n) for n in base_names]
    return [[group.labels[group.table[r][c]] for c in idx] for r in idx]


def render_table(table: list[list[str]],
                 base_names: tuple[str, ...] = BASE_NAMES) -> str:
    width = max(len(x) for row in table for x in row) + 2
    header = " " * width + "".join(n.rjust(width) for n in base_names)
    lines = [header]
    for name, row in zip(base_names, table):
        lines.append(name.rjust(width) + "".join(x.rjust(width) for x in row))
    return "\n".join(lines)


def regular_cycles(group: FiniteGroup) -> list[tuple[str, Permutation]]:
    """(label, permutation) for each element, in list order, under the
    left regular representation on positions 1..16."""
    return list(zip(group.labels, group.regular_representation()))
