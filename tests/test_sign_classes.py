"""The sixteen-element groups named by the quadratic form of their signs.

Each group here is a central extension of Z2³ = ⟨C, P, T⟩ by ⟨-1⟩.  Its
six signs define q: F2³ → F2, q(x) = 1 iff x² = -1, whose polar form
q(x + y) + q(x) + q(y) is 1 iff x and y anticommute.  The radical r of
the polar form, whether q vanishes on r, and, where it does, the Arf
invariant of the form q induces on F2³/r name the group up to
isomorphism, and it has 2·#{x ≠ 0 : q(x) = 0} + 1 involutions (the theory
of extraspecial 2-groups: Aschbacher, *Finite Group Theory*, §23).  The
theorem is checked here by machine on all 64 sign choices, with no use of
it in `cptgroup`.
"""

import itertools

import pytest
from conftest import signs_of

from cptgroup.groups import (FiniteGroup, collector, dicyclic_8_x_z2,
                             dihedral_8_x_z2, find_isomorphism, sixteen_e)
from cptgroup.matrix_groups import build_matrix_group
from cptgroup.operator_group import build_operator_group
from cptgroup.solver import canonical_sets

VECTORS = list(itertools.product((0, 1), repeat=3))    # C^a·P^b·T^c
SIGN_CHOICES = [(signs[:3], signs[3:])
                for signs in itertools.product((1, -1), repeat=6)]


def _form(signs) -> dict[tuple, int]:
    """q of C², P², T² and the κ of CP, CT, PT: (CP)² = κ·C²·P², so q is
    the sum of the square terms and the κ terms of each pair in x."""
    squares, kappa = ([int(s < 0) for s in part] for part in signs)
    return {x: (sum(e * s for e, s in zip(x, squares))
                + sum(x[j] * x[k] * s for (j, k), s in zip(
                    itertools.combinations(range(3), 2), kappa))) % 2
            for x in VECTORS}


def _add(x, y):
    return tuple(a ^ b for a, b in zip(x, y))


def name(signs) -> tuple:
    """(dim r, q on r, Arf): the dimension of the radical r of q's polar
    form, 1 where q is not zero on r, and else the Arf invariant of q on
    F2³/r, the value q takes on most of it (None where q(r) ≠ 0)."""
    q = _form(signs)
    radical = [r for r in VECTORS
               if all(q[_add(r, y)] == q[r] ^ q[y] for y in VECTORS)]
    dim = len(radical).bit_length() - 1
    if any(q[r] for r in radical):
        return dim, 1, None
    # q is constant on each coset of r; it is 1 on most of F2³/r iff it is
    # 1 on more than half of F2³
    return dim, 0, int(2 * sum(q.values()) > len(VECTORS))


def involutions(signs) -> int:
    q = _form(signs)
    return 2 * sum(1 for x in VECTORS[1:] if not q[x]) + 1


def _collected(signs) -> FiniteGroup:
    """All sixteen normal forms s·C^a·P^b·T^c under the collector."""
    return FiniteGroup([(s, *x) for s in (1, -1) for x in VECTORS],
                       collector(*signs))


@pytest.fixture(scope="module")
def collected():
    return {signs: _collected(signs) for signs in SIGN_CHOICES}


def test_the_form_is_the_square_sign_of_each_normal_form(collected):
    for signs, group in collected.items():
        q, mul = _form(signs), collector(*signs)
        for x in VECTORS:
            assert mul((1, *x), (1, *x)) == ((-1) ** q[x], 0, 0, 0)
        assert group.order_profile()[2] == involutions(signs)


def test_two_sign_choices_are_isomorphic_iff_their_names_agree(collected):
    # each group is compared with the first group found of every
    # isomorphism type so far: the types must be the names
    types: list[FiniteGroup] = []
    names: dict[int, set] = {}
    for signs, group in collected.items():
        k = next((k for k, rep in enumerate(types)
                  if find_isomorphism(group, rep) is not None), len(types))
        if k == len(types):
            types.append(group)
        names.setdefault(k, set()).add(name(signs))
    assert all(len(v) == 1 for v in names.values())
    assert len({n for v in names.values() for n in v}) == len(types) == 5
    sizes = sorted(sum(name(s) == n for s in SIGN_CHOICES)
                   for (n,) in names.values())
    assert sizes == [1, 7, 7, 21, 28]


def test_each_sixteen_element_group_is_named_by_its_signs():
    # G1 and G2 from their matrices, G_Θ from the field action
    sols = canonical_sets()
    cases = [(build_matrix_group(sols[1]), (1, 0, 0), dihedral_8_x_z2, 11),
             (build_matrix_group(sols[2]), (1, 1, None), sixteen_e, 7),
             (build_operator_group(), (1, 0, 1), dicyclic_8_x_z2, 3)]
    for group, want, named, count in cases:
        signs = signs_of(group)
        assert name(signs) == want
        assert involutions(signs) == group.order_profile()[2] == count
        assert find_isomorphism(group, named()) is not None
