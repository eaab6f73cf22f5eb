"""An independent group-theory oracle: sympy's permutation groups, built
from the printed regular representations alone.

G1, G2 and G_Θ are read from the cycle listings of (45), (46) and the S16
column of (73), parsed here, with nothing from `cptgroup.groups`.  Their
orders, centres, derived subgroups, abelianizations and involution
counts are the printed-data reasons behind `noniso-g1-g2` and
`noniso-gtheta-g1/-g2`: three groups of order 16 with G/G' = Z2^3 and
|G'| = 2, told apart by their 11, 7 and 3 involutions.
"""

import re

import pytest

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from cptgroup import claims  # noqa: E402


def _perm(text: str) -> Permutation:
    """The permutation of 1..16 printed as disjoint cycles "(1 2)(3 5)"."""
    cycles = [[int(p) - 1 for p in c.split()]
              for c in re.findall(r"\(([^()]*)\)", text)]
    return Permutation([c for c in cycles if c], size=16)


LISTINGS = {"g1": list(claims.CYCLES_45.values()),
            "g2": list(claims.CYCLES_46.values()),
            "gtheta": [row[-1] for row in claims.CHAIN_73]}
INVOLUTIONS = {"g1": 11, "g2": 7, "gtheta": 3}


@pytest.mark.parametrize("name", list(LISTINGS))
def test_printed_listing_is_a_group_of_order_sixteen(name):
    perms = [_perm(text) for text in LISTINGS[name]]
    group = PermutationGroup(perms)
    assert len(perms) == len(set(perms)) == group.order() == 16
    assert group.center().order() == 4
    assert group.derived_subgroup().order() == 2
    assert group.abelian_invariants() == [2, 2, 2]
    assert sum(p.order() == 2 for p in perms) == INVOLUTIONS[name]
