"""The sixteen-element operator group, its realization, its embeddings,
and the criterion that selects one matrix family."""

import pytest

from cptgroup import claims
from cptgroup.groups import (GroupError, Permutation, dicyclic_8_x_z2,
                             dihedral_8_x_z2, direct_product,
                             find_isomorphism, quaternion_group, sign_group,
                             sixteen_e)
from cptgroup.operator_group import (C_OP, IDENTITY, P_OP, T_OP,
                                     build_operator_group, op_mul, op_neg,
                                     presentation_checks, select_matrix_group,
                                     to_s10)
from cptgroup.solver import CptSolutionSet, canonical_sets


@pytest.fixture(scope="module")
def gtheta():
    return build_operator_group()


def test_presentation_relations_all_hold():
    checks = presentation_checks()
    assert checks and all(checks.values()), \
        [k for k, v in checks.items() if not v]


def test_named_operators_distinct_and_ordered(gtheta):
    named = dict(zip(gtheta.labels, gtheta.elements))
    assert len(named) == 16 and len(set(named.values())) == 16
    assert gtheta.order == 16
    assert gtheta.labels == ["1", "C", "P", "T", "C*P", "C*T", "P*T", "Θ",
                             "-C", "-P", "-T", "-C*P", "-C*T", "-P*T", "-Θ",
                             "-1"]
    assert named["C*P"] == op_mul(C_OP, P_OP)
    assert named["-1"] == op_neg(IDENTITY)


def test_operator_algebra_basics():
    minus_one = op_neg(IDENTITY)
    assert op_mul(C_OP, C_OP) == IDENTITY
    assert op_mul(P_OP, P_OP) == minus_one
    assert op_mul(T_OP, T_OP) == minus_one
    # Θ has order 4 here, unlike its order-2 matrix counterpart
    theta = op_mul(op_mul(C_OP, P_OP), T_OP)
    assert op_mul(theta, theta) == minus_one


def test_table_matches_printed_table(gtheta):
    from cptgroup.matrix_groups import basic_table
    assert basic_table(gtheta) == \
        [list(r) for r in claims.TABLE_71]


def test_order_profile_and_order2_elements(gtheta):
    assert gtheta.order_profile() == {1: 1, 2: 3, 4: 12}
    order2 = {gtheta.labels[i] for i in range(16)
              if gtheta.element_order(i) == 2}
    assert order2 == {"C", "-C", "-1"}


def test_isomorphism_types(gtheta):
    assert find_isomorphism(gtheta, dicyclic_8_x_z2()) is not None
    qxs0 = direct_product(quaternion_group(), sign_group())
    assert find_isomorphism(gtheta, qxs0) is not None
    assert find_isomorphism(gtheta, dihedral_8_x_z2()) is None
    assert find_isomorphism(gtheta, sixteen_e()) is None


def test_s10_embedding_is_a_faithful_homomorphism(gtheta):
    images = [to_s10(e) for e in gtheta.elements]
    assert len(set(images)) == 16
    for i in range(16):
        for j in range(16):
            assert images[gtheta.table[i][j]] == images[i] * images[j]
    assert images[gtheta.identity].is_identity()


def test_s10_images_match_printed_chain(gtheta):
    printed = {row[0]: row[3] for row in claims.CHAIN_73}
    for label, image in zip(gtheta.labels, map(to_s10, gtheta.elements)):
        assert image == Permutation.from_cycles(printed[label], 10)


def test_selection_criterion_picks_variant_two():
    assert select_matrix_group(canonical_sets()) == 2


def test_selection_criterion_requires_unique_winner():
    sols = canonical_sets()
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[1]})  # variant 1 alone: no winner
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[2], 2: sols[2]})  # two winners
