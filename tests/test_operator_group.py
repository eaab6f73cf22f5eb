"""The sixteen-element operator group, its realization, its embeddings,
and the criterion that selects one matrix family."""

import pytest

from cptgroup import claims, verify
from cptgroup.groups import (GroupError, Permutation, dicyclic_8_x_z2,
                             dihedral_8_x_z2, direct_product,
                             find_isomorphism, quaternion_group, sign_group,
                             sixteen_e)
from cptgroup.operator_group import (C_OP, IDENTITY, MINUS_ONE, P_OP, T_OP,
                                     build_operator_group, op_mul,
                                     presentation_checks, select_matrix_group,
                                     to_s10)
from cptgroup.solver import canonical_sets


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
    assert named["-1"] == MINUS_ONE
    assert named["-C*P"] == op_mul(MINUS_ONE, named["C*P"])


def test_operator_algebra_basics():
    assert MINUS_ONE != IDENTITY
    assert op_mul(MINUS_ONE, MINUS_ONE) == IDENTITY
    assert op_mul(C_OP, C_OP) == IDENTITY
    assert op_mul(P_OP, P_OP) == MINUS_ONE
    assert op_mul(T_OP, T_OP) == MINUS_ONE
    # Θ has order 4 here, unlike its order-2 matrix counterpart
    theta = op_mul(op_mul(C_OP, P_OP), T_OP)
    assert op_mul(theta, theta) == MINUS_ONE


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
    images = to_s10()
    assert len(images) == len(set(images)) == 16
    for i in range(16):
        for j in range(16):
            assert images[gtheta.table[i][j]] == images[i] * images[j]
    assert images[gtheta.identity].is_identity()


def test_s10_images_match_printed_chain(gtheta):
    printed = {row[0]: row[3] for row in claims.CHAIN_73}
    for label, image in zip(gtheta.labels, to_s10(), strict=True):
        assert image == Permutation.from_cycles(printed[label], 10)
    assert to_s10() is to_s10()    # computed once per process


@pytest.fixture
def c_sent_to_x(monkeypatch):
    # C -> x: x has order 4 and C order 2, so no homomorphism sends C there
    letters = dicyclic_8_x_z2().letters
    monkeypatch.setitem(letters, "z", letters["x"])
    to_s10.cache_clear()
    yield
    to_s10.cache_clear()


def test_wrong_generator_image_fails_the_s10_map(c_sent_to_x):
    with pytest.raises(GroupError):
        to_s10()


def test_wrong_generator_image_fails_only_the_chain(pipeline, c_sent_to_x,
                                                    capsys):
    # chain-73 reads the map, so it fails with the error; the other 72
    # claims report as on good data
    _, good = pipeline
    _, broken = verify.run_all()
    assert [s.claim_id for s in broken.sections] == \
        [s.claim_id for s in good.sections]
    differ = [b for g, b in zip(good.sections, broken.sections) if g != b]
    assert [(s.claim_id, s.status) for s in differ] == [("chain-73", "fail")]
    assert differ[0].details == {"error": "GroupError: C, P, T -> z, x, y "
                                          "extends to no isomorphism"}
    assert capsys.readouterr().err.count("Traceback") == 1


def test_selection_criterion_picks_variant_two():
    assert select_matrix_group(canonical_sets()) == 2


def test_selection_criterion_requires_unique_winner():
    sols = canonical_sets()
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[1]})  # variant 1 alone: no winner
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[2], 2: sols[2]})  # two winners
