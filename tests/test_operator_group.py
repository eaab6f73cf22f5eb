"""The sixteen-element operator group, collected from its sign relations,
its embeddings, and the criterion that selects one matrix family."""

import pytest

from cptgroup import claims, operator_group, verify
from cptgroup.groups import (GroupError, Permutation, dicyclic_8_x_z2,
                             dihedral_8_x_z2, direct_product,
                             find_isomorphism, quaternion_group, sign_group,
                             sixteen_e)
from cptgroup.operator_group import (build_operator_group,
                                     select_matrix_group, to_s10)
from cptgroup.solver import canonical_sets


@pytest.fixture(scope="module")
def gtheta():
    return build_operator_group()


def test_presentation_relations_all_hold(gtheta):
    # C² = 1, P² = T² = -1, C commutes with P and T, TP = -PT, and -1 is
    # central of order 2
    w = gtheta.word
    assert w("CC") == w("1") and w("PP") == w("TT") == w("-") != w("1")
    assert w("TP") == w("-PT") != w("PT")
    assert w("CP") == w("PC") and w("CT") == w("TC") and w("--") == w("1")
    assert all(w("-" + x) == w(x + "-") for x in "CPT")
    assert all(w(lhs) == w(rhs) for lhs, rhs in claims.RELATIONS_67_68)


def test_named_operators_distinct_and_ordered(gtheta):
    named = dict(zip(gtheta.labels, gtheta.elements))
    assert len(named) == 16 and len(set(named.values())) == 16
    assert gtheta.order == 16
    assert gtheta.labels == ["1", "C", "P", "T", "C*P", "C*T", "P*T", "Θ",
                             "-C", "-P", "-T", "-C*P", "-C*T", "-P*T", "-Θ",
                             "-1"]
    for label, word in (("C*P", "CP"), ("-1", "-"), ("-C*P", "-CP"),
                        ("Θ", "CPT"), ("-P*T", "TP")):
        assert named[label] == gtheta.elements[gtheta.word(word)]


def test_operator_algebra_basics(gtheta):
    # Θ has order 4 here, unlike its order-2 matrix counterpart
    w = gtheta.word
    assert gtheta.element_order(w("CPT")) == 4
    assert w("CPTCPT") == w("-") and w("CPT" * 4) == w("1")


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


# the signs of C², P², T² and of κ in CP = κPC, CT = κTC, PT = κTP that
# the matrices of each canonical family obey
FAMILY_SIGNS = {1: ((1, -1, 1), (-1, 1, 1)), 2: ((-1, -1, -1), (-1, 1, 1))}
GTHETA_CLAIMS = {"relations-67-68", "table-71", "profile-gtheta", "iso-72",
                 "iso-gtheta-qxs0", "chain-73"}


@pytest.mark.parametrize("variant", FAMILY_SIGNS)
def test_a_matrix_family_s_signs_fail_the_operator_group_claims(
        pipeline, monkeypatch, capsys, variant):
    # with the signs of a matrix family, the collected group is that
    # family's group: the claims that tell G_Θ from it fail, and the
    # other claims report as on good data
    _, good = pipeline
    squares, kappa = FAMILY_SIGNS[variant]
    monkeypatch.setattr(operator_group, "SQUARES", squares)
    monkeypatch.setattr(operator_group, "KAPPA", kappa)
    build_operator_group.cache_clear()
    to_s10.cache_clear()
    try:
        _, broken = verify.run_all()
    finally:
        build_operator_group.cache_clear()
        to_s10.cache_clear()
    assert [s.claim_id for s in broken.sections] == \
        [s.claim_id for s in good.sections]
    differ = {b.claim_id for g, b in zip(good.sections, broken.sections)
              if g != b}
    assert differ == GTHETA_CLAIMS | {f"noniso-gtheta-g{variant}"}
    assert all(s.status == "fail" for s in broken.sections
               if s.claim_id in differ)
    # only chain-73 raises: C, P, T extend to no isomorphism onto DC8 x Z2
    assert capsys.readouterr().err.count("Traceback") == 1


def test_wrong_quaternion_pair_fails_the_chain(ctx, monkeypatch):
    # P printed as (j, 1): its image under C, P, T -> (1,-1), (i,1), (j,1)
    # in Q x S0 is (i, 1)
    rows = [(label, word, (1, "j", 1) if label == "P" else pair, s10, s16)
            for label, word, pair, s10, s16 in claims.CHAIN_73]
    monkeypatch.setattr(claims, "CHAIN_73", rows)
    report = verify.VerificationReport()
    verify._check_operator_group(ctx, report)
    chain = next(s for s in report.sections if s.claim_id == "chain-73")
    assert chain.status == "fail"
    assert chain.details == {"diffs": [{"element": "P",
                                        "kind": "quaternion-pair"}]}


def test_selection_criterion_picks_variant_two():
    assert select_matrix_group(canonical_sets()) == 2


def test_selection_criterion_requires_unique_winner():
    sols = canonical_sets()
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[1]})  # variant 1 alone: no winner
    with pytest.raises(GroupError):
        select_matrix_group({1: sols[2], 2: sols[2]})  # two winners
