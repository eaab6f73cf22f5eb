"""The sixteen-element operator group, built from the C, P, T matrices'
action on the field, its embeddings, and the criterion that selects one
matrix family."""

import pytest
from conftest import signs_of

from cptgroup import claims, operator_group, verify
from cptgroup.groups import (GroupError, Permutation, dicyclic_8_x_z2,
                             dihedral_8_x_z2, direct_product,
                             find_isomorphism, quaternion_group, sign_group,
                             sixteen_e)
from cptgroup.matrices import Mat4, RepTag, get_rep
from cptgroup.matrix_groups import build_matrix_group, cpt_group
from cptgroup.operator_group import (BASE_NAMES, build_operator_group,
                                     field_operators, operator_product,
                                     select_matrix_group, to_s10)
from cptgroup.solver import canonical_sets, enumerate_consistent_sets

# the signs of C², P², T² and of κ in CP = κPC, CT = κTC, PT = κTP that
# relations (67)-(68) state
GTHETA_SIGNS = ((1, -1, -1), (1, 1, -1))


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


def _action_group(operators):
    """The group that C, P, T and -1, each an operator (M, a, b), generate
    under the field action's product."""
    c, p, t, minus_one = operators
    return cpt_group(c, p, t, operator_product, minus_one, BASE_NAMES)


def test_either_canonical_set_gives_the_same_operator_group(gtheta):
    # the field action alone does not select a variant: both canonical
    # sets give G_Θ, table and labels, and only the matrix-level criterion
    # picks the second
    dp = get_rep(RepTag.DIRAC_PAULI)
    for sol in canonical_sets().values():
        group = _action_group(field_operators(sol, dp))
        assert group.table == gtheta.table and group.labels == gtheta.labels
    assert signs_of(gtheta) == GTHETA_SIGNS


def test_the_action_is_covariant_in_every_presentation(clifford_reps):
    # M_C = C·γ0ᵀ with each presentation's own γ0: every consistent set of
    # the named presentations and of 20 seeded Clifford bases gives the
    # signs of (67)-(68), and its C, P, T generate sixteen operators
    for rep in (*map(get_rep, RepTag), *clifford_reps):
        sets = enumerate_consistent_sets(rep)
        assert len(sets) == 16
        for sol in sets:
            group = _action_group(field_operators(sol, rep))
            assert group.order == 16 and signs_of(group) == GTHETA_SIGNS


def _unitary(variant):
    """A matrix family's C, P, T and -1 acting as unitaries, ψ ↦ M·ψ, with
    no conjugation: the action then gives that family's group."""
    fam = canonical_sets()[variant]
    return lambda sol, rep: tuple((m, 0, 0) for m in (
        fam.C, fam.P, fam.T, -Mat4.identity()))


def _no_gamma0(sol, rep):
    """The field operators with M_C = C, missing the γ0ᵀ of ψ̄ᵀ."""
    return ((sol.C, 1, 0), *field_operators(sol, rep)[1:])


def test_a_unitary_action_gives_the_family_s_group():
    for variant, sol in canonical_sets().items():
        assert _action_group(_unitary(variant)(sol, None)).table == \
            build_matrix_group(sol).table


GTHETA_CLAIMS = {"relations-67-68", "table-71", "profile-gtheta", "iso-72",
                 "iso-gtheta-qxs0", "chain-73"}


def _claims_that_fail(pipeline, monkeypatch, capsys, operators, signs):
    """The claims that differ from a good run where `field_operators` is
    `operators`, which must give `signs`.  Each of them must fail, the
    others must report as on good data, and only chain-73 may raise: C,
    P, T then extend to no isomorphism onto DC8 x Z2."""
    _, good = pipeline
    monkeypatch.setattr(operator_group, "field_operators", operators)
    build_operator_group.cache_clear()
    to_s10.cache_clear()
    try:
        assert signs_of(build_operator_group()) == signs
        _, broken = verify.run_all()
    finally:
        build_operator_group.cache_clear()
        to_s10.cache_clear()
    assert [s.claim_id for s in broken.sections] == \
        [s.claim_id for s in good.sections]
    differ = {b.claim_id for g, b in zip(good.sections, broken.sections)
              if g != b}
    assert all(s.status == "fail" for s in broken.sections
               if s.claim_id in differ)
    assert capsys.readouterr().err.count("Traceback") == 1
    return differ


# the signs of C², P², T² and of κ in CP = κPC, CT = κTC, PT = κTP that
# the matrices of each canonical family obey
FAMILY_SIGNS = {1: ((1, -1, 1), (-1, 1, 1)), 2: ((-1, -1, -1), (-1, 1, 1))}


@pytest.mark.parametrize("variant", FAMILY_SIGNS)
def test_a_matrix_family_s_signs_fail_the_operator_group_claims(
        pipeline, monkeypatch, capsys, variant):
    # with the family's matrices acting as unitaries, the action builds
    # that family's group: the claims that tell G_Θ from it fail
    assert _claims_that_fail(pipeline, monkeypatch, capsys,
                             _unitary(variant), FAMILY_SIGNS[variant]) == \
        GTHETA_CLAIMS | {f"noniso-gtheta-g{variant}"}


def test_c_without_gamma0_fails_the_operator_group_claims(
        pipeline, monkeypatch, capsys):
    # M_C = C drops the γ0ᵀ of ψ̄ᵀ: then C² = -1, and the group is of
    # G2's type, 16E
    assert _claims_that_fail(pipeline, monkeypatch, capsys, _no_gamma0,
                             ((-1, -1, -1), (1, 1, -1))) == \
        GTHETA_CLAIMS | {"noniso-gtheta-g2"}


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
