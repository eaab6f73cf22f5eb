"""The two sixteen-element matrix groups and their printed artifacts."""

import pytest

from cptgroup import claims
from cptgroup.groups import GroupError, Permutation, find_isomorphism
from cptgroup.matrix_groups import (BASE_NAMES, basic_table,
                                    build_matrix_group, cpt_group,
                                    render_table)
from cptgroup.solver import CptSolutionSet, canonical_sets


@pytest.fixture(scope="module")
def groups():
    sols = canonical_sets()
    return {v: build_matrix_group(sols[v]) for v in (1, 2)}


def test_element_order_and_labels(groups):
    for g in groups.values():
        assert g.order == 16
        assert g.labels == ["1", "C", "P", "T", "CP", "CT", "PT", "θ",
                            "-C", "-P", "-T", "-CP", "-CT", "-PT", "-θ",
                            "-1"]
        assert g.identity == 0
        assert g.labels[15] == "-1"


def test_named_products_are_distinct(groups):
    for sol, g in zip(canonical_sets().values(), groups.values()):
        named = dict(zip(g.labels, g.elements))
        assert len(set(named.values())) == 16
        assert named["θ"] == sol.C * sol.P * sol.T
        assert named["-CT"] == -(sol.C * sol.T)


def test_tables_match_printed_tables(groups):
    assert basic_table(groups[1]) == [list(r) for r in claims.TABLE_43]
    assert basic_table(groups[2]) == [list(r) for r in claims.TABLE_44]


def test_tables_differ_between_variants(groups):
    assert basic_table(groups[1]) != basic_table(groups[2])


def test_order_profiles(groups):
    assert groups[1].order_profile() == {1: 1, 2: 11, 4: 4}
    assert groups[2].order_profile() == {1: 1, 2: 7, 4: 8}


def test_regular_cycles_match_printed_listings(groups):
    for variant, printed in ((1, claims.CYCLES_45), (2, claims.CYCLES_46)):
        g = groups[variant]
        for label, perm in zip(g.labels, g.regular_representation()):
            assert perm == Permutation.from_cycles(printed[label], 16)


def test_regular_representation_permutes_all_positions(groups):
    for g in groups.values():
        for label, perm in zip(g.labels, g.regular_representation()):
            if label != "1":
                assert perm.moves_every_point()


def test_group_isomorphism_types(groups):
    from cptgroup.groups import dihedral_8_x_z2, sixteen_e
    assert find_isomorphism(groups[1], dihedral_8_x_z2()) is not None
    assert find_isomorphism(groups[2], sixteen_e()) is not None
    assert find_isomorphism(groups[1], groups[2]) is None


def test_build_rejects_degenerate_input():
    from cptgroup.matrices import Mat4
    ident = Mat4.identity()
    degenerate = CptSolutionSet(1, C=ident, P=ident, T=ident)
    with pytest.raises(GroupError):
        build_matrix_group(degenerate)


def test_cpt_group_requires_c_p_t_to_generate_all_sixteen():
    # Z2^4 with -x = x + e: sixteen distinct elements closed under the
    # product, of which C, P, T generate only eight
    def add(a, b):
        return tuple((x + y) % 2 for x, y in zip(a, b))

    with pytest.raises(GroupError, match="closure"):
        cpt_group((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), add,
                  lambda a: add(a, (0, 0, 0, 1)), (0, 0, 0, 0), BASE_NAMES,
                  "Z2^4")


def test_render_table_layout(groups):
    text = render_table(groups[1])
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0].split() == list(BASE_NAMES)
    assert lines[1].split()[0] == "C"
    # row C, column T is CT in both variants
    for g in groups.values():
        row_c = basic_table(g)[0]
        assert row_c[BASE_NAMES.index("T")] == "CT"
