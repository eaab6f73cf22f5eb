"""Permutations, verified Cayley tables, named groups, homomorphisms,
and short exact sequences."""

import itertools

import pytest

from cptgroup.groups import (ClosureCapExceeded, FiniteGroup, GroupError,
                             GroupMap, Permutation, ShortExactSequence,
                             conjugation_action, cyclic, dicyclic_8,
                             dicyclic_8_x_z2, dihedral_8, dihedral_8_x_z2,
                             direct_product,
                             extend_generator_images, find_isomorphism,
                             generate_closure, klein_four,
                             minimal_generating_set, permutation_group,
                             quaternion_group, semidirect_product,
                             sign_group, sixteen_e)


# -- permutations -------------------------------------------------------------


def test_permutation_composition_applies_right_factor_first():
    a = Permutation.from_cycles("(1 2 3)", 3)
    b = Permutation.from_cycles("(1 2)", 3)
    # (a * b)(x) = a(b(x)): 1 -b-> 2 -a-> 3
    assert (a * b)(1) == 3
    assert (b * a)(1) == 1


def test_permutation_cycles_and_inverse():
    p = Permutation.from_cycles("(1 2 3 4)(5 6 7 8)", 8)
    assert p.cycle_string() == "(1 2 3 4)(5 6 7 8)"
    assert p == Permutation.from_cycles("(5 6 7 8)(1 2 3 4)", 8)
    assert p.moves_every_point()
    assert not Permutation.from_cycles("(2 4)", 4).moves_every_point()
    assert Permutation.identity(4).cycle_string() == "()"


def test_cycle_set_is_rotation_insensitive():
    assert Permutation.from_cycles("(2 3 4 1)", 4) == \
        Permutation.from_cycles("(1 2 3 4)", 4)
    assert Permutation.from_cycles("(2 1 3)", 3) != \
        Permutation.from_cycles("(1 2 3)", 3)


# -- FiniteGroup construction and validation -----------------------------------


def test_table_validation_rejects_non_groups():
    with pytest.raises(GroupError):
        FiniteGroup([0, 1], lambda a, b: 0)  # not a Latin square
    with pytest.raises(GroupError):
        # subtraction mod 3: a Latin square with no two-sided identity
        FiniteGroup([0, 1, 2], lambda a, b: (a - b) % 3)
    with pytest.raises(GroupError):
        FiniteGroup([0, 1], lambda a, b: a, labels=["e"])  # label mismatch


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        # the integers under addition: infinite, so past any cap
        generate_closure([1], lambda a, b: a + b, 0)


def test_basic_queries_on_cyclic():
    z6 = cyclic(6)
    assert z6.order == 6 and len(z6.center()) == 6
    assert z6.element_order(1) == 6 and z6.element_order(3) == 2
    assert z6.order_profile() == {1: 1, 2: 1, 3: 2, 6: 2}
    assert z6.inv(2) == 4
    assert z6.table[z6.table[1][1]][3] == 5


def test_named_group_orders_and_profiles():
    assert dihedral_8().order_profile() == {1: 1, 2: 5, 4: 2}
    assert dihedral_8_x_z2().order_profile() == {1: 1, 2: 11, 4: 4}
    assert sixteen_e().order_profile() == {1: 1, 2: 7, 4: 8}
    assert dicyclic_8().order_profile() == {1: 1, 2: 1, 4: 6}
    assert dicyclic_8_x_z2().order_profile() == {1: 1, 2: 3, 4: 12}
    assert quaternion_group().order_profile() == {1: 1, 2: 1, 4: 6}
    assert sign_group().order == 2 and klein_four().order == 4


def test_quaternion_is_dicyclic_but_not_dihedral():
    assert find_isomorphism(quaternion_group(), dicyclic_8()) is not None
    assert find_isomorphism(quaternion_group(), dihedral_8()) is None


def brute_force_subgroups(g: FiniteGroup) -> set[frozenset]:
    out = set()
    for size in range(1, g.order + 1):
        if g.order % size:
            continue
        for combo in itertools.combinations(range(g.order), size):
            subset = frozenset(combo)
            if g.is_subgroup(subset):
                out.add(subset)
    return out


@pytest.mark.parametrize("make", [dihedral_8, dicyclic_8, cyclic])
def test_subgroup_enumeration_matches_brute_force(make):
    g = make(8) if make is cyclic else make()
    assert set(g.subgroups()) == brute_force_subgroups(g)


def test_center_quotient_and_normality():
    q = quaternion_group()
    z = q.center()
    assert len(z) == 2 and q.is_normal(z)
    quo = q.quotient(z)
    assert find_isomorphism(quo, klein_four()) is not None
    dh = dihedral_8()
    refl = frozenset({dh.identity, dh.labels.index("(2 4)")})
    assert dh.is_subgroup(refl) and not dh.is_normal(refl)
    with pytest.raises(GroupError):
        dh.quotient(refl)


def test_center_of_an_abelian_group_is_the_whole_group():
    for g in (cyclic(2), cyclic(7), klein_four(),
              direct_product(cyclic(4), cyclic(2))):
        assert g.center() == frozenset(range(g.order))


def test_every_subgroup_of_quaternion_is_normal():
    q = quaternion_group()
    assert all(q.is_normal(h) for h in q.subgroups())


def test_regular_representation_is_faithful_and_regular():
    g = dihedral_8()
    perms = g.regular_representation()
    assert len(set(perms)) == g.order
    for i, p in enumerate(perms):
        if i != g.identity:
            assert all(p(k + 1) != k + 1 for k in range(g.order))
    # it is a homomorphism for left multiplication
    for i in range(g.order):
        for j in range(g.order):
            assert perms[g.table[i][j]] == perms[i] * perms[j]


def test_subgroup_objects():
    g = dihedral_8()
    rot = g.closure_of([g.labels.index("(1 2 3 4)")])
    sub = g.subgroup(rot, name="C4")
    assert sub.order == 4 and len(sub.center()) == 4


def test_semidirect_with_trivial_action_is_direct_product():
    n, h = cyclic(4), cyclic(2)
    trivial = [list(range(4)), list(range(4))]
    semi = semidirect_product(n, h, trivial)
    assert find_isomorphism(semi, permutation_group(
        ("(1 2 3 4)", "(5 6)"), 6)) is not None
    assert find_isomorphism(semi, dihedral_8()) is None


def test_semidirect_inverting_action_gives_dihedral():
    n, h = cyclic(4), cyclic(2)
    invert = [list(range(4)), [0, 3, 2, 1]]
    semi = semidirect_product(n, h, invert)
    assert find_isomorphism(semi, dihedral_8()) is not None


def test_semidirect_rejects_bad_actions():
    n, h = cyclic(4), cyclic(2)
    with pytest.raises(GroupError):
        semidirect_product(n, h, [list(range(4)), [0, 0, 1, 2]])
    with pytest.raises(GroupError):
        semidirect_product(n, h, [list(range(4)), [1, 0, 3, 2]])
    with pytest.raises(GroupError):
        semidirect_product(n, h, [[0, 3, 2, 1], [0, 3, 2, 1]])


def test_conjugation_action_recovers_dihedral():
    dh = dihedral_8()
    rot = sorted(dh.closure_of([dh.labels.index("(1 2 3 4)")]))
    refl = dh.labels.index("(2 4)")
    action = conjugation_action(dh, rot, [dh.identity, refl])
    semi = semidirect_product(dh.subgroup(rot), cyclic(2), action)
    assert find_isomorphism(semi, dh) is not None


# -- GroupMap -----------------------------------------------------------------


def test_groupmap_kernel_image_and_inverse():
    z4, z2 = cyclic(4), cyclic(2)
    proj = GroupMap(z4, z2, [0, 1, 0, 1])
    assert proj.is_homomorphism() and proj.is_surjective()
    assert proj.kernel() == frozenset({0, 2})
    assert not proj.is_injective()
    iso = find_isomorphism(z4, z4)
    inv = iso.inverse_map()
    assert inv.compose(iso).images == list(range(4))
    bad = GroupMap(z4, z2, [0, 1, 1, 0])
    assert not bad.is_homomorphism()


def test_find_isomorphism_is_symmetric_and_verified():
    a, b = sixteen_e(), dihedral_8_x_z2()
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None
    g1 = permutation_group(["(1 2 3 4)", "(2 4)"], 4)
    iso = find_isomorphism(g1, dihedral_8())
    assert iso is not None and iso.is_isomorphism()
    assert iso.inverse_map().compose(iso).images == list(range(g1.order))


def test_minimal_generating_set_and_word_extension():
    g = dihedral_8()
    gens = minimal_generating_set(g)
    assert len(g.closure_of(gens)) == g.order
    images = [gens[0], gens[1]] if len(gens) == 2 else gens
    full = extend_generator_images(g, g, gens, gens)
    assert full == list(range(g.order))
    assert extend_generator_images(g, g, gens, [g.identity] * len(gens)) \
        is None


# -- short exact sequences -------------------------------------------------------


def make_sequence(mid, kernel_labels, quotient):
    kernel_idx = sorted(mid.labels.index(s) for s in kernel_labels)
    kset = frozenset(kernel_idx)
    sub = mid.subgroup(kset)
    incl = GroupMap(sub, mid, kernel_idx)
    quo = mid.quotient(kset)
    proj_images = []
    for m in range(mid.order):
        coset = next(k for k, c in enumerate(quo.elements) if m in c)
        proj_images.append(coset)
    proj = GroupMap(mid, quo, proj_images)
    return ShortExactSequence(sub, mid, quo, incl, proj)


def test_split_sequence_z2_into_dh8xz2():
    mid = dihedral_8_x_z2()
    seq = make_sequence(mid, ["()", "(5 6)"], None)
    assert seq.verify() and not seq.failures()
    sections = seq.sections()
    assert sections and all(s.is_homomorphism() for s in sections)
    assert all(seq.projection.images[m] == q
               for s in sections for q, m in enumerate(s.images))


def test_non_split_sequence_center_of_quaternion():
    q = quaternion_group()
    seq = make_sequence(q, ["1", "-1"], None)
    assert seq.verify()
    assert seq.sections() == []


def test_failures_are_reported():
    z4, z2 = cyclic(4), cyclic(2)
    sub = z4.subgroup([0, 2])
    bad = ShortExactSequence(sub, z4, z2,
                             GroupMap(sub, z4, [0, 2]),
                             GroupMap(z4, z2, [0, 0, 0, 0]))
    assert "projection is not surjective" in bad.failures()
