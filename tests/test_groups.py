"""Permutations, verified Cayley tables, named groups, homomorphisms,
and short exact sequences."""

import itertools
import random

import pytest

from cptgroup import groups
from cptgroup.groups import (ClosureCapExceeded, FiniteGroup, GroupError,
                             GroupMap, Permutation, ShortExactSequence,
                             cyclic, dicyclic_8, dicyclic_8_x_z2, dihedral_8,
                             dihedral_8_x_z2, direct_product,
                             extend_generator_images, find_isomorphism,
                             generate_closure, klein_four,
                             permutation_group,
                             quaternion_group, semidirect_product,
                             quaternion_x_sign, sign_group, sixteen_e)
from cptgroup.verify import Context, run_all


# -- permutations -------------------------------------------------------------


def test_permutation_composition_applies_right_factor_first():
    a = Permutation.from_cycles("(1 2 3)", 3)
    b = Permutation.from_cycles("(1 2)", 3)
    # (a * b)(x) = a(b(x)): 1 -b-> 2 -a-> 3, 2 -> 1 -> 2, 3 -> 3 -> 1
    assert a * b == Permutation.from_cycles("(1 3)", 3)
    assert b * a == Permutation.from_cycles("(2 3)", 3)


def test_permutation_cycles_and_inverse():
    p = Permutation.from_cycles("(1 2 3 4)(5 6 7 8)", 8)
    assert p.cycle_string() == "(1 2 3 4)(5 6 7 8)"
    assert p == Permutation.from_cycles("(5 6 7 8)(1 2 3 4)", 8)
    assert p.moves_every_point()
    assert not Permutation.from_cycles("(2 4)", 4).moves_every_point()
    assert Permutation.identity(4).cycle_string() == "()"


@pytest.mark.parametrize("text", ["(1 2)(1 2)", "(1 1)", "(1 2", "1 2",
                                  "(1 2)x", "x(1 2)", "(1 2)(3", "(0 1)",
                                  "(1 5)", "(1 -2)", ""])
def test_malformed_cycle_listing_raises(text):
    with pytest.raises(ValueError):
        Permutation.from_cycles(text, 4)


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
    with pytest.raises(GroupError, match=r"Latin square \(col\)"):
        # every row is 0, 1, every column constant
        FiniteGroup([0, 1], lambda a, b: b)


# the smallest loop that is not a group: a Latin square with identity 0 in
# which every element squares to 0, as no group of order 5 allows
LOOP_5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
          (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_latin_loop_with_identity_fails_associativity():
    with pytest.raises(GroupError, match="product is not associative"):
        FiniteGroup(range(5), lambda a, b: LOOP_5[a][b])


def _reference_closure(g: FiniteGroup, seed) -> frozenset[int]:
    """Breadth-first closure of the seed, multiplied on either side."""
    found, frontier = {g.identity}, [g.identity]
    while frontier:
        new = {p for a in frontier for b in seed
               for p in (g.table[a][b], g.table[b][a])} - found
        found |= new
        frontier = list(new)
    return frozenset(found)


def _reference_generators(g: FiniteGroup) -> tuple[int, ...]:
    """The first combination, by size, of the elements in order of falling
    element order, whose two-sided closure is the group."""
    candidates = sorted(range(g.order), key=lambda i: -g.element_order(i))
    for size in range(g.order + 1):
        for combo in itertools.combinations(candidates, size):
            if len(_reference_closure(g, combo)) == g.order:
                return combo


def test_closures_and_generators_match_the_brute_force_search(monkeypatch):
    # every group a run builds, the shared ones it reuses, Z2^4 and the
    # trivial group; closures of every element and every pair
    built, init = [], FiniteGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    run_all()
    monkeypatch.undo()
    assert built    # its quotients and subgroups are built on every run
    z2 = cyclic(2)
    built += [make() for make in SHARED_GROUPS.values()]
    built += [cyclic(1),
              direct_product(direct_product(z2, z2), direct_product(z2, z2))]
    for g in {id(g): g for g in built}.values():
        assert g.generators == _reference_generators(g)
        for size in range(3):
            for seed in itertools.combinations(range(g.order), size):
                assert g.closure_of(seed) == _reference_closure(g, seed)


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


def _cyclic_subgroups_decide_normality(g: FiniteGroup) -> bool:
    """Whether the cyclic subgroups are subgroups whose unions give every
    subgroup, and are all normal exactly when every subgroup is."""
    subgroups = brute_force_subgroups(g)
    cyclic_subgroups = {g.closure_of({x}) for x in range(g.order)}
    return (cyclic_subgroups <= subgroups
            and all(h == frozenset().union(*(c for c in cyclic_subgroups
                                             if c <= h)) for h in subgroups)
            and all(map(g.is_normal, cyclic_subgroups))
            == all(map(g.is_normal, subgroups)))


@pytest.mark.parametrize("make", [dihedral_8, dicyclic_8, quaternion_group,
                                  cyclic])
def test_subgroup_enumeration_matches_brute_force(make):
    # `hamiltonian-dc8` reads normality off the cyclic subgroups alone
    for g in [make(8), make(6)] if make is cyclic else [make()]:
        assert _cyclic_subgroups_decide_normality(g)


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
    assert all(q.is_normal(h) for h in brute_force_subgroups(q))


def test_regular_representation_is_faithful_and_regular():
    g = dihedral_8()
    perms = g.regular_representation()
    assert len(set(perms)) == g.order
    for i, p in enumerate(perms):
        if i != g.identity:
            assert all(p.images[k] != k for k in range(g.order))
    # it is a homomorphism for left multiplication
    for i in range(g.order):
        for j in range(g.order):
            assert perms[g.table[i][j]] == perms[i] * perms[j]


def test_subgroup_objects():
    g = dihedral_8()
    rot = g.closure_of([g.labels.index("(1 2 3 4)")])
    sub = g.subgroup(rot)
    assert sub.order == 4 and len(sub.center()) == 4


def test_semidirect_with_trivial_action_is_direct_product():
    # the central z of DH8 x Z2 fixes the rotations: Z4 x Z2, not DH8
    g = dihedral_8_x_z2()
    semi = semidirect_product(g, g.closure_of({g.word("d")}),
                              g.closure_of({g.word("z")}))
    assert find_isomorphism(semi, direct_product(cyclic(4), cyclic(2))) \
        is not None
    assert find_isomorphism(semi, dihedral_8()) is None


def test_semidirect_inverting_action_gives_dihedral():
    # DH8 rebuilt from its rotations and a reflection, which inverts them
    g = dihedral_8()
    rot, refl = g.closure_of({g.word("d")}), g.closure_of({g.word("n")})
    semi = semidirect_product(g, rot, refl)
    assert semi.elements == [(r, h) for r in sorted(rot)
                             for h in sorted(refl)]
    assert all(semi.index[r, h] == k for k, (r, h) in enumerate(semi.elements))
    assert find_isomorphism(semi, g) is not None


def test_semidirect_rejects_bad_actions():
    # ⟨(1 2 3 4)⟩ does not normalize ⟨(2 4)⟩, and {1, d} is not closed: a
    # product of pairs leaves the pairs
    g = dihedral_8()
    d, n = g.word("d"), g.word("n")
    with pytest.raises(GroupError, match="not closed"):
        semidirect_product(g, g.closure_of({n}), g.closure_of({d}))
    with pytest.raises(GroupError, match="not closed"):
        semidirect_product(g, g.closure_of({d}), [g.identity, d])


def test_conjugation_action_recovers_dihedral():
    # (1, h)(r, 1) = (h r h⁻¹, h): the reflection (2 4) acts on the
    # rotations by conjugation, inverting each
    dh = dihedral_8()
    rot = sorted(dh.closure_of([dh.labels.index("(1 2 3 4)")]))
    refl = dh.labels.index("(2 4)")
    semi = semidirect_product(dh, rot, [dh.identity, refl])
    for r in rot:
        assert semi.table[semi.index[dh.identity, refl]][
            semi.index[r, dh.identity]] == semi.index[dh.inv(r), refl]
    assert find_isomorphism(semi, dh) is not None


def test_direct_product_keeps_its_pair_order_and_labels():
    # `identify --group gtheta --format json` prints these labels
    assert quaternion_x_sign().labels == [
        "(1,1)", "(1,-1)", "(i,1)", "(i,-1)", "(j,1)", "(j,-1)", "(-1,1)",
        "(-1,-1)", "(k,1)", "(k,-1)", "(-k,1)", "(-k,-1)", "(-i,1)",
        "(-i,-1)", "(-j,1)", "(-j,-1)"]
    assert klein_four().elements == [(0, 0), (0, 1), (1, 0), (1, 1)]


# -- GroupMap -----------------------------------------------------------------


def test_groupmap_homomorphism_and_inverse():
    z4, z2 = cyclic(4), cyclic(2)
    proj = GroupMap(z4, z2, [0, 1, 0, 1])
    assert proj.is_homomorphism()
    assert not proj.is_injective()
    iso = find_isomorphism(z4, z4)
    inv = iso.inverse_map()
    assert inv.compose(iso).images == list(range(4))
    bad = GroupMap(z4, z2, [0, 1, 1, 0])
    assert not bad.is_homomorphism()


def _homomorphic_by_definition(gm: GroupMap) -> bool:
    s, t, img = gm.source, gm.target, gm.images
    return all(img[s.table[i][j]] == t.table[img[i]][img[j]]
               for i in range(s.order) for j in range(s.order))


def test_row_wise_homomorphism_check_equals_the_definition():
    rng = random.Random(20)
    named = [dihedral_8(), dicyclic_8(), quaternion_group(),
             dihedral_8_x_z2(), sixteen_e(), dicyclic_8_x_z2(),
             quaternion_x_sign()]
    maps = []
    for s in named:
        for t in named:
            maps.append(GroupMap(s, t, [t.identity] * s.order))
            maps += [GroupMap(s, t, rng.choices(range(t.order), k=s.order))
                     for _ in range(5)]
            if s.order == t.order:
                maps += [GroupMap(s, t, rng.sample(range(t.order), t.order))
                         for _ in range(5)]
                found = find_isomorphism(s, t)
                if found is not None:
                    maps.append(found)
    verdicts = [(gm.is_homomorphism(), _homomorphic_by_definition(gm))
                for gm in maps]
    assert all(fast == slow for fast, slow in verdicts)
    bijective = [gm for gm in maps
                 if sorted(gm.images) == list(range(gm.target.order))]
    assert any(gm.is_homomorphism() for gm in bijective)
    assert any(not gm.is_homomorphism() for gm in bijective)
    # an image list shorter than the source is rejected, not read short
    g = dihedral_8()
    short = GroupMap(g, g, list(range(g.order - 1)))
    assert not short.is_homomorphism() and not short.is_isomorphism()


def test_warm_isomorphism_searches_rebuild_no_order_profile(monkeypatch):
    # each group counts its element orders once; a search compares the
    # kept counts, and `order_profile()` still hands out a new dict
    named = [dihedral_8(), dicyclic_8(), quaternion_group(),
             dihedral_8_x_z2(), sixteen_e(), dicyclic_8_x_z2(),
             quaternion_x_sign()]
    pairs = list(itertools.product(named, repeat=2))
    want = [find_isomorphism(g, h) for g, h in pairs]
    kept = [g._profile for g in named]
    built = []

    class CountingCounter(groups.Counter):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(groups, "Counter", CountingCounter)
    monkeypatch.setattr(FiniteGroup, "order_profile",
                        lambda self: built.append(self))
    for k in range(100):
        g, h = pairs[k % len(pairs)]
        found = find_isomorphism(g, h)
        assert (found is None) == (want[k % len(pairs)] is None)
    assert not built
    assert all(g._profile is p for g, p in zip(named, kept))
    monkeypatch.undo()
    g = dihedral_8()
    assert g.order_profile() == {1: 1, 2: 5, 4: 2}
    assert g.order_profile() is not g.order_profile()


def test_find_isomorphism_is_symmetric_and_verified():
    a, b = sixteen_e(), dihedral_8_x_z2()
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None
    g1 = permutation_group(dict(d="(1 2 3 4)", n="(2 4)"), 4)
    iso = find_isomorphism(g1, dihedral_8())
    assert iso is not None and iso.is_isomorphism()
    assert iso.inverse_map().compose(iso).images == list(range(g1.order))


def test_minimal_generating_set_and_word_extension():
    g = dihedral_8()
    gens = g.generators
    assert len(g.closure_of(gens)) == g.order
    full = extend_generator_images(g, g, gens, gens)
    assert full == list(range(g.order))
    # conjugation by the reflection n, fixed by the generators' images,
    # extends to an automorphism that moves some element
    n = g.letters["n"]
    conj = [g.table[g.table[n][x]][g.inv(n)] for x in gens]
    full = extend_generator_images(g, g, gens, conj)
    auto = GroupMap(g, g, full)
    assert auto.is_isomorphism() and full != list(range(g.order))
    assert all(full[x] == g.table[g.table[n][x]][g.inv(n)]
               for x in range(g.order))
    assert extend_generator_images(g, g, gens, [g.identity] * len(gens)) \
        is None


def test_rank_four_group_is_generated_and_searched():
    # Z2^4 needs four generators, as many as log2 of its order
    z2 = cyclic(2)
    z2_4 = direct_product(direct_product(z2, z2), direct_product(z2, z2))
    gens = z2_4.generators
    assert len(gens) == 4 and len(z2_4.closure_of(gens)) == 16
    iso = find_isomorphism(z2_4, z2_4)
    assert iso is not None and iso.is_isomorphism()


def test_trivial_group_is_generated_by_nothing():
    trivial = cyclic(1)
    assert trivial.generators == ()
    iso = find_isomorphism(trivial, trivial)
    assert iso is not None and iso.images == [trivial.identity]


# -- invariants kept with each group ---------------------------------------------


# every named group and G1, G2, G_Θ, each built once per process
SHARED_GROUPS = {
    **{make.__name__: make for make in (
        dihedral_8, dihedral_8_x_z2, sixteen_e, dicyclic_8, dicyclic_8_x_z2,
        quaternion_group, klein_four, sign_group, quaternion_x_sign)},
    **{name: (lambda name=name: getattr(Context(), name))
       for name in ("g1", "g2", "gtheta")}}


def _generated(g: FiniteGroup, gens) -> set[int]:
    found = {g.identity}
    while True:
        more = found | {g.table[a][b] for a in found for b in gens}
        if more == found:
            return found
        found = more


@pytest.mark.parametrize("name", SHARED_GROUPS)
def test_stored_invariants_equal_a_recomputation(name):
    g = SHARED_GROUPS[name]()
    for i in range(g.order):
        k, power = 1, i
        while power != g.identity:
            power, k = g.table[power][i], k + 1
        assert g.element_order(i) == k
        assert g.inv(i) == next(j for j in range(g.order)
                                if g.table[i][j] == g.identity)
    gens = g.generators
    assert len(_generated(g, gens)) == g.order
    assert all(len(_generated(g, smaller)) < g.order
               for smaller in itertools.combinations(range(g.order),
                                                     len(gens) - 1))
    for p in g.regular_representation():
        want = "".join("(" + " ".join(str(x) for x in c) + ")"
                       for c in p.cycles()) or "()"
        assert p.cycle_string() == want
        assert p.cycle_string() is p.cycle_string()    # kept, not rebuilt


def test_returned_lists_are_copies():
    # the generators are a tuple, so no caller can change them
    g = sixteen_e()
    gens, perms = g.generators, g.regular_representation()
    want_perms = list(perms)
    with pytest.raises(TypeError):
        gens[0] = g.identity
    perms.reverse()
    perms.pop()
    assert g.generators is gens
    assert g.regular_representation() == want_perms


# -- letters of the printed words -----------------------------------------------


# each permutation group's printed generators by letter, and its degree
LETTERED = {
    dihedral_8: ({"d": "(1 2 3 4)", "n": "(2 4)"}, 4),
    dihedral_8_x_z2: ({"d": "(1 2 3 4)", "n": "(2 4)", "z": "(5 6)"}, 6),
    sixteen_e: ({"a": "(1 2 3 4)(5 6 7 8)", "d": "(1 6 3 8)(2 5 4 7)",
                 "n": "(1 7)(2 8)(3 5)(4 6)"}, 8),
    dicyclic_8: ({"x": "(1 2 3 4)(5 6 7 8)", "y": "(1 5 3 7)(2 8 4 6)"}, 8),
    dicyclic_8_x_z2: ({"x": "(1 2 3 4)(5 6 7 8)", "y": "(1 5 3 7)(2 8 4 6)",
                       "z": "(9 10)"}, 10),
}


@pytest.mark.parametrize("make", LETTERED, ids=lambda make: make.__name__)
def test_letters_name_exactly_the_printed_generators(make):
    g = make()
    printed, degree = LETTERED[make]
    extra = {"-"} if make is sixteen_e else set()
    assert set(g.letters) == {"1", *printed, *extra}
    for ch, text in printed.items():
        assert g.elements[g.word(ch)] == Permutation.from_cycles(text, degree)
    assert g.word("1") == g.word("") == g.identity


def test_a_word_is_its_letters_multiplied_left_to_right():
    g = sixteen_e()
    a, d, n = map(g.word, "adn")
    assert g.word("adn") == g.table[g.table[a][d]][n]
    assert g.word("1a1") == a


def test_sixteen_e_minus_is_central_of_order_two():
    g = sixteen_e()
    minus = g.word("-")
    assert minus == g.word("aa") and g.element_order(minus) == 2
    assert minus in g.center()


def test_a_subgroup_keeps_the_letters_of_its_members():
    g = sixteen_e()
    dn = g.subgroup(g.closure_of([g.word("d"), g.word("n")]))
    assert dn.order == 8 and set(dn.letters) == {"1", "-", "d", "n"}
    for ch in dn.letters:
        assert dn.elements[dn.word(ch)] == g.elements[g.word(ch)]
    assert dn.word("1") == dn.identity
    with pytest.raises(KeyError):
        dn.word("a")


def test_unknown_letter_raises_key_error():
    with pytest.raises(KeyError, match="q"):
        sixteen_e().word("adq")
    assert cyclic(3).letters == {"1": 0}


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
    assert seq.verify()
    sections = seq.sections()
    assert sections and all(s.is_homomorphism() for s in sections)
    assert all(seq.projection.images[m] == q
               for s in sections for q, m in enumerate(s.images))


def test_non_split_sequence_center_of_quaternion():
    q = quaternion_group()
    seq = make_sequence(q, ["1", "-1"], None)
    assert seq.verify()
    assert seq.sections() == []


def _sequence(kernel, middle, quotient, inclusion, projection):
    return ShortExactSequence(kernel, middle, quotient,
                              GroupMap(kernel, middle, inclusion),
                              GroupMap(middle, quotient, projection))


Z4, Z6, V4 = cyclic(4), cyclic(6), klein_four()

# sequences that each break one exactness condition and keep the others
BROKEN = {
    "inclusion-not-homomorphism":
        (Z4.subgroup([0, 2]), Z4, cyclic(2), [2, 0], [0, 1, 0, 1]),
    "inclusion-not-injective":
        (Z4, Z4, cyclic(2), [0, 2, 0, 2], [0, 1, 0, 1]),
    "projection-not-homomorphism":
        (Z6.subgroup([0, 3]), Z6, cyclic(3), [0, 3], [0, 1, 1, 0, 2, 2]),
    "projection-not-surjective":
        (Z4.subgroup([0, 2]), Z4, Z4, [0, 2], [0, 2, 0, 2]),
    "image-not-kernel":
        (V4.subgroup([0, 2]), V4, cyclic(2), [0, 2], [0, 0, 1, 1]),
}


@pytest.mark.parametrize("condition", BROKEN)
def test_exactness_fails_on_each_broken_condition(condition):
    assert _sequence(Z4.subgroup([0, 2]), Z4, cyclic(2), [0, 2],
                     [0, 1, 0, 1]).verify()
    assert not _sequence(*BROKEN[condition]).verify()
