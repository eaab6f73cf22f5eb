"""Kernel computations, compatibility filters, and the two consistent
solution families."""

import itertools
import random

import pytest
from conftest import (CLIFFORD_GATES, T_GATES, random_clifford, random_dense,
                      word_systems)

from cptgroup import solver
from cptgroup.matrices import (BASIS_WORDS, GammaRep, Mat4, RepTag, get_rep,
                               monomial_code, row_reduce, word_product,
                               word_table)
from cptgroup.scalars import I, ONE, UNITS, ZERO
from cptgroup.solver import (SQUARE_SIGNATURES, SYSTEMS, ConstraintSystem,
                             CptSolutionSet, Relation, canonical_sets, check_cp_compatibility,
                             check_ct_compatibility, compatible_pairs,
                             conjugate_group_matrices, constraint_system,
                             enumerate_consistent_sets, kernel, solve_system,
                             transport, verify_solution_properties)

ALL_TAGS = [RepTag.DIRAC_PAULI, RepTag.WEYL, RepTag.MAJORANA]


@pytest.fixture(scope="module", params=ALL_TAGS)
def rep(request):
    return get_rep(request.param)


def _t_rep() -> GammaRep:
    """The presentation moved by T x 1: its gammas still anticommute, but
    their transposes and conjugates are not +-themselves, and half of its
    basis words are not monomial unit matrices."""
    return GammaRep(T_GATES[0])


def _reference_row_reduce(rows: list[list], ncols: int) -> list[int]:
    """Dense Gauss-Jordan elimination, apart from the sparse one the
    solver uses: `rows` to reduced row echelon form in place, returning
    the pivot columns, the i-th pivot in row i."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows))
                    if rows[r][col] is not ZERO), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = rows[rank] = [x * inv for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f is not ZERO:
                rows[r] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(col)
    return pivots


def _reference_basis(system: ConstraintSystem,
                     rep: GammaRep) -> tuple[Mat4, ...]:
    """`solve_system`'s basis from dense rows that expand each relation's
    difference B_j R - s L B_j whole, by `_reference_row_reduce`: one
    vector per free column, its leading coefficient 1."""
    rows = []
    for rel in system.relations:
        images = [rep.basis_expand(b * rel.right
                                   - (rel.left * b).scale(rel.sign))
                  for b in rep.basis]
        rows += [list(col) for col in zip(*images)]
    pivots = _reference_row_reduce(rows, 16)
    basis = []
    for fc in sorted(set(range(16)) - set(pivots)):
        vec = [ZERO] * 16
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        inv = next(c for c in vec if c is not ZERO).inverse()
        basis.append(rep.recombine([c * inv for c in vec]))
    return tuple(basis)


def test_kernels_are_lines(rep):
    for sym in "pct":
        space = kernel(sym, rep)
        assert space.dimension == 1
        assert space.basis[0] != Mat4.zero()


def test_kernel_elements_satisfy_their_systems(rep):
    for sym in SYSTEMS:
        sys_ = constraint_system(sym, rep)
        x = kernel(sym, rep).basis[0]
        assert sys_.satisfied_by(x)
        assert not sys_.satisfied_by(x + Mat4.identity())


def test_standard_kernel_closed_forms():
    dp = get_rep(RepTag.DIRAC_PAULI)
    g = dp.gamma
    assert kernel("p", dp).basis[0] == g[0]
    # normalization puts the leading canonical-basis coefficient at 1;
    # the canonical pair names are g0g2 and g3g1
    assert kernel("c", dp).basis[0] == g[0] * g[2]
    assert kernel("t", dp).basis[0] == g[3] * g[1]


def test_weyl_parity_kernel_is_g0():
    rep = get_rep(RepTag.WEYL)
    assert kernel("p", rep).basis[0] == rep.gamma[0]


def test_compatibility_filters():
    dp = get_rep(RepTag.DIRAC_PAULI)
    g = dp.gamma
    c, p, t = g[2] * g[0], g[0].scale(I), (g[3] * g[1]).scale(I)
    assert check_cp_compatibility(c, p)
    assert check_ct_compatibility(c, t)
    # P with square +1 is rejected by the C-P condition
    assert not check_cp_compatibility(c, g[0])
    assert not check_ct_compatibility(c.scale(I), t)


def test_enumeration_counts(rep):
    sets = enumerate_consistent_sets(rep)
    assert len(sets) == 16
    by_variant = {1: 0, 2: 0}
    for sol in sets:
        by_variant[sol.variant] += 1
        if rep is get_rep(RepTag.DIRAC_PAULI):
            assert sol.squares() == SQUARE_SIGNATURES[sol.variant]
    assert by_variant == {1: 8, 2: 8}


def test_no_positive_parity_square(rep):
    assert all(p * p != Mat4.identity() for p, _ in compatible_pairs(rep))


def test_canonical_sets_are_shared_and_read_only():
    sols = canonical_sets()
    assert canonical_sets() is sols and sorted(sols) == [1, 2]
    with pytest.raises(TypeError):
        sols[1] = sols[2]
    with pytest.raises(TypeError):
        del sols[2]


def test_canonical_sets_are_among_enumerated():
    dp = get_rep(RepTag.DIRAC_PAULI)
    found = {(s.variant, s.C, s.P, s.T)
             for s in enumerate_consistent_sets(dp)}
    for sol in canonical_sets().values():
        assert (sol.variant, sol.C, sol.P, sol.T) in found


def test_theta_is_variant_independent():
    sols = canonical_sets()
    theta1, theta2 = sols[1].theta, sols[2].theta
    assert theta2 == theta1
    assert theta1 * theta1 == Mat4.identity()
    # theta is the product in the fixed order C·P·T
    assert theta1 == sols[1].C * sols[1].P * sols[1].T


def test_verify_solution_properties_all_true():
    for sol in canonical_sets().values():
        report = verify_solution_properties(sol)
        assert report and all(report.values()), \
            [k for k, v in report.items() if not v]


def test_squares_signature_values():
    sols = canonical_sets()
    assert sols[1].squares() == (1, -1, 1)
    assert sols[2].squares() == (-1, -1, -1)


def test_transport_maps_solutions_to_solutions(clifford_reps):
    dp = get_rep(RepTag.DIRAC_PAULI)
    standard = {(s.variant, s.C, s.P, s.T)
                for s in enumerate_consistent_sets(dp)}
    for rep in (get_rep(RepTag.WEYL), get_rep(RepTag.MAJORANA),
                *clifford_reps):
        for sol in canonical_sets().values():
            moved = transport(sol, dp, rep)
            assert constraint_system("p", rep).satisfied_by(moved.P)
            assert constraint_system("c", rep).satisfied_by(moved.C)
            assert constraint_system("t", rep).satisfied_by(moved.T)
            assert check_cp_compatibility(moved.C, moved.P)
            assert check_ct_compatibility(moved.C, moved.T)
        assert all(kernel(sym, rep).dimension == 1 for sym in SYSTEMS)
        sets = enumerate_consistent_sets(rep)
        assert len(sets) == 16
        back = {(b.variant, b.C, b.P, b.T)
                for b in (transport(s, rep, dp) for s in sets)}
        assert back == standard
    sol = canonical_sets()[1]
    assert transport(sol, dp, dp) is sol


def _nonzero_multiple(x: Mat4, line: Mat4) -> bool:
    """Whether x = k line for some scalar k != 0."""
    i, j = next((i, j) for i in range(4) for j in range(4)
                if line.rows[i][j] is not ZERO)
    k = x.rows[i][j] / line.rows[i][j]
    return not k.is_zero() and x == line.scale(k)


def test_every_transport_lands_on_its_kernel_line():
    # S C S~ solves the C system of the new basis wherever S is unitary;
    # S C g0 S~ g0'^-1 does only where S~ S commutes with g0, and misses
    # the C line in some Clifford+T bases
    dp, rng = get_rep(RepTag.DIRAC_PAULI), random.Random(7)
    for _ in range(30):
        rep = GammaRep(random_clifford(rng, CLIFFORD_GATES + T_GATES, 8))
        for sol in canonical_sets().values():
            moved = transport(sol, dp, rep)
            for sym in SYSTEMS:
                assert _nonzero_multiple(getattr(moved, sym.upper()),
                                         kernel(sym, rep).basis[0])


def _direct(sol: CptSolutionSet, s: Mat4, right: Mat4,
            p_right: Mat4) -> CptSolutionSet:
    """S C R, S P R_P and S T R, each multiplied out."""
    return CptSolutionSet(sol.variant, s * sol.C * right,
                          s * sol.P * p_right, s * sol.T * right)


def test_transport_and_conjugation_equal_the_direct_products():
    # both carry a unit multiple of a kernel line as the unit times the
    # line's carry; each must equal S X S~ (S P S†) or S X S† multiplied
    # out, for every consistent set, out of the standard basis and back
    dp, rng = get_rep(RepTag.DIRAC_PAULI), random.Random(41)
    reps = [get_rep(RepTag.WEYL), get_rep(RepTag.MAJORANA)]
    reps += [GammaRep(random_clifford(rng)) for _ in range(20)]
    for rep in reps:
        for src, dst in ((dp, rep), (rep, dp)):
            s = dst.s * src.s.dagger()
            sd, st = s.dagger(), s.transpose()
            for sol in enumerate_consistent_sets(src):
                assert transport(sol, src, dst) == _direct(sol, s, st, sd)
                assert conjugate_group_matrices(sol, s) == _direct(
                    sol, s, sd, sd)
    # a matrix with no code, a word of the T x 1 basis, is multiplied out
    t_rep = _t_rep()
    word = next(b for b in t_rep.basis if monomial_code(b) is None)
    sol = canonical_sets()[1]._replace(C=word)
    s = dp.s * t_rep.s.dagger()
    assert transport(sol, t_rep, dp) == _direct(sol, s, s.transpose(),
                                                s.dagger())
    assert conjugate_group_matrices(sol, s) == _direct(sol, s, s.dagger(),
                                                       s.dagger())


def _signature_word(sym: str, rep: GammaRep) -> Mat4:
    """The kernel line of the `SYSTEMS[sym]` system where each twisted
    gamma is +-itself, f(gmu) = e_mu gmu, by commutation signs alone.
    Every presentation conjugates the standard gammas, so the basis word
    B_w obeys B_w gmu = sigma_wmu gmu B_w, sigma_wmu = (-1)**(|w| - [mu in
    w]), and relation mu sends B_w to (e_mu - s_mu sigma_wmu) B_w gmu.
    The B_w gmu are independent and no two words share their signs, so
    the kernel is the one word with sigma_wmu = e_mu s_mu."""
    _, twist, signs = SYSTEMS[sym]
    eps = [{g: 1, -g: -1}[twist(g)] for g in rep.gamma]
    return word_product(rep.gamma, next(
        w for w in BASIS_WORDS
        if all((-1) ** (len(w) - (mu in w)) == e * s
               for mu, (e, s) in enumerate(zip(eps, signs)))))


def test_kernel_by_signature_is_the_eliminated_kernel(rep):
    for sym in SYSTEMS:
        assert kernel(sym, rep).basis == (_signature_word(sym, rep),)


def test_word_table_gives_every_product_of_basis_words():
    # B_j B_l = i**e B_k, k the word of the symmetric difference, in a
    # Clifford basis and in the T x 1 basis, whose words are not all
    # monomial
    reps = [GammaRep(random_clifford(random.Random(11))), _t_rep()]
    for j, l in itertools.product(range(16), repeat=2):
        k, e = word_table()[j][l]
        assert set(BASIS_WORDS[k]) == set(BASIS_WORDS[j]) ^ set(
            BASIS_WORDS[l])
        for rep in reps:
            assert rep.basis[j] * rep.basis[l] == \
                rep.basis[k].scale(UNITS[e])


def test_rows_by_linearity_equal_the_expanded_difference():
    # the union-find kernels of word systems in the three named bases and
    # 20 Clifford bases, eliminated kernels in the T x 1 basis and for a
    # dense A
    rng = random.Random(17)
    reps = list(map(get_rep, ALL_TAGS))
    reps += [GammaRep(random_clifford(rng)) for _ in range(20)]
    cases = [(rep, system) for rep in reps
             for system in word_systems(rng, rep)]
    t_rep = _t_rep()
    cases += [(t_rep, constraint_system(sym, t_rep)) for sym in SYSTEMS]
    for rep in map(get_rep, ALL_TAGS):
        # X A = A X, and X g0 = (A g0 A^-1) X, which A itself solves
        a, g0 = random_dense(rng), rep.gamma[0]
        cases += [(rep, ConstraintSystem((Relation(a, a, 1),))),
                  (rep, ConstraintSystem((Relation(g0, a * g0 * a.inverse(),
                                                   1),)))]
    dims = set()
    for rep, system in cases:
        want, got = _reference_basis(system, rep), solve_system(system, rep)
        assert want and got.basis == want
        # a one-word vector is the shared basis word itself
        assert all(any(x is b for b in rep.basis) for x in got.basis
                   if x in rep.basis)
        dims.add(len(want))
    assert {1, 2, 4, 8} <= dims


def test_sparse_elimination_is_the_dense_reduced_form():
    # the reduced row echelon form is unique: the sparse rows of each
    # system reduce to the dense reference's rows, keeping no zero entry
    rng, t_rep = random.Random(29), _t_rep()
    cases = [(rep, system) for rep in map(get_rep, ALL_TAGS)
             for system in word_systems(rng, rep)]
    cases += [(t_rep, constraint_system(sym, t_rep)) for sym in SYSTEMS]
    for rep, system in cases:
        rows = [row for rel in system.relations
                for row in solver._rows(rel, rep)]
        dense = [[row.get(c, ZERO) for c in range(16)] for row in rows]
        pivots = row_reduce(rows, 16)
        assert pivots == _reference_row_reduce(dense, 16)
        assert [[row.get(c, ZERO) for c in range(16)] for row in rows] == \
            dense
        assert all(x is not ZERO for row in rows for x in row.values())


def test_unit_relations_take_no_dense_expansion(rep, monkeypatch):
    # every operand is a unit multiple of a basis word, so every row is
    # read off the word table: no product is expanded at all
    seen = []
    monkeypatch.setattr(GammaRep, "basis_expand",
                        lambda self, m: seen.append(m))
    systems = [constraint_system(sym, rep) for sym in SYSTEMS]
    for system in systems + list(word_systems(random.Random(5), rep)):
        assert solve_system(system, rep).dimension
    assert not seen


def _unit_systems(rng: random.Random, rep: GammaRep):
    """Ten seeded systems of 1 to 4 relations X u f(B_j) = s v B_k X, f the
    identity, transpose or conjugation and u, v units: unlike
    `word_systems`, no word need solve them, so a kernel may be empty."""
    twists = (lambda m: m, Mat4.transpose, Mat4.conj)
    for _ in range(10):
        yield ConstraintSystem(tuple(
            Relation(rng.choice(twists)(rep.basis[rng.randrange(16)]).scale(
                rng.choice(UNITS)), rep.basis[rng.randrange(16)].scale(
                rng.choice(UNITS)), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 4))))


def test_union_find_kernels_are_the_eliminated_kernels(monkeypatch):
    # every unit system, drawn as the dense-algebra benchmark draws them
    # or with unit multiples on both sides, is solved with no elimination,
    # and its basis is the dense reference's entry for entry; the T x 1
    # and dense systems are still eliminated
    reduced = []
    monkeypatch.setattr(solver, "row_reduce",
                        lambda rows, n: reduced.append(n) or row_reduce(
                            rows, n))
    rng = random.Random(2025)
    reps = list(map(get_rep, ALL_TAGS))
    reps += [GammaRep(random_clifford(rng)) for _ in range(20)]
    dims = set()
    for rep in reps:
        for system in [*word_systems(rng, rep), *_unit_systems(rng, rep)]:
            got = solve_system(system, rep).basis
            assert got == _reference_basis(system, rep)
            dims.add(len(got))
    assert not reduced and {0, 1, 2, 4, 8} <= dims
    t_rep, dp, a = _t_rep(), get_rep(RepTag.DIRAC_PAULI), random_dense(rng)
    for rep, system in [(t_rep, constraint_system("c", t_rep)),
                        (dp, ConstraintSystem((Relation(a, a, 1),)))]:
        assert solve_system(system, rep).basis == \
            _reference_basis(system, rep)
    assert reduced == [16, 16]


def test_union_find_edge_cases(monkeypatch):
    monkeypatch.setattr(solver, "row_reduce", None)    # never eliminates
    dp = get_rep(RepTag.DIRAC_PAULI)
    (g0, g1, g2, _), one = dp.gamma, Mat4.identity()
    cases = {
        # X 1 = 1 X: no row constrains anything
        (Relation(one, one, 1),): 16,
        # X g0 = +-g0 X: r = l, so a word commuting with g0 (or, for -,
        # anticommuting) has x + y = 0 and is free, and the others are
        # forced to zero
        (Relation(g0, g0, 1),): 8,
        (Relation(g0, g0, -1),): 8,
        # X g0 = i g0 X: x + y != 0 for every word
        (Relation(g0, g0.scale(I), 1),): 0,
        # X g1 = g2 X links c_j and c_j' of j' = j△{1,2} from two rows,
        # which agree; X g1 = i g2 X links them again with an exponent
        # one larger, so every such 2-cycle disagrees
        (Relation(g1, g2, 1),): 8,
        (Relation(g1, g2, 1), Relation(g1, g2.scale(I), 1)): 0,
        (Relation(g1, g2, 1), Relation(g1.scale(I), g2.scale(I), 1)): 8,
        # g0 squares to 1 and g1 to -1: the two rows of each pair disagree
        (Relation(g0, g1, 1),): 0,
    }
    for relations, dim in cases.items():
        system = ConstraintSystem(relations)
        got = solve_system(system, dp).basis
        assert len(got) == dim and got == _reference_basis(system, dp)
    # each vector of a one-word component is the shared basis word
    free = solve_system(ConstraintSystem((Relation(one, one, 1),)), dp)
    assert all(x is b for x, b in zip(free.basis, dp.basis))


def test_kernels_are_signature_words_in_clifford_bases_and_eliminated_beyond(
        monkeypatch, clifford_reps):
    # `reduced` takes the symmetry being solved at each elimination; the
    # shared bases may have their kernels cached, so solve them afresh
    reduced = []
    monkeypatch.setattr(solver, "row_reduce",
                        lambda rows, n: reduced.append(sym)
                        or row_reduce(rows, n))
    for rep in clifford_reps:
        for sym in SYSTEMS:
            assert kernel.__wrapped__(sym, rep).basis == \
                (_signature_word(sym, rep),)
    assert not reduced
    # in the T x 1 basis the spatial gammas are not monomial unit
    # matrices, so each system is eliminated, once; parity is untwisted
    # and keeps its signature word, but C and T are not signature systems
    t_rep = _t_rep()
    for sym in SYSTEMS:
        assert kernel.__wrapped__(sym, t_rep).basis == \
            _reference_basis(constraint_system(sym, t_rep), t_rep)
    assert reduced == ["p", "c", "t"]
    assert kernel("p", t_rep).basis == (_signature_word("p", t_rep),)
    for sym in "ct":
        with pytest.raises(KeyError):
            _signature_word(sym, t_rep)


def test_enumeration_rejects_non_unitary_lines():
    # in the T x 1 basis the C and T kernel lines are spanned by X0 with
    # X0 X0† = 2·1: no unit multiple is unitary, so the sweep would find
    # nothing; it must say so instead of returning no sets
    t_rep = _t_rep()
    lines = [kernel(sym, t_rep).basis[0] for sym in "ct"]
    assert all(x * x.dagger() == Mat4.identity().scale(2) for x in lines)
    with pytest.raises(AssertionError, match="unitary"):
        enumerate_consistent_sets(t_rep)


def test_group_conjugation_preserves_multiplication():
    dp = get_rep(RepTag.DIRAC_PAULI)
    s = get_rep(RepTag.WEYL).s
    sol = canonical_sets()[2]
    moved = conjugate_group_matrices(sol, s)
    move = lambda m: s * m * s.dagger()
    assert moved.C * moved.P == move(sol.C * sol.P)
    assert moved.theta == move(sol.theta)
    assert moved.squares() == sol.squares()


def test_solve_system_rejects_nothing_spurious(rep):
    # the full Clifford-commutant system (X g = g X for all gammas) has a
    # one-dimensional kernel spanned by the identity (Schur)
    system = ConstraintSystem(tuple(
        Relation(gm, gm, +1) for gm in rep.gamma))
    space = solve_system(system, rep)
    assert space.dimension == 1
    assert space.basis[0] == Mat4.identity()
