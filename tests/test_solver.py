"""Kernel computations, compatibility filters, and the two consistent
solution families."""

import pytest

from cptgroup.matrices import Mat4, RepTag, get_rep
from cptgroup.scalars import I, Scalar
from cptgroup.solver import (SQUARE_SIGNATURES, canonical_sets,
                             charge_conjugation_system,
                             check_cp_compatibility, check_ct_compatibility,
                             conjugate_group_matrices,
                             enumerate_consistent_sets,
                             incompatible_parity_squares, kernel,
                             parity_system, solve_system,
                             time_reversal_system,
                             transform_constraint_solutions,
                             verify_solution_properties)

ALL_TAGS = [RepTag.DIRAC_PAULI, RepTag.WEYL, RepTag.MAJORANA]


@pytest.fixture(scope="module", params=ALL_TAGS)
def rep(request):
    return get_rep(request.param)


def test_kernels_are_lines(rep):
    for sym in "pct":
        space = kernel(sym, rep)
        assert space.dimension == 1
        assert not space.basis[0].is_zero()


def test_kernel_elements_satisfy_their_systems(rep):
    for system, sym in ((parity_system, "p"),
                        (charge_conjugation_system, "c"),
                        (time_reversal_system, "t")):
        sys_ = system(rep)
        x = kernel(sym, rep).basis[0]
        assert sys_.satisfied_by(x)
        assert all(r.is_zero() for r in sys_.residuals(x))
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
    c, p, t = g[2] * g[0], I * g[0], I * (g[3] * g[1])
    assert check_cp_compatibility(c, p)
    assert check_ct_compatibility(c, t)
    # P with square +1 is rejected by the C-P condition
    assert not check_cp_compatibility(c, g[0])
    assert not check_ct_compatibility(I * c, t)


def test_enumeration_counts(rep):
    sets = enumerate_consistent_sets(rep)
    assert len(sets) == 16
    by_variant = {1: 0, 2: 0}
    for sol in sets:
        by_variant[sol.variant] += 1
        if rep.tag is RepTag.DIRAC_PAULI:
            assert sol.squares() == SQUARE_SIGNATURES[sol.variant]
    assert by_variant == {1: 8, 2: 8}


def test_no_positive_parity_square(rep):
    assert incompatible_parity_squares(rep)


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


def test_transport_maps_solutions_to_solutions():
    from cptgroup.matrices import majorana_transform, weyl_transform
    dp = get_rep(RepTag.DIRAC_PAULI)
    for tag, s in ((RepTag.WEYL, weyl_transform(dp)),
                   (RepTag.MAJORANA, majorana_transform(dp))):
        rep = get_rep(tag)
        for sol in canonical_sets().values():
            moved = transform_constraint_solutions(
                sol, s, dp.gamma[0], rep.gamma[0])
            assert parity_system(rep).satisfied_by(moved.P)
            assert charge_conjugation_system(rep).satisfied_by(moved.C)
            assert time_reversal_system(rep).satisfied_by(moved.T)
            assert check_cp_compatibility(moved.C, moved.P)
            assert check_ct_compatibility(moved.C, moved.T)


def test_group_conjugation_preserves_multiplication():
    from cptgroup.matrices import weyl_transform
    dp = get_rep(RepTag.DIRAC_PAULI)
    s = weyl_transform(dp)
    sol = canonical_sets()[2]
    moved = conjugate_group_matrices(sol, s)
    move = lambda m: s * m * s.dagger()
    assert moved.C * moved.P == move(sol.C * sol.P)
    assert moved.theta == move(sol.theta)
    assert moved.squares() == sol.squares()


def test_solve_system_rejects_nothing_spurious(rep):
    # the full Clifford-commutant system (X g = g X for all gammas) has a
    # one-dimensional kernel spanned by the identity (Schur)
    from cptgroup.solver import ConstraintSystem, Relation
    system = ConstraintSystem(tuple(
        Relation(gm, gm, +1) for gm in rep.gamma))
    space = solve_system(system, rep)
    assert space.dimension == 1
    assert space.basis[0] == Mat4.identity()
