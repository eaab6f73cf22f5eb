"""Exact matrix algebra, the gamma representations, grading, and the
matrix classification predicates."""

import itertools
import random
from fractions import Fraction

import pytest

from cptgroup.matrices import (BASIS_NAMES, BASIS_WORDS, Grade, Mat4, RepTag,
                               classify, get_rep, majorana_transform,
                               weyl_transform)
from cptgroup.scalars import I, INV_SQRT2, Scalar, ZERO

DP = get_rep(RepTag.DIRAC_PAULI)
ETA = (Scalar(2), Scalar(-2), Scalar(-2), Scalar(-2))


@pytest.fixture(scope="module", params=[RepTag.DIRAC_PAULI, RepTag.WEYL,
                                        RepTag.MAJORANA])
def rep(request):
    return get_rep(request.param)


def test_clifford_relations(rep):
    for mu in range(4):
        for nu in range(mu, 4):
            anti = rep.gamma[mu] * rep.gamma[nu] + \
                rep.gamma[nu] * rep.gamma[mu]
            if mu == nu:
                assert anti == Mat4.identity().scale(ETA[mu])
            else:
                assert anti.is_zero()


def test_gamma5_definition(rep):
    product = rep.gamma[0] * rep.gamma[1] * rep.gamma[2] * rep.gamma[3]
    assert rep.gamma5 == product.scale(-I)
    assert rep.gamma5 * rep.gamma5 == Mat4.identity()


def test_dp_transpose_identity():
    # γ0 γ^{μ*} γ0 equals the transpose of γ^μ in this representation
    g = DP.gamma
    for mu in range(4):
        assert g[0] * g[mu].conj() * g[0] == g[mu].transpose()


def test_conjugate_representation_preserves_products(rep):
    if rep.tag == RepTag.DIRAC_PAULI:
        pytest.skip("identity transform")
    s = {RepTag.WEYL: weyl_transform(DP),
         RepTag.MAJORANA: majorana_transform(DP)}[rep.tag]
    move = lambda m: s * m * s.dagger()
    for a, b in itertools.product(DP.basis, repeat=2):
        assert move(a * b) == move(a) * move(b)


def random_mat(rng):
    return Mat4([[Scalar(*(Fraction(rng.randint(-5, 5)) for _ in range(4)))
                  for _ in range(4)] for _ in range(4)])


def test_basis_roundtrip(rep):
    rng = random.Random(42)
    for _ in range(100):
        m = random_mat(rng)
        assert rep.recombine(rep.basis_expand(m)) == m


def test_basis_expand_of_basis_word_is_unit_vector(rep):
    for k, b in enumerate(rep.basis):
        assert rep.basis_expand(b) == [Scalar(int(j == k)) for j in range(16)]


def test_basis_elements_have_homogeneous_grade(rep):
    for b in rep.basis:
        assert rep.parity_grade(b) in (Grade.EVEN, Grade.ODD)


def test_parity_grades():
    g = DP.gamma
    assert DP.parity_grade(Mat4.identity()) == Grade.EVEN
    assert DP.parity_grade(g[0]) == Grade.ODD
    assert DP.parity_grade(g[2] * g[0]) == Grade.EVEN
    assert DP.parity_grade(Mat4.identity() + g[0]) == Grade.MIXED


def test_alpha_and_grade_match_the_basis_expansion(rep):
    # reference: alpha negates the odd-length words of the expansion, and
    # the grade is read off the words in the expansion's support
    rng = random.Random(1997)
    odd = [len(w) % 2 == 1 for w in BASIS_WORDS]
    mats = [Mat4.zero()]
    for _ in range(8):
        m = random_dense_mat(rng)
        coeffs = rep.basis_expand(m)
        mats += [m] + [rep.recombine([ZERO if o == keep else c
                                      for c, o in zip(coeffs, odd)])
                       for keep in (False, True)]
    for m in mats:
        coeffs = rep.basis_expand(m)
        assert rep.alpha(m) == rep.recombine([-c if o else c
                                              for c, o in zip(coeffs, odd)])
        support = {o for c, o in zip(coeffs, odd) if not c.is_zero()}
        want = (Grade.EVEN if support <= {False} else
                Grade.ODD if support == {True} else Grade.MIXED)
        assert rep.parity_grade(m) == want
    assert {rep.parity_grade(m) for m in mats} == set(Grade)


def test_preserves_gamma_span():
    g = DP.gamma
    assert DP.preserves_gamma_span(g[0])
    assert DP.preserves_gamma_span(Mat4.identity())
    assert DP.preserves_gamma_span(g[1] * g[2] * g[3])
    # invertible, but conjugation by it mixes grades
    bad = Mat4.identity() + g[0].scale(Scalar(Fraction(1, 3)))
    assert not DP.preserves_gamma_span(bad)


def test_determinant_against_permutation_expansion():
    rng = random.Random(5)
    perms = list(itertools.permutations(range(4)))

    def sign(p):
        s = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s = -s
        return s

    for _ in range(25):
        m = random_mat(rng)
        oracle = Scalar(0)
        for p in perms:
            term = Scalar(sign(p))
            for i in range(4):
                term = term * m.rows[i][p[i]]
            oracle = oracle + term
        assert m.det() == oracle


def test_inverse_and_errors():
    g = DP.gamma
    assert g[0].inverse() == g[0]
    assert (g[2] * g[0]).inverse() * (g[2] * g[0]) == Mat4.identity()
    singular = Mat4.identity() + g[0]
    assert singular.det() == Scalar(0)
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def random_dense_mat(rng):
    """Every entry with four random rational components."""
    return Mat4([[Scalar(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(4)))
                  for _ in range(4)] for _ in range(4)])


def test_inverse_of_dense_matrices():
    rng = random.Random(20261018)
    ident = Mat4.identity()
    # a zero (0, 0) entry makes the elimination swap in another pivot row
    swapped = Mat4([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, I], [0, 0, -I, 1]])
    mats = [swapped, Mat4.identity() + random_dense_mat(rng)]
    while len(mats) < 27:
        m = random_dense_mat(rng)
        if len(mats) % 3 == 0:
            m = Mat4([[ZERO] + list(m.rows[0][1:])] + list(m.rows[1:]))
        if not m.det().is_zero():
            mats.append(m)
    assert sum(m.rows[0][0].is_zero() for m in mats) >= 9
    for m in mats:
        inv = m.inverse()
        assert m * inv == ident and inv * m == ident
        assert inv.inverse() == m


def test_singular_dense_matrices_raise():
    rng = random.Random(3)
    for _ in range(5):
        m = random_dense_mat(rng)
        rows = list(m.rows)
        # the last row a combination of two others
        rows[3] = [x * Scalar(2, 1) + y * INV_SQRT2
                   for x, y in zip(rows[0], rows[1])]
        singular = Mat4(rows)
        assert singular.det().is_zero()
        with pytest.raises(ZeroDivisionError):
            singular.inverse()
    with pytest.raises(ZeroDivisionError):
        Mat4.zero().inverse()


def test_transform_matrices():
    s_w, s_m = weyl_transform(DP), majorana_transform(DP)
    for s in (s_w, s_m):
        assert s == s.dagger()
        assert s * s == Mat4.identity()
        assert s.trace() == Scalar(0)
    assert s_m.det() == Scalar(1)
    rep_m = get_rep(RepTag.MAJORANA)
    for gamma in rep_m.gamma:
        assert all(e.is_imaginary() for row in gamma.rows for e in row)


def test_classification_predicates():
    g = DP.gamma
    theta = g[1] * g[2] * g[3]
    assert classify(theta).in_class("K")
    assert not classify(theta).in_class("M")
    assert not classify(theta).in_class("N")
    assert classify(g[0].scale(I)).in_class("M")
    c2 = (g[2] * g[0]).scale(I)
    assert classify(c2).in_class("N") and classify(c2).real_entries


def test_basis_names_order():
    assert BASIS_NAMES[0] == "1"
    assert BASIS_NAMES[1:5] == ("g0", "g1", "g2", "g3")
    assert BASIS_NAMES[-1] == "g0g1g2g3"
    assert len(set(BASIS_NAMES)) == 16


def test_serialization_roundtrip():
    m = DP.gamma5.scale(Scalar(1, 2, 3, 4))
    assert Mat4([[Scalar(*x) for x in row] for row in m.to_json()]) == m
