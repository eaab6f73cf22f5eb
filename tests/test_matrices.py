"""Exact matrix algebra, the gamma representations, grading, and the
matrix classification predicates."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import T_GATES, random_clifford, random_dense

from cptgroup import matrices
from cptgroup.matrices import (BASIS_NAMES, BASIS_WORDS, GammaRep, Grade,
                               Mat4, RepTag, classify, code_product,
                               from_code, get_rep, monomial_code)
from cptgroup.scalars import I, INV_SQRT2, MINUS_ONE, ONE, Scalar, ZERO
from cptgroup.verify import Context

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
                assert anti == Mat4.zero()


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
    s = rep.s
    move = lambda m: s * m * s.dagger()
    assert tuple(map(move, DP.gamma)) == rep.gamma
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


def leibniz_det(rows) -> Scalar:
    """The determinant as a signed sum over permutations."""
    n = len(rows)
    total = Scalar(0)
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n)
                         for j in range(i + 1, n))
        term = Scalar((-1) ** inversions)
        for i in range(n):
            term = term * rows[i][p[i]]
        total = total + term
    return total


def test_determinant_against_permutation_expansion():
    rng = random.Random(5)
    for _ in range(25):
        m = random_mat(rng)
        assert m.det() == leibniz_det(m.rows)


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


def hard_dense_mat(rng):
    """Every component over its own small prime, so that the common
    denominator of the entries runs to many digits."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    return Mat4([[Scalar(*(Fraction(rng.randint(-30, 30), rng.choice(primes))
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


UNITS = (ONE, I, MINUS_ONE, -I)


def test_monomial_codes_round_trip_and_multiply_like_matrices(rep):
    for b in rep.basis:
        for u in UNITS:
            m = b.scale(u)
            code = monomial_code(m)
            assert code is not None and from_code(code) == m
    words = [b.scale(u) for b in DP.basis for u in UNITS]
    codes = [monomial_code(m) for m in words]
    for a, ca in zip(words, codes):
        for b, cb in zip(words, codes):
            assert from_code(code_product(ca, cb)) == a * b


def test_monomial_code_rejects_every_other_matrix():
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert monomial_code(Mat4(swap)) == ((1, 0, 3, 2), (0, 0, 0, 0))
    twice = Mat4([[2 * x for x in row] if i == 2 else row
                  for i, row in enumerate(swap)])
    same_column = Mat4([swap[0], swap[0], swap[2], swap[3]])
    others = [get_rep(RepTag.WEYL).s, get_rep(RepTag.MAJORANA).s,
              Mat4.identity().scale(2), random_dense_mat(random.Random(1)),
              twice, same_column, Mat4.zero()]
    assert all(monomial_code(m) is None for m in others)


def test_every_inverse_matches_the_adjugate_without_elimination(
        monkeypatch):
    # row_reduce serves only the kernel solver: a monomial unit matrix
    # inverts to its adjoint, any other to its adjugate over its
    # determinant, and a singular one raises before either
    eliminations = []
    row_reduce = matrices.row_reduce

    def counting(rows, ncols):
        eliminations.append(None)
        return row_reduce(rows, ncols)

    monkeypatch.setattr(matrices, "row_reduce", counting)
    rng = random.Random(12)
    ident = Mat4.identity()
    mats = [Mat4([[rng.choice(UNITS) if j == perm[i] else ZERO
                   for j in range(4)] for i in range(4)])
            for perm in (rng.sample(range(4), 4) for _ in range(40))]
    mats += [Mat4.identity() + random_dense_mat(rng), random_dense(rng),
             hard_dense_mat(rng)]
    for m in mats:
        inv = m.inverse()
        assert inv == reference_inverse(m)
        assert m * inv == ident and inv * m == ident
    with pytest.raises(ZeroDivisionError):
        Mat4([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
             ).inverse()
    assert not eliminations


def test_transform_matrices():
    assert DP.s == Mat4.identity()
    s_w, s_m = get_rep(RepTag.WEYL).s, get_rep(RepTag.MAJORANA).s
    for s in (s_w, s_m):
        assert s == s.dagger()
        assert s * s == Mat4.identity()
        assert s.trace() == Scalar(0)
    assert s_m.det() == Scalar(1)
    with pytest.raises(ValueError, match="unitary"):
        GammaRep(Mat4.identity().scale(2))
    rep_m = get_rep(RepTag.MAJORANA)
    for gamma in rep_m.gamma:
        assert all(e.conjugate() == -e for row in gamma.rows for e in row)


def test_classification_predicates():
    g = DP.gamma
    theta = g[1] * g[2] * g[3]
    assert classify(theta).in_class("K")
    assert not classify(theta).in_class("M")
    assert not classify(theta).in_class("N")
    assert classify(g[0].scale(I)).in_class("M")
    c2 = (g[2] * g[0]).scale(I)
    assert classify(c2).in_class("N") and classify(c2).signs[3] == 1
    # a sign that holds neither way reads 0: g0 + g1 is neither hermitian
    # nor antihermitian, and squares to 0
    assert classify(g[0] + g[1]).signs == (0, 0, 0, 1)
    assert not classify(g[0] + g[1]).in_class("K")


def _reference_sign(x: Mat4, m: Mat4) -> int:
    return 1 if x == m else -1 if x == -m else 0


def test_classify_settles_early_as_the_full_comparisons_do():
    # each sign is tested on the first nonzero entry of m before the whole
    # matrix, and the inverse sign on row 0 of M M before the whole square;
    # the cases pass those first tests and fail later, or pass throughout
    rng, g = random.Random(24), DP.gamma
    dense = random_dense(rng)
    lead = [[ONE if (i, j) == (0, 0) else x for j, x in enumerate(row)]
            for i, row in enumerate(dense.rows)]
    s_w = get_rep(RepTag.WEYL).s
    block = Mat4([[1, 0, 0, 0]] + [[0, *row[1:]] for row in dense.rows[1:]])
    cases = [dense, Mat4(lead), Mat4(lead).scale(I), s_w, s_w.scale(I),
             get_rep(RepTag.MAJORANA).s, block, g[0] + g[1], Mat4.zero(),
             *(b.scale(u) for b in DP.basis for u in (ONE, I))]
    for m in cases:
        want = (_reference_sign(m.dagger(), m),
                _reference_sign(m * m, Mat4.identity()),
                _reference_sign(m.transpose(), m),
                _reference_sign(m.conj(), m))
        assert classify(m).signs == want
    assert classify(s_w.scale(I)).signs[1] == -1
    assert classify(block).signs[1] == 0


def test_classify_signs_of_dense_structured_matrices():
    # A +- A†, A +- A~ and A +- A*, and i times each, have adjoint,
    # transpose and conjugate signs +-1 with no code; conjugates of
    # words by a dense B square to +-1.  Each broken copy fails its sign
    # only at entry (0, 0), where the scan settles which sign to test, or
    # only at (3, 2) or (3, 3), after agreeing on the first nonzero entry
    rng = random.Random(2025)
    a, b = random_dense(rng), random_dense(rng)
    binv = b.inverse()
    cases = []
    for f in (Mat4.dagger, Mat4.transpose, Mat4.conj):
        for m in (a + f(a), a - f(a)):
            cases += [m, m.scale(I)]
    cases += [b * w * binv for w in (DP.gamma[0], DP.gamma[0].scale(I),
                                     DP.basis[7], DP.basis[7].scale(I))]
    for m in list(cases):
        for i, j in ((0, 0), (3, 2), (3, 3)):
            rows = [list(row) for row in m.rows]
            rows[i][j] += Scalar(0, 1, 1)
            cases.append(Mat4(rows))
    cases += [a, Mat4.zero()]
    seen = [set() for _ in range(4)]
    for m in cases:
        assert monomial_code(m) is None or m == Mat4.zero()
        want = (_reference_sign(m.dagger(), m),
                _reference_sign(m * m, Mat4.identity()),
                _reference_sign(m.transpose(), m),
                _reference_sign(m.conj(), m))
        assert classify(m).signs == want
        for found, sign in zip(seen, want):
            found.add(sign)
    assert seen == [{-1, 0, 1}] * 4


def test_monomial_det_is_the_numerator_det_for_every_code():
    # sign(cols) i**sum(exponents), against the expansion on numerators
    # of the same entries with no code
    for cols in itertools.permutations(range(4)):
        for exps in itertools.product(range(4), repeat=4):
            m = from_code((cols, exps))
            plain = matrices._mat(m.rows, None)
            assert m.det() is plain.det()


def test_integer_signs_scale_like_their_units():
    dense = random_dense(random.Random(8))
    for m in (dense, DP.basis[5]):
        assert m.scale(1) == m and m.scale(-1) == -m
        assert m.scale(-1) == m.scale(MINUS_ONE)
        assert m.scale(2) == m + m
    assert DP.basis[5].scale(-1) is -DP.basis[5]


def test_basis_names_order():
    assert BASIS_NAMES[0] == "1"
    assert BASIS_NAMES[1:5] == ("g0", "g1", "g2", "g3")
    assert BASIS_NAMES[-1] == "g0g1g2g3"
    assert len(set(BASIS_NAMES)) == 16


def test_serialization_roundtrip():
    m = DP.gamma5.scale(Scalar(1, 2, 3, 4))
    assert Mat4([[Scalar(*x) for x in row] for row in m.to_json()]) == m


def entrywise(f) -> Mat4:
    """The reference Mat4 with entry f(i, j), through the public
    constructor."""
    return Mat4([[f(i, j) for j in range(4)] for i in range(4)])


def reference_inverse(m: Mat4) -> Mat4:
    """The adjugate over the determinant, by permutation expansion."""
    det = leibniz_det(m.rows)

    def minor(i, j):
        return [[m.rows[r][c] for c in range(4) if c != j]
                for r in range(4) if r != i]
    return entrywise(lambda i, j: Scalar((-1) ** (i + j))
                     * leibniz_det(minor(j, i)) / det)


def sample_matrices():
    """Seeded dense matrices and basis words of every representation
    times the units +-1, +-i, plus the negatives of some of them."""
    rng = random.Random(1018)
    units = (ONE, MINUS_ONE, I, -I)
    mats = [random_dense_mat(rng) for _ in range(6)]
    mats += [get_rep(tag).basis[rng.randrange(16)].scale(rng.choice(units))
             for tag in RepTag for _ in range(6)]
    return mats + [-m for m in mats[::5]]


def assert_canonical(m: Mat4) -> None:
    """Rows are four 4-tuples of Scalars, and every zero is ZERO."""
    assert type(m.rows) is tuple and len(m.rows) == 4
    for row in m.rows:
        assert type(row) is tuple and len(row) == 4
        for x in row:
            assert type(x) is Scalar and (x is ZERO) == x.is_zero()


def test_algebra_results_are_canonical_and_match_entrywise_references():
    rng = random.Random(7)
    mats = sample_matrices()
    pairs = [(a, b) for a in mats for b in (a, -a, rng.choice(mats))]
    c = Scalar(Fraction(-3, 2), 1, 0, Fraction(1, 3))
    for a, b in pairs:
        x, y = a.rows, b.rows
        for got, want in (
                (a + b, entrywise(lambda i, j: x[i][j] + y[i][j])),
                (a - b, entrywise(lambda i, j: x[i][j] - y[i][j])),
                (a * b, entrywise(lambda i, j: sum(
                    (x[i][k] * y[k][j] for k in range(4)), Scalar(0))))):
            assert_canonical(got)
            assert got == want
    for a in mats:
        x = a.rows
        for got, want in (
                (-a, entrywise(lambda i, j: -x[i][j])),
                (a.scale(c), entrywise(lambda i, j: c * x[i][j])),
                (a.scale(ZERO), entrywise(lambda i, j: Scalar(0))),
                (a.transpose(), entrywise(lambda i, j: x[j][i])),
                (a.conj(), entrywise(lambda i, j: x[i][j].conjugate())),
                (a.dagger(), entrywise(lambda i, j: x[j][i].conjugate())),
                (a.inverse(), reference_inverse(a))):
            assert_canonical(got)
            assert got == want
    assert_canonical(Mat4.zero())
    assert_canonical(Mat4.identity())


def test_basis_expand_is_the_trace_against_each_inverse_word(rep):
    for m in sample_matrices():
        coeffs = rep.basis_expand(m)
        for b, c in zip(rep.basis, coeffs):
            inv = b.scale((b * b).rows[0][0])
            assert inv * b == Mat4.identity()
            assert c == (inv * m).trace() / 4
            assert (c is ZERO) == c.is_zero()


def test_coded_algebra_equals_entrywise_algebra():
    # every u·B_k of the named presentations and of five seeded Clifford
    # bases is a monomial unit matrix, so its algebra composes codes; each
    # result must equal the entrywise reference, and so must the results
    # that mix it with a dense matrix.  The words permute rows by
    # involutions, so monomial matrices with 3- and 4-cycles join them
    rng = random.Random(15)
    reps = [get_rep(tag) for tag in RepTag]
    reps += [GammaRep(random_clifford(rng)) for _ in range(5)]
    dense = [random_dense_mat(rng) for _ in range(4)]
    cycles = [Mat4([[rng.choice(UNITS) if j == perm[i] else ZERO
                     for j in range(4)] for i in range(4)])
              for perm in ((1, 2, 0, 3), (1, 2, 3, 0), (3, 0, 1, 2))]
    for rep in reps:
        words = [b.scale(u) for b in rep.basis for u in UNITS]
        assert all(monomial_code(m) is not None for m in words + cycles)
        for a in words + cycles + dense:
            x = a.rows
            b, d = rng.choice(words), rng.choice(dense)
            products = ((a, b), (a, d), (d, a))
            for got, want in (
                    *((p * q, entrywise(lambda i, j: sum(
                        (p.rows[i][k] * q.rows[k][j] for k in range(4)),
                        Scalar(0)))) for p, q in products),
                    (-a, entrywise(lambda i, j: -x[i][j])),
                    (a.conj(), entrywise(lambda i, j: x[i][j].conjugate())),
                    (a.transpose(), entrywise(lambda i, j: x[j][i])),
                    (a.dagger(), entrywise(lambda i, j: x[j][i].conjugate())),
                    (a.inverse(), reference_inverse(a))):
                assert_canonical(got)
                assert got == want and hash(got) == hash(want)
            coeffs = rep.basis_expand(a)
            assert all(type(c) is Scalar for c in coeffs)
            assert entrywise(lambda i, j: sum(
                (c * w.rows[i][j] for c, w in zip(coeffs, rep.basis)),
                Scalar(0))) == a
            # the same entries, not yet scanned for a code
            plain = Mat4(x)
            assert plain == a and hash(plain) == hash(a)
            assert all((a == m) == (x == m.rows) for m in (b, d, -a))
    code = monomial_code(DP.basis[7])
    assert from_code(code) is from_code(code)
    assert DP.basis[7] * DP.basis[7] is Mat4.identity()
    assert Context().g1 is Context().g1


def triple_loop(a: Mat4, b: Mat4) -> Mat4:
    """The product by a plain loop of `Scalar` arithmetic."""
    return entrywise(lambda i, j: sum((a.rows[i][k] * b.rows[k][j]
                                       for k in range(4)), Scalar(0)))


def test_numerator_kernels_match_the_references_on_hard_inputs():
    # dense products, determinants, inverses and recombination run on
    # integer numerators over one denominator and reduce each entry once;
    # the inputs have many distinct denominators, and the inverse of a
    # dense matrix has entries over denominators of some twenty digits
    rng = random.Random(2110)
    dense = [hard_dense_mat(rng) for _ in range(3)] + [random_dense(rng)]
    dense.append(dense[0].inverse())
    assert max(x.den for row in dense[-1].rows for x in row) > 10 ** 18
    words = [get_rep(tag).basis[rng.randrange(16)].scale(rng.choice(UNITS))
             for tag in RepTag]
    cycle = Mat4([[0, 0, I, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, -I, 0, 0]])
    monomials = words + [cycle]
    assert all(monomial_code(m) is not None for m in monomials)
    for a in dense:
        det = a.det()
        assert det == leibniz_det(a.rows) and type(det) is Scalar
        inv = a.inverse()
        assert_canonical(inv)
        assert inv == reference_inverse(a)
        for b in dense:
            ab = a * b
            assert_canonical(ab)
            assert ab == triple_loop(a, b)
            assert ab.det() == det * b.det()
        for w in monomials:
            for p, q in ((w, a), (a, w)):
                got = p * q
                assert_canonical(got)
                assert got == triple_loop(p, q)
                assert (got.det() == p.det() * q.det()
                        == leibniz_det(got.rows))
    # a rank-3 dense matrix: its last row a combination of the others
    a = dense[1]
    rows = list(a.rows[:3]) + [[x * Scalar(1, 2) - y + z * INV_SQRT2
                                for x, y, z in zip(*a.rows[:3])]]
    singular = Mat4(rows)
    assert singular.det() is ZERO and leibniz_det(singular.rows).is_zero()
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_recombine_inverts_basis_expand_for_every_basis():
    rng = random.Random(2111)
    # a T gate after a seeded Clifford word: some basis words then have
    # entries other than 0 and the units, and so do their inverses
    clifford_t = GammaRep(T_GATES[0] * random_clifford(random.Random(4)))
    assert any(monomial_code(b) is None for b in clifford_t.basis)
    mats = [hard_dense_mat(rng), random_dense(rng), random_dense_mat(rng)]
    mats += [mats[0].inverse(), Mat4.zero(), DP.basis[9].scale(I)]
    for rep in [get_rep(tag) for tag in RepTag] + [clifford_t]:
        for m in mats + [rep.basis[5], rep.s]:
            coeffs = rep.basis_expand(m)
            assert all(type(c) is Scalar and (c is ZERO) == c.is_zero()
                       for c in coeffs)
            back = rep.recombine(coeffs)
            assert_canonical(back)
            assert back == m
            assert back == entrywise(lambda i, j: sum(
                (c * b.rows[i][j] for c, b in zip(coeffs, rep.basis)),
                Scalar(0)))


def test_basis_maps_of_monomial_words_turn_numerators(monkeypatch):
    # where every word is monomial, c_k and the recombined entries are sums
    # of numerators turned by i**e; they equal the general map, made of
    # numerator products, built for the same words with no unit read as
    # an exponent.  The T x 1 basis keeps the general map and round-trips
    rng = random.Random(2025)
    reps = [get_rep(tag) for tag in RepTag]
    reps.append(GammaRep(random_clifford(rng)))
    mats = [random_dense(rng), random_dense_mat(rng), hard_dense_mat(rng)]
    mats.append(mats[0].inverse())
    for rep in reps:
        general = GammaRep(rep.s)
        with monkeypatch.context() as patched:
            patched.setattr(matrices, "_EXPONENT", {})
            maps = general._maps
        assert [f for _, f, _ in rep._maps] == [matrices._turns] * 2
        assert [f for _, f, _ in maps] == [matrices._dot] * 2
        for m in mats:
            coeffs = rep.basis_expand(m)
            assert coeffs == general.basis_expand(m)
            back = rep.recombine(coeffs)
            assert_canonical(back)
            assert back == m and back.rows == general.recombine(coeffs).rows
    t_rep = GammaRep(T_GATES[0])
    assert [f for _, f, _ in t_rep._maps] == [matrices._dot] * 2
    for m in mats:
        assert t_rep.recombine(t_rep.basis_expand(m)) == m
