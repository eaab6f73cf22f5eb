"""An independent oracle: sympy's exact linear algebra over Q(i, √2), and
its coset enumeration.

The kernels, determinants and inverses computed by `cptgroup` are checked
against sympy, which shares no arithmetic with `cptgroup.scalars`, and
so are the class signs of `classify`.  Each
constraint system is rebuilt here straight from its matrices, as
equations in the sixteen entries of the unknown matrix X, without going
through the Clifford basis; the Clifford-basis expansion itself is checked
against sympy's inverse of each representation's basis system.  The order
of the group that the operator group's sign relations present is found by
sympy's Todd-Coxeter enumeration, which shares no code with
`cptgroup.groups`.
"""

import random

import pytest
from conftest import random_dense, signs_of, word_systems

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from sympy.combinatorics.fp_groups import FpGroup  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402

from cptgroup.matrices import Mat4, RepTag, classify, get_rep  # noqa: E402
from cptgroup.operator_group import build_operator_group  # noqa: E402
from cptgroup.solver import (SYSTEMS, ConstraintSystem,  # noqa: E402
                             Relation, canonical_sets, constraint_system,
                             kernel, solve_system)

K = sympy.QQ.algebraic_field(sympy.I, sympy.sqrt(2))


def _number(x):
    """The Scalar p + qi + r√2 + si√2 as a sympy number."""
    p, q, r, s = (sympy.Rational(c.numerator, c.denominator)
                  for c in (x.p, x.q, x.r, x.s))
    return p + q * sympy.I + (r + s * sympy.I) * sympy.sqrt(2)


def _sym(m: Mat4) -> sympy.Matrix:
    return sympy.Matrix([[_number(x) for x in row] for row in m.rows])


_I, _SQRT2 = K.from_sympy(sympy.I), K.from_sympy(sympy.sqrt(2))


def _entry(x):
    """The Scalar p + qi + r√2 + si√2 as an element of K, by K's own
    arithmetic on its rational components: `K.from_sympy` of a dense
    entry's expression takes tens of milliseconds."""
    p, q, r, s = (K.convert(sympy.Rational(c.numerator, c.denominator))
                  for c in (x.p, x.q, x.r, x.s))
    return p + q * _I + (r + s * _I) * _SQRT2


def _entries(ms: list[Mat4]) -> DomainMatrix:
    """The sixteen entries of each Mat4, one matrix per column."""
    return DomainMatrix([[_entry(m.rows[i][j]) for m in ms]
                         for i in range(4) for j in range(4)],
                        (16, len(ms)), K)


def _domain(m: Mat4) -> DomainMatrix:
    return DomainMatrix([[_entry(x) for x in row] for row in m.rows],
                        (4, 4), K)


def _field(m: sympy.Matrix) -> DomainMatrix:
    return DomainMatrix([[K.from_sympy(e) for e in row] for row in m.tolist()],
                        m.shape, K)


def _relations(symmetry: str, g: list) -> list:
    """(R, s, L) for each defining equation X R = s L X, R and L in K."""
    if symmetry == "p":                       # X g0 = g0 X, X gk = -gk X
        out = [(g[0], 1, g[0])] + [(g[k], -1, g[k]) for k in (1, 2, 3)]
    elif symmetry == "c":                     # X gmu~ = -gmu X
        out = [(g[mu].T, -1, g[mu]) for mu in range(4)]
    else:                                     # X g0* = g0 X, X gk* = -gk X
        out = [(g[0].conjugate(), 1, g[0])] + [
            (g[k].conjugate(), -1, g[k]) for k in (1, 2, 3)]
    return [(_field(r), s, _field(l)) for r, s, l in out]


def _equations(relations: list) -> DomainMatrix:
    """The linear map X -> (X R - s L X) for every relation, R and L
    DomainMatrices over K, on the entries X[a, b] at column 4a + b."""
    rows = []
    for r, s, l in relations:
        r, s, l = r.to_list(), K.convert(s), l.to_list()
        for i in range(4):
            for j in range(4):
                row = [K.zero] * 16
                for k in range(4):
                    row[4 * i + k] += r[k][j]          # (X R)[i, j]
                    row[4 * k + j] -= s * l[i][k]      # (L X)[i, j]
                rows.append(row)
    return DomainMatrix(rows, (len(rows), 16), K)


def test_dirac_pauli_gammas_are_the_standard_ones():
    sigma = [sympy.Matrix([[0, 1], [1, 0]]),
             sympy.Matrix([[0, -sympy.I], [sympy.I, 0]]),
             sympy.Matrix([[1, 0], [0, -1]])]
    one, zero = sympy.eye(2), sympy.zeros(2)
    want = [sympy.BlockMatrix([[one, zero], [zero, -one]]).as_explicit()]
    want += [sympy.BlockMatrix([[zero, s], [-s, zero]]).as_explicit()
             for s in sigma]
    assert [_sym(g) for g in get_rep(RepTag.DIRAC_PAULI).gamma] == want


@pytest.mark.parametrize("tag", list(RepTag), ids=lambda t: t.value)
@pytest.mark.parametrize("symmetry", list(SYSTEMS))
def test_kernel_is_the_sympy_nullspace(symmetry, tag):
    rep = get_rep(tag)
    a = _equations(_relations(symmetry, [_sym(g) for g in rep.gamma]))
    assert a.nullspace().shape[0] == 1
    for space in (solve_system(constraint_system(symmetry, rep), rep),
                  kernel(symmetry, rep)):
        assert space.dimension == 1
        x = _sym(space.basis[0]).reshape(16, 1)
        assert not x.is_zero_matrix
        assert a.matmul(_field(x)).is_zero_matrix


@pytest.mark.parametrize("tag", list(RepTag), ids=lambda t: t.value)
def test_dense_commutant_is_the_sympy_nullspace(tag):
    # X A = A X for a dense A: every expansion in `solve_system` takes the
    # trace path, which the paper's systems never reach
    a = random_dense(random.Random(tag.value))
    space = solve_system(ConstraintSystem((Relation(a, a, 1),)), get_rep(tag))
    eqs = _equations([(_domain(a), 1, _domain(a))])
    assert space.dimension == eqs.nullspace().shape[0]
    assert eqs.matmul(_entries(space.basis)).is_zero_matrix


@pytest.mark.parametrize("tag", list(RepTag), ids=lambda t: t.value)
def test_word_system_kernels_are_the_sympy_nullspace(tag):
    # systems X f(B_j) = +-B_k X whose kernels span several words: their
    # rows come from the word product table, apart from the entries of X
    rep, dims = get_rep(tag), set()
    for system in word_systems(random.Random(23), rep):
        space = solve_system(system, rep)
        if space.dimension > 1:
            eqs = _equations([(_domain(r.right), r.sign, _domain(r.left))
                              for r in system.relations])
            assert space.dimension == eqs.nullspace().shape[0]
            assert eqs.matmul(_entries(space.basis)).is_zero_matrix
            dims.add(space.dimension)
    assert dims


def _paper_matrices() -> list[Mat4]:
    """The 48 basis words of the three presentations, the two changes of
    basis, and C, P, T, θ of both solution families."""
    out = [b for tag in RepTag for b in get_rep(tag).basis]
    out += [get_rep(RepTag.WEYL).s, get_rep(RepTag.MAJORANA).s]
    for sol in canonical_sets().values():
        out += [sol.C, sol.P, sol.T, sol.theta]
    return out


def test_det_and_inverse_agree_with_sympy():
    matrices = _paper_matrices()
    assert len(matrices) == 58
    for m in matrices:
        want = _domain(m)
        assert _entry(m.det()) == want.det()
        assert _domain(m.inverse()) == want.inv()


def _sign(image, m) -> int:
    return 1 if image == m else -1 if image == -m else 0


def test_class_signs_agree_with_sympy():
    # M†, M~ and M* each against M and -M as expanded sympy expressions,
    # M^-1 and det M in K, and the trace against 0
    seen = set()
    for m in _paper_matrices():
        x, want = _sym(m).expand(), _domain(m)
        signs = (_sign(x.H.expand(), x), _sign(want.inv(), want),
                 _sign(x.T, x), _sign(x.conjugate().expand(), x))
        got = classify(m)
        assert got.signs == signs
        assert got.unimodular == (want.det() == K.one)
        assert got.traceless == (x.trace() == 0)
        seen.update(signs)
    assert seen == {-1, 0, 1}


def test_basis_expand_agrees_with_sympy():
    matrices = _paper_matrices()
    targets = _entries(matrices)
    for tag in RepTag:
        rep = get_rep(tag)
        # column k of the basis system is basis word k, so its inverse
        # takes a matrix's entries to its coefficients
        want = _entries(rep.basis).inv().matmul(targets).to_list()
        got = [[_entry(c) for c in rep.basis_expand(m)] for m in matrices]
        assert [list(col) for col in zip(*got)] == want


def test_sign_relations_present_a_group_of_order_sixteen():
    # ⟨c, p, t, z | x² = z^e, xy = z^e·yx, z central of order 2⟩ with the
    # signs read off the operator group that the field action builds: it
    # has sixteen elements and obeys these relations, so with order 16
    # here it is the presented group
    squares, kappa = signs_of(build_operator_group())
    assert squares == (1, -1, -1) and kappa == (1, 1, -1)
    free, c, p, t, z = free_group("c p t z")
    gens = (c, p, t)
    power = {1: free.identity, -1: z}
    relators = [z**2] + [z * x * z**-1 * x**-1 for x in gens]
    relators += [x**2 * power[sq]**-1 for x, sq in zip(gens, squares)]
    relators += [x * y * x**-1 * y**-1 * power[k]**-1 for (x, y), k in zip(
        ((c, p), (c, t), (p, t)), kappa)]
    assert FpGroup(free, relators).order() == 16
