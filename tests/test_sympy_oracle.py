"""An independent oracle: sympy's exact linear algebra over Q(i, √2).

The kernels, determinants and inverses computed by `cptgroup` are checked
against sympy, which shares no arithmetic with `cptgroup.scalars`.  Each
constraint system is rebuilt here straight from the gamma matrices, as
equations in the sixteen entries of the unknown matrix X, without going
through the Clifford basis; the Clifford-basis expansion itself is checked
against sympy's inverse of each representation's basis system.
"""

from functools import cache

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from cptgroup.matrices import (Mat4, RepTag, get_rep,  # noqa: E402
                               majorana_transform, weyl_transform)
from cptgroup.solver import (SYSTEMS, canonical_sets,  # noqa: E402
                             constraint_system, solve_system)

K = sympy.QQ.algebraic_field(sympy.I, sympy.sqrt(2))


def _number(x):
    """The Scalar p + qi + r√2 + si√2 as a sympy number."""
    p, q, r, s = (sympy.Rational(c.numerator, c.denominator)
                  for c in (x.p, x.q, x.r, x.s))
    return p + q * sympy.I + (r + s * sympy.I) * sympy.sqrt(2)


def _sym(m: Mat4) -> sympy.Matrix:
    return sympy.Matrix([[_number(x) for x in row] for row in m.rows])


def _field(m: sympy.Matrix) -> DomainMatrix:
    return DomainMatrix([[K.from_sympy(e) for e in row] for row in m.tolist()],
                        m.shape, K)


def _relations(symmetry: str, g: list) -> list:
    """(R, s, L) for each defining equation X R = s L X."""
    if symmetry == "p":                       # X g0 = g0 X, X gk = -gk X
        return [(g[0], 1, g[0])] + [(g[k], -1, g[k]) for k in (1, 2, 3)]
    if symmetry == "c":                       # X gmu~ = -gmu X
        return [(g[mu].T, -1, g[mu]) for mu in range(4)]
    # X g0* = g0 X, X gk* = -gk X
    return [(g[0].conjugate(), 1, g[0])] + [
        (g[k].conjugate(), -1, g[k]) for k in (1, 2, 3)]


def _equations(relations: list) -> DomainMatrix:
    """The linear map X -> (X R - s L X) for every relation, on the
    entries X[a, b] at column 4a + b."""
    rows = []
    for r, s, l in relations:
        r, s, l = _field(r).to_list(), K.convert(s), _field(l).to_list()
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
    space = solve_system(constraint_system(symmetry, rep), rep)
    assert space.dimension == 1
    x = _sym(space.basis[0]).reshape(16, 1)
    assert not x.is_zero_matrix
    assert a.matmul(_field(x)).is_zero_matrix


def _paper_matrices() -> list[Mat4]:
    """The 48 basis words of the three presentations, the two changes of
    basis, and C, P, T, θ of both solution families."""
    dp = get_rep(RepTag.DIRAC_PAULI)
    out = [b for tag in RepTag for b in get_rep(tag).basis]
    out += [weyl_transform(dp), majorana_transform(dp)]
    for sol in canonical_sets().values():
        out += [sol.C, sol.P, sol.T, sol.theta]
    return out


def test_det_and_inverse_agree_with_sympy():
    matrices = _paper_matrices()
    assert len(matrices) == 58
    for m in matrices:
        want = _field(_sym(m))
        assert K.from_sympy(_number(m.det())) == want.det()
        assert _field(_sym(m.inverse())) == want.inv()


def test_basis_expand_agrees_with_sympy():
    matrices = _paper_matrices()
    # the paper's matrices share a handful of distinct entries, and each
    # conversion into K costs milliseconds
    entry = cache(lambda x: K.from_sympy(_number(x)))

    def columns(ms: list) -> DomainMatrix:
        """The sixteen entries of each matrix, one matrix per column."""
        return DomainMatrix([[entry(m.rows[i][j]) for m in ms]
                             for i in range(4) for j in range(4)],
                            (16, len(ms)), K)

    targets = columns(matrices)
    for tag in RepTag:
        rep = get_rep(tag)
        # column k of the basis system is basis word k, so its inverse
        # takes a matrix's entries to its coefficients
        want = columns(rep.basis).inv().matmul(targets).to_list()
        got = [[entry(c) for c in rep.basis_expand(m)] for m in matrices]
        assert [list(col) for col in zip(*got)] == want
