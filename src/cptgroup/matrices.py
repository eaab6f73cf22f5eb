"""Exact 4x4 matrices, the gamma matrices, and the 16-element algebra basis.

The Dirac algebra is spanned by the sixteen products of distinct gamma
matrices.  All matrices here have entries in Q(i, sqrt(2)) (see
`cptgroup.scalars`), so equality, kernels, determinants and inverses are
exact.  Three conjugate presentations of the gamma matrices are provided:
the standard (Dirac-Pauli) one, and its Weyl and Majorana conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Iterable, Sequence

from .scalars import I, INV_SQRT2, MINUS_ONE, ONE, Scalar, ZERO


class Mat4:
    """Immutable 4x4 matrix over Q(i, sqrt(2))."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        entries = tuple(tuple(x if isinstance(x, Scalar) else Scalar(x)
                              for x in row) for row in rows)
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ValueError("Mat4 requires a 4x4 array")
        object.__setattr__(self, "rows", entries)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat4 is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "Mat4":
        return Mat4([[ZERO] * 4 for _ in range(4)])

    @staticmethod
    def identity() -> "Mat4":
        return Mat4([[ONE if i == j else ZERO for j in range(4)]
                     for i in range(4)])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4([[self.rows[i][j] + other.rows[i][j] for j in range(4)]
                     for i in range(4)])

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4([[self.rows[i][j] - other.rows[i][j] for j in range(4)]
                     for i in range(4)])

    def __neg__(self) -> "Mat4":
        return Mat4([[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat4):
            # skip zero entries: the gamma-matrix products handled here
            # are sparse, with typically one nonzero entry per row
            out = []
            for i in range(4):
                row = [ZERO, ZERO, ZERO, ZERO]
                for k in range(4):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    brow = other.rows[k]
                    for j in range(4):
                        if not brow[j].is_zero():
                            row[j] = row[j] + a * brow[j]
                out.append(row)
            return Mat4(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Mat4":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return Mat4([[c * x for x in row] for row in self.rows])

    def transpose(self) -> "Mat4":
        return Mat4([[self.rows[j][i] for j in range(4)] for i in range(4)])

    def conj(self) -> "Mat4":
        """Entrywise complex conjugate."""
        return Mat4([[x.conjugate() for x in row] for row in self.rows])

    def dagger(self) -> "Mat4":
        return self.transpose().conj()

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(4)), ZERO)

    def det(self) -> Scalar:
        """Determinant by cofactor expansion along the first row."""
        total = ZERO
        for j in range(4):
            a = self.rows[0][j]
            if a.is_zero():
                continue
            minor = [[self.rows[i][k] for k in range(4) if k != j]
                     for i in range(1, 4)]
            cof = _det3(minor)
            total = total + a * cof if j % 2 == 0 else total - a * cof
        return total

    def inverse(self) -> "Mat4":
        """Inverse by Gauss-Jordan elimination of [M | 1]; raises
        ZeroDivisionError if singular."""
        m = [list(row) + [ONE if i == j else ZERO for j in range(4)]
             for i, row in enumerate(self.rows)]
        if row_reduce(m, 4) != [0, 1, 2, 3]:
            raise ZeroDivisionError("singular matrix")
        return Mat4(row[4:] for row in m)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.rows)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Mat4[{body}]"

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.rows]


def row_reduce(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Bring `rows` to reduced row echelon form in its first `ncols`
    columns, in place, by Gauss-Jordan elimination that skips zero
    entries; returns the pivot columns, the i-th pivot in row i."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows))
                    if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = rows[rank] = [x * inv for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and not f.is_zero():
                rows[r] = [x - f * y if not y.is_zero() else x
                           for x, y in zip(row, prow)]
        pivots.append(col)
    return pivots


def _det3(m) -> Scalar:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# -- 2x2 building blocks ----------------------------------------------------

SIGMA1 = ((ZERO, ONE), (ONE, ZERO))
SIGMA2 = ((ZERO, -I), (I, ZERO))
SIGMA3 = ((ONE, ZERO), (ZERO, MINUS_ONE))
ID2 = ((ONE, ZERO), (ZERO, ONE))


def _kron(a, b) -> Mat4:
    """The Kronecker product of two 2x2 blocks."""
    return Mat4([[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)]
                 for i in range(4)])


# -- canonical basis ----------------------------------------------------------

# Index words for the sixteen products of distinct gamma matrices, in the
# fixed order used throughout: the empty product, the four generators, the
# six pairs, the four triples, and the full product.
BASIS_WORDS: tuple[tuple[int, ...], ...] = (
    (),
    (0,), (1,), (2,), (3,),
    (0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1),
    (0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1),
    (0, 1, 2, 3),
)

BASIS_NAMES: tuple[str, ...] = tuple(
    "1" if not w else "".join(f"g{i}" for i in w) for w in BASIS_WORDS
)


class Grade(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


class RepTag(Enum):
    DIRAC_PAULI = "dp"
    WEYL = "weyl"
    MAJORANA = "majorana"


@dataclass(frozen=True)
class GammaRep:
    """A gamma-matrix presentation plus derived structure.

    `basis` is the canonical 16-element basis of the full matrix algebra,
    in the fixed `BASIS_WORDS` order.
    """

    tag: RepTag
    gamma: tuple[Mat4, Mat4, Mat4, Mat4]
    gamma5: Mat4
    basis: tuple[Mat4, ...]

    @cached_property
    def _duals(self) -> tuple[tuple[tuple[int, int, Scalar], ...], ...]:
        """The nonzero entries (i, j, d) of each dual B_k^-1 / 4.

        The basis words are trace-orthogonal, tr(B_j^-1 B_k) = 4 delta_jk,
        and each squares to +-1, so B_k^-1 = (B_k^2)_00 * B_k.
        """
        duals = []
        for b in self.basis:
            square = b * b
            sign = square.rows[0][0]
            if sign not in (ONE, MINUS_ONE) or \
                    square != Mat4.identity().scale(sign):
                raise ValueError("basis word does not square to +-1")
            dual = b.scale(sign * Scalar("1/4"))
            duals.append(tuple((i, j, x) for i, row in enumerate(dual.rows)
                               for j, x in enumerate(row) if not x.is_zero()))
        return tuple(duals)

    def basis_expand(self, m: Mat4) -> list[Scalar]:
        """Coefficients c_k with m = sum(c_k * basis_k), as c_k =
        tr(B_k^-1 m) / 4: only the diagonal of the product is formed."""
        rows = m.rows
        return [sum((d * rows[j][i] for i, j, d in dual), ZERO)
                for dual in self._duals]

    def recombine(self, coeffs: Sequence[Scalar]) -> Mat4:
        out = Mat4.zero()
        for c, b in zip(coeffs, self.basis):
            if not c.is_zero():
                out = out + b.scale(c)
        return out

    def parity_grade(self, m: Mat4) -> Grade:
        a = self.alpha(m)
        if a == m:
            return Grade.EVEN
        if a == -m:
            return Grade.ODD
        return Grade.MIXED

    def alpha(self, m: Mat4) -> Mat4:
        """Canonical involution, negating the odd part of the grading:
        conjugation by gamma_5, which anticommutes with every gamma_mu
        and squares to 1."""
        return self.gamma5 * m * self.gamma5

    def preserves_gamma_span(self, g: Mat4) -> bool:
        """Twisted-adjoint check: alpha(g) gamma_mu g^-1 stays in the
        complex span of the four gamma matrices, for every mu."""
        ginv = g.inverse()
        ag = self.alpha(g)
        span_indices = {1, 2, 3, 4}
        for mu in range(4):
            w = ag * self.gamma[mu] * ginv
            coeffs = self.basis_expand(w)
            support = {k for k, c in enumerate(coeffs) if not c.is_zero()}
            if not support <= span_indices:
                return False
        return True


def _build_rep(tag: RepTag, gammas: Sequence[Mat4]) -> GammaRep:
    g = tuple(gammas)
    gamma5 = (-I) * (g[0] * g[1] * g[2] * g[3])
    basis = tuple(_word_product(g, w) for w in BASIS_WORDS)
    return GammaRep(tag=tag, gamma=g, gamma5=gamma5, basis=basis)


def _word_product(g: Sequence[Mat4], word: tuple[int, ...]) -> Mat4:
    out = Mat4.identity()
    for k in word:
        out = out * g[k]
    return out


def weyl_transform(dp: GammaRep) -> Mat4:
    """S = (1/sqrt 2)(gamma_0 - gamma_5); satisfies S = S† = S^-1."""
    return (dp.gamma[0] - dp.gamma5).scale(INV_SQRT2)


def majorana_transform(dp: GammaRep) -> Mat4:
    """S = (1/sqrt 2)(gamma_2 gamma_0 + gamma_0); satisfies S = S† = S^-1."""
    return (dp.gamma[2] * dp.gamma[0] + dp.gamma[0]).scale(INV_SQRT2)


# the change of basis from the standard presentation to each other one;
# each transform is involutive, so it also maps back to the standard one
TRANSFORMS = {RepTag.WEYL: weyl_transform, RepTag.MAJORANA: majorana_transform}


@cache
def get_rep(tag: RepTag) -> GammaRep:
    """The presentation `tag`, built once: a GammaRep is immutable, so
    every caller can share it.  The standard one has gamma_0 diagonal and
    Pauli off-blocks, in the two-qubit form gamma_0 = s3 x 1, gamma_k =
    i s2 x sk; the others are its conjugates S g S† by the `TRANSFORMS`
    of their tags."""
    if tag is RepTag.DIRAC_PAULI:
        g0 = _kron(SIGMA3, ID2)
        gk = [_kron(SIGMA2, s).scale(I) for s in (SIGMA1, SIGMA2, SIGMA3)]
        return _build_rep(tag, [g0] + gk)
    dp = get_rep(RepTag.DIRAC_PAULI)
    s = TRANSFORMS[tag](dp)
    sd = s.dagger()
    if s != sd or (s * s) != Mat4.identity():
        raise AssertionError("transform must be hermitian and involutive")
    return _build_rep(tag, [s * g * sd for g in dp.gamma])


# -- matrix classification -----------------------------------------------------

@dataclass(frozen=True)
class MatrixClass:
    unitary: bool
    unimodular: bool
    traceless: bool
    hermitian: bool
    antihermitian: bool
    symmetric: bool
    antisymmetric: bool
    real_entries: bool
    imaginary_entries: bool

    def in_class(self, name: str) -> bool:
        """Membership of class K, M or N: traceless, unitary and unimodular,
        with the adjoint and transpose signs of `CLASS_SIGNS[name]`."""
        adjoint, _, transpose, _ = CLASS_SIGNS[name]
        return (self.traceless and self.unitary and self.unimodular
                and (self.hermitian if adjoint == 1 else self.antihermitian)
                and (self.symmetric if transpose == 1
                     else self.antisymmetric))


# the signs s with M† = sM, M^-1 = sM, M~ = sM and M* = sM shared by the
# unitary members of each class: K hermitian and antisymmetric, M
# antihermitian and symmetric, N antihermitian and antisymmetric
CLASS_SIGNS = {"K": (1, 1, -1, -1), "M": (-1, -1, 1, -1),
               "N": (-1, -1, -1, 1)}


def classify(m: Mat4) -> MatrixClass:
    ident = Mat4.identity()
    t = m.transpose()
    d = m.dagger()
    return MatrixClass(
        unitary=(m * d == ident),
        unimodular=(m.det() == ONE),
        traceless=m.trace().is_zero(),
        hermitian=(d == m),
        antihermitian=(d == -m),
        symmetric=(t == m),
        antisymmetric=(t == -m),
        real_entries=all(x.is_real() for row in m.rows for x in row),
        imaginary_entries=all(x.is_imaginary() for row in m.rows for x in row),
    )
