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

    @staticmethod
    def from_blocks(a: Sequence, b: Sequence, c: Sequence, d: Sequence) -> "Mat4":
        """Assemble [[A, B], [C, D]] from four 2x2 blocks."""
        rows = []
        for i in range(2):
            rows.append(list(a[i]) + list(b[i]))
        for i in range(2):
            rows.append(list(c[i]) + list(d[i]))
        return Mat4(rows)

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
        for col in range(4):
            piv = next((r for r in range(col, 4) if not m[r][col].is_zero()),
                       None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            m[col], m[piv] = m[piv], m[col]
            inv = m[col][col].inverse()
            prow = m[col] = [x * inv for x in m[col]]
            for r in range(4):
                f = m[r][col]
                if r != col and not f.is_zero():
                    m[r] = [x - f * y if not y.is_zero() else x
                            for x, y in zip(m[r], prow)]
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

    @classmethod
    def from_json(cls, data) -> "Mat4":
        return cls([[Scalar.from_json(x) for x in row] for row in data])


def _det3(m) -> Scalar:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# -- 2x2 building blocks ----------------------------------------------------

SIGMA1 = ((ZERO, ONE), (ONE, ZERO))
SIGMA2 = ((ZERO, -I), (I, ZERO))
SIGMA3 = ((ONE, ZERO), (ZERO, MINUS_ONE))
ID2 = ((ONE, ZERO), (ZERO, ONE))
ZERO2 = ((ZERO, ZERO), (ZERO, ZERO))


def _neg2(block):
    return tuple(tuple(-x for x in row) for row in block)


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
    in the fixed `BASIS_WORDS` order; `basis_grades` gives the number of
    gamma factors mod 2 for each element.
    """

    tag: RepTag
    gamma: tuple[Mat4, Mat4, Mat4, Mat4]
    gamma5: Mat4
    basis: tuple[Mat4, ...]

    @property
    def basis_grades(self) -> tuple[int, ...]:
        return tuple(len(w) % 2 for w in BASIS_WORDS)

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
        coeffs = self.basis_expand(m)
        grades = {g for c, g in zip(coeffs, self.basis_grades)
                  if not c.is_zero()}
        if grades <= {0}:
            return Grade.EVEN
        if grades == {1}:
            return Grade.ODD
        return Grade.MIXED

    def alpha(self, m: Mat4) -> Mat4:
        """Canonical involution: negate the odd part of the grading."""
        coeffs = self.basis_expand(m)
        signed = [(-c if g else c)
                  for c, g in zip(coeffs, self.basis_grades)]
        return self.recombine(signed)

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


def dirac_pauli_rep() -> GammaRep:
    """The standard presentation: gamma_0 diagonal, Pauli off-blocks."""
    g0 = Mat4.from_blocks(ID2, ZERO2, ZERO2, _neg2(ID2))
    gk = [Mat4.from_blocks(ZERO2, s, _neg2(s), ZERO2)
          for s in (SIGMA1, SIGMA2, SIGMA3)]
    return _build_rep(RepTag.DIRAC_PAULI, [g0] + gk)


def weyl_transform(dp: GammaRep) -> Mat4:
    """S = (1/sqrt 2)(gamma_0 - gamma_5); satisfies S = S† = S^-1."""
    return (dp.gamma[0] - dp.gamma5).scale(INV_SQRT2)


def majorana_transform(dp: GammaRep) -> Mat4:
    """S = (1/sqrt 2)(gamma_2 gamma_0 + gamma_0); satisfies S = S† = S^-1."""
    return (dp.gamma[2] * dp.gamma[0] + dp.gamma[0]).scale(INV_SQRT2)


# the change of basis from the standard presentation to each other one;
# each transform is involutive, so it also maps back to the standard one
TRANSFORMS = {RepTag.WEYL: weyl_transform, RepTag.MAJORANA: majorana_transform}


def conjugate_representation(rep: GammaRep, target: RepTag) -> GammaRep:
    """Conjugate the standard presentation into the Weyl or Majorana one."""
    if rep.tag is not RepTag.DIRAC_PAULI:
        raise ValueError("source representation must be the standard one")
    if target is RepTag.DIRAC_PAULI:
        return rep
    if target not in TRANSFORMS:
        raise ValueError(f"unknown target representation {target}")
    s = TRANSFORMS[target](rep)
    sd = s.dagger()
    if s != sd or (s * s) != Mat4.identity():
        raise AssertionError("transform must be hermitian and involutive")
    return _build_rep(target, [s * g * sd for g in rep.gamma])


@cache
def get_rep(tag: RepTag) -> GammaRep:
    """The presentation `tag`, built once: a GammaRep is immutable, so
    every caller can share it."""
    dp = dirac_pauli_rep()
    if tag is RepTag.DIRAC_PAULI:
        return dp
    return conjugate_representation(dp, tag)


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

    @property
    def in_K(self) -> bool:
        """Traceless hermitian unitary unimodular antisymmetric."""
        return (self.traceless and self.hermitian and self.unitary
                and self.unimodular and self.antisymmetric)

    @property
    def in_M(self) -> bool:
        """Traceless antihermitian unitary unimodular symmetric."""
        return (self.traceless and self.antihermitian and self.unitary
                and self.unimodular and self.symmetric)

    @property
    def in_N(self) -> bool:
        """Traceless antihermitian unitary unimodular antisymmetric."""
        return (self.traceless and self.antihermitian and self.unitary
                and self.unimodular and self.antisymmetric)


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
