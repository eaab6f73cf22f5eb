"""Exact 4x4 matrices, the gamma matrices, and the 16-element algebra basis.

The Dirac algebra is spanned by the sixteen products of distinct gamma
matrices.  All matrices here have entries in Q(i, sqrt(2)) (see
`cptgroup.scalars`), so equality, kernels, determinants and inverses are
exact.  Three conjugate presentations of the gamma matrices are provided:
the standard (Dirac-Pauli) one, and its Weyl and Majorana conjugates.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence

from .scalars import I, INV_SQRT2, MINUS_ONE, ONE, UNITS, Scalar, ZERO

_QUARTER = Scalar("1/4")


class Mat4:
    """4x4 matrix over Q(i, sqrt(2)), immutable by convention like `Scalar`:
    its rows are four 4-tuples of Scalars, each zero the shared `ZERO`.
    Results of its algebra are built by `_mat`, with no re-check; those of
    monomial unit matrices compose their `monomial_code`s, kept in `_code`,
    and are the one object per code of `from_code`."""

    __slots__ = ("rows", "_hash", "_code")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        entries = tuple(tuple(x if isinstance(x, Scalar) else Scalar(x)
                              for x in row) for row in rows)
        if len(entries) != 4 or any(len(r) != 4 for r in entries):
            raise ValueError("Mat4 requires a 4x4 array")
        self.rows = entries
        self._hash = None
        self._code = _UNSCANNED

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "Mat4":
        return _ZERO_MAT

    @staticmethod
    def identity() -> "Mat4":
        return _IDENTITY

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Mat4") -> "Mat4":
        return _mat(tuple(tuple(x + y for x, y in zip(r, s))
                          for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat4") -> "Mat4":
        return _mat(tuple(tuple(x - y for x, y in zip(r, s))
                          for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat4":
        if monomial_code(self) is not None:
            return self.scale(MINUS_ONE)
        return _mat(tuple(tuple(-x for x in row) for row in self.rows), None)

    def __mul__(self, other: "Mat4") -> "Mat4":
        a, b = monomial_code(self), monomial_code(other)
        if a is not None and b is not None:
            return from_code(code_product(a, b))
        # skip zero entries: a product with a monomial factor has at most
        # one nonzero term per entry
        out = []
        for arow in self.rows:
            row = [ZERO, ZERO, ZERO, ZERO]
            for a, brow in zip(arow, other.rows):
                if a is ZERO:
                    continue
                for j, b in enumerate(brow):
                    if b is not ZERO:
                        row[j] = row[j] + a * b
            out.append(tuple(row))
        return _mat(tuple(out))

    def scale(self, c) -> "Mat4":
        c = c if isinstance(c, Scalar) else Scalar(c)
        code, e = monomial_code(self), _EXPONENT.get(id(c))
        if code is not None and e is not None:
            return from_code((code[0], tuple((x + e) % 4 for x in code[1])))
        return _mat(tuple(tuple(x if x is ZERO else c * x for x in row)
                          for row in self.rows))

    def transpose(self) -> "Mat4":
        if (code := monomial_code(self)) is not None:
            # the entry of row r moves to row cols[r]
            rows = tuple(sorted(range(4), key=code[0].__getitem__))
            return from_code((rows, tuple(code[1][r] for r in rows)))
        return _mat(tuple(zip(*self.rows)), None)

    def conj(self) -> "Mat4":
        """Entrywise complex conjugate."""
        if (code := monomial_code(self)) is not None:
            return from_code((code[0], tuple(-e % 4 for e in code[1])))
        return _mat(tuple(tuple(x.conjugate() for x in row)
                          for row in self.rows), None)

    def dagger(self) -> "Mat4":
        return self.transpose().conj()

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(4)), ZERO)

    def det(self) -> Scalar:
        """Determinant by cofactor expansion along the first row."""
        total = ZERO
        for j in range(4):
            a = self.rows[0][j]
            if a is ZERO:
                continue
            minor = [[self.rows[i][k] for k in range(4) if k != j]
                     for i in range(1, 4)]
            cof = _det3(minor)
            total = total + a * cof if j % 2 == 0 else total - a * cof
        return total

    def inverse(self) -> "Mat4":
        """The adjoint of a unitary monomial unit matrix, the inverse of any
        other by Gauss-Jordan elimination of [M | 1]; raises
        ZeroDivisionError if singular."""
        if monomial_code(self) is not None:
            return self.dagger()
        m = [list(row) + list(ident)
             for row, ident in zip(self.rows, _IDENTITY.rows)]
        if row_reduce(m, 4) != [0, 1, 2, 3]:
            raise ZeroDivisionError("singular matrix")
        return _mat(tuple(tuple(row[4:]) for row in m))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x is ZERO for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self is other or self.rows == other.rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.rows)
        return h

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Mat4[{body}]"

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.rows]


_UNSCANNED = object()    # the `_code` of a matrix not yet scanned


def _mat(rows: tuple[tuple[Scalar, ...], ...], code=_UNSCANNED) -> Mat4:
    """The Mat4 of `rows`, already four 4-tuples of Scalars, unchecked,
    with its `monomial_code` if known."""
    m = object.__new__(Mat4)
    m.rows = rows
    m._hash = None
    m._code = code
    return m


# the exponent e of each unit i**e, by the identity of the shared unit
_EXPONENT = {id(u): e for e, u in enumerate(UNITS)}


def monomial_code(m: Mat4) -> tuple | None:
    """(columns, exponents) of a matrix whose row r holds its one nonzero
    entry i**exponents[r] at columns[r], in distinct columns; None for any
    other matrix.  Found once per matrix."""
    if m._code is _UNSCANNED:
        entries = [[(j, x) for j, x in enumerate(row) if x is not ZERO]
                   for row in m.rows]
        m._code = None
        if all(len(e) == 1 and id(e[0][1]) in _EXPONENT for e in entries):
            cols, units = zip(*(e[0] for e in entries))
            if len(set(cols)) == 4:    # share the tuple `from_code` keeps
                m._code = from_code(
                    (cols, tuple(_EXPONENT[id(u)] for u in units)))._code
    return m._code


def code_product(a: tuple, b: tuple) -> tuple:
    """The `monomial_code` of the product of the matrices coded a and b:
    row r of a picks row a_r of b, so columns compose and exponents add."""
    (acols, aexps), (bcols, bexps) = a, b
    return (tuple(bcols[j] for j in acols),
            tuple((e + bexps[j]) % 4 for j, e in zip(acols, aexps)))


_BY_CODE: dict[tuple, Mat4] = {}    # at most 4! 4**4 matrices


def from_code(code: tuple) -> Mat4:
    """The matrix of a `monomial_code`, a pair of 4-tuples: one object per
    code, built on first use."""
    m = _BY_CODE.get(code)
    if m is None:
        m = _BY_CODE[code] = _mat(tuple(
            tuple(UNITS[e] if j == c else ZERO for j in range(4))
            for c, e in zip(*code)), code)
    return m


_ZERO_MAT = _mat(((ZERO,) * 4,) * 4, None)
_IDENTITY = from_code(((0, 1, 2, 3), (0, 0, 0, 0)))


def row_reduce(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Bring `rows` to reduced row echelon form in its first `ncols`
    columns, in place, by Gauss-Jordan elimination that skips zero
    entries; returns the pivot columns, the i-th pivot in row i."""
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
                rows[r] = [x - f * y if y is not ZERO else x
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
    return _mat(tuple(tuple(a[i // 2][j // 2] * b[i % 2][j % 2]
                            for j in range(4)) for i in range(4)))


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


class GammaRep:
    """A gamma-matrix presentation gamma_mu = s g_mu s† of the standard
    g_mu, plus derived structure, immutable by convention.

    `basis` is the canonical 16-element basis of the full matrix algebra,
    in the fixed `BASIS_WORDS` order.
    """

    def __init__(self, tag: RepTag | None, s: Mat4,
                 gamma: tuple[Mat4, Mat4, Mat4, Mat4], gamma5: Mat4,
                 basis: tuple[Mat4, ...]) -> None:
        self.tag, self.s, self.gamma = tag, s, gamma
        self.gamma5, self.basis = gamma5, basis

    @cached_property
    def _duals(self) -> tuple[tuple[tuple[int, int, Scalar], ...], ...]:
        """The nonzero entries (i, j, u) of each B_k^-1: the basis words
        are trace-orthogonal, tr(B_j^-1 B_k) = 4 delta_jk."""
        return tuple(tuple((i, j, x) for i, row in enumerate(b.inverse().rows)
                           for j, x in enumerate(row) if x is not ZERO)
                     for b in self.basis)

    @cached_property
    def _unit_words(self) -> dict[tuple, tuple[int, Scalar]]:
        """(k, u) by the `monomial_code` of each u·B_k, u a unit, for the
        monomial basis words B_k."""
        return {monomial_code(b.scale(u)): (k, u)
                for k, b in enumerate(self.basis)
                if monomial_code(b) is not None for u in UNITS}

    def basis_expand(self, m: Mat4) -> list[Scalar]:
        """Coefficients c_k with m = sum(c_k * basis_k): the one unit of a
        unit multiple of a monomial basis word, read off its code; else
        c_k = tr(B_k^-1 m) / 4, where only the diagonal of the product is
        formed, over the nonzero entries of m, and 1/4 is applied once."""
        if (hit := self._unit_words.get(monomial_code(m))) is not None:
            out = [ZERO] * 16
            out[hit[0]] = hit[1]
            return out
        rows = m.rows
        sums = (sum((u * x for i, j, u in dual
                     if (x := rows[j][i]) is not ZERO), ZERO)
                for dual in self._duals)
        return [ZERO if c is ZERO else c * _QUARTER for c in sums]

    def recombine(self, coeffs: Sequence[Scalar]) -> Mat4:
        out = Mat4.zero()
        for c, b in zip(coeffs, self.basis):
            if c is not ZERO:
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
        ginv, ag = g.inverse(), self.alpha(g)
        return all(c is ZERO or k in (1, 2, 3, 4) for gm in self.gamma
                   for k, c in enumerate(self.basis_expand(ag * gm * ginv)))


# the standard presentation, gamma_0 diagonal with Pauli off-blocks, in
# the two-qubit form gamma_0 = s3 x 1, gamma_k = i s2 x sk
_STANDARD_GAMMA = (_kron(SIGMA3, ID2),
                   *(_kron(SIGMA2, s).scale(I)
                     for s in (SIGMA1, SIGMA2, SIGMA3)))


def _build_rep(tag: RepTag | None, s: Mat4) -> GammaRep:
    """The presentation with the change of basis s, which must be unitary;
    `tag` names it, if it has a name."""
    sd = s.dagger()
    if s * sd != Mat4.identity():
        raise ValueError("change of basis must be unitary")
    g = tuple(s * x * sd for x in _STANDARD_GAMMA)
    gamma5 = (g[0] * g[1] * g[2] * g[3]).scale(-I)
    basis = tuple(word_product(g, w) for w in BASIS_WORDS)
    return GammaRep(tag, s, g, gamma5, basis)


def word_product(g: Sequence[Mat4], word: tuple[int, ...]) -> Mat4:
    """The product of the gammas g[k] for k in `word`, in order."""
    out = Mat4.identity()
    for k in word:
        out = out * g[k]
    return out


@cache
def get_rep(tag: RepTag) -> GammaRep:
    """The presentation `tag`, built once: a GammaRep is immutable, so
    every caller can share it.  Its change of basis s from the standard
    presentation is the identity, S_W = (gamma_0 - gamma_5)/sqrt 2 (Weyl)
    or S_M = (gamma_2 gamma_0 + gamma_0)/sqrt 2 (Majorana), in standard
    gamma matrices."""
    if tag is RepTag.DIRAC_PAULI:
        return _build_rep(tag, Mat4.identity())
    dp = get_rep(RepTag.DIRAC_PAULI)
    g0 = dp.gamma[0]
    s = g0 - dp.gamma5 if tag is RepTag.WEYL else dp.gamma[2] * g0 + g0
    return _build_rep(tag, s.scale(INV_SQRT2))


# -- matrix classification -----------------------------------------------------

class MatrixClass(NamedTuple):
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
