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
from itertools import combinations
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .scalars import (I, INV_SQRT2, MINUS_ONE, ONE, UNITS, Scalar, ZERO,
                      _make, ring_mul, times_unit)


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
        return self.scale(MINUS_ONE)

    def __mul__(self, other: "Mat4") -> "Mat4":
        """Monomial unit factors compose their codes, or permute and
        multiply by units the rows (columns) of a dense right (left)
        factor; two dense factors multiply on their integer numerators,
        each entry reduced once."""
        a, b = monomial_code(self), monomial_code(other)
        if a is not None and b is not None:
            key = (id(a), id(b))    # codes are interned and never freed
            m = _PRODUCTS.get(key)
            if m is None:
                m = _PRODUCTS[key] = from_code(code_product(a, b))
            return m
        if a is not None:   # row r is i**e_r times row cols[r] of the other
            return _mat(tuple(tuple(times_unit(x, e) for x in other.rows[c])
                              for c, e in zip(*a)), None)
        if b is not None:
            return (other.transpose() * self.transpose()).transpose()
        (x, m), (y, n) = _numerator_rows(self), _numerator_rows(other)
        den = m * n
        return _mat(tuple(tuple(_make(*_dot(row, col), den)
                                for col in zip(*y)) for row in x))

    def scale(self, c) -> "Mat4":
        c = c if isinstance(c, Scalar) else _SIGNS.get(c) or Scalar(c)
        code, e = monomial_code(self), _EXPONENT.get(id(c))
        if e is None:
            return _mat(tuple(tuple(x if x is ZERO else c * x for x in row)
                              for row in self.rows))
        if code is not None:
            return from_code((code[0], tuple((x + e) % 4 for x in code[1])))
        return _mat(tuple(tuple(times_unit(x, e) for x in row)
                          for row in self.rows), None)

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
        """sign(cols) i**sum(exponents) for a monomial unit matrix; else
        expanded along row 0 on the integer numerators n over den: its
        cofactors come from the 2x2 minors of rows 2, 3."""
        if (code := monomial_code(self)) is not None:
            flips = sum(a > b for a, b in combinations(code[0], 2))
            return UNITS[(sum(code[1]) + 2 * flips) % 4]
        n, den = _numerator_rows(self)
        cof = _cofactors(n[1], _minors(n[2], n[3]))
        return _make(*_dot(n[0], cof), den ** 4)

    def inverse(self) -> "Mat4":
        """The adjoint of a unitary monomial unit matrix; else the adjugate
        over the determinant, as in `det`, from the 2x2 minors of rows
        0, 1 and of rows 2, 3, each entry reduced once.  Raises
        ZeroDivisionError if singular."""
        if monomial_code(self) is not None:
            return self.dagger()
        n, den = _numerator_rows(self)
        low, high = _minors(n[2], n[3]), _minors(n[0], n[1])
        cof = [_cofactors(n[i ^ 1], low if i < 2 else high)
               for i in range(4)]
        det = _dot(n[0], cof[0])
        if not any(det):
            raise ZeroDivisionError("singular matrix")
        # entry (j, i) is (-1)**i cof[i][j] den / det
        t = _make(*det, den).inverse()
        signed = ((t.a, t.b, t.c, t.d), (-t.a, -t.b, -t.c, -t.d))
        return _mat(tuple(tuple(_make(*ring_mul(cof[i][j], signed[i & 1]),
                                      t.den) for i in range(4))
                          for j in range(4)), None)

    # -- predicates ----------------------------------------------------------

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


_ZERO4 = (0, 0, 0, 0)    # the numerators of every ZERO


def _numerators(xs: Sequence[Scalar]) -> tuple[list[tuple], int]:
    """The scalars xs as numerator 4-tuples over one common denominator,
    and that denominator."""
    den = lcm(*(x.den for x in xs))
    return [_ZERO4 if x is ZERO else (x.a * k, x.b * k, x.c * k, x.d * k)
            for x in xs for k in (den // x.den,)], den


def _numerator_rows(m: Mat4) -> tuple[list[list[tuple]], int]:
    """The rows of m as numerator 4-tuples over one denominator, and it."""
    flat, den = _numerators(sum(m.rows, ()))
    return [flat[i:i + 4] for i in (0, 4, 8, 12)], den


def _dot(xs: Iterable[tuple], ys: Iterable[tuple]) -> tuple:
    """The sum of the products x y of paired numerator 4-tuples, skipping
    those with a zero factor."""
    p = q = r = s = 0
    for x, y in zip(xs, ys):
        if x is not _ZERO4 and y is not _ZERO4:
            a, b, c, d = ring_mul(x, y)
            p, q, r, s = p + a, q + b, r + c, s + d
    return p, q, r, s


def _minors(x: list[tuple], y: list[tuple]) -> dict[tuple, tuple]:
    """The 2x2 minors x_j y_k - x_k y_j of two rows of numerators, by
    ordered column pair (j, k)."""
    out = {}
    for j, k in combinations(range(4), 2):
        (a, b, c, d), (e, f, g, h) = ring_mul(x[j], y[k]), ring_mul(x[k], y[j])
        out[j, k], out[k, j] = (a - e, b - f, c - g, d - h), (e - a, f - b,
                                                             g - c, h - d)
    return out


# for each column j, the other three (p, q, r) with (j, p, q, r) even
_COMPLEMENT = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1))


def _cofactors(x: list[tuple], minors: dict) -> list[tuple]:
    """By column j, the cofactor of row i of the matrix whose row i ^ 1 is
    x and whose other two rows have the 2x2 `minors`, times (-1)**i: the
    3x3 minor without column j, expanded along x."""
    return [_dot((x[p], x[q], x[r]), (minors[q, r], minors[r, p],
                                      minors[p, q]))
            for p, q, r in _COMPLEMENT]


def _linear_map(rows: list[list[tuple[int, Scalar]]],
                scale: int = 1) -> tuple:
    """The linear map whose output r is the sum of x_q u over the pairs
    (q, u) of rows[r], divided by `scale`, for `_apply`: the u are kept
    as exponents where all are shared units i**e (`_turns`), else as
    numerators over one denominator (`_dot`)."""
    us = [u for row in rows for _, u in row]
    ns, den, f = [_EXPONENT.get(id(u)) for u in us], 1, _turns
    if None in ns:
        (ns, den), f = _numerators(us), _dot
    it = iter(ns)
    return den * scale, f, [(tuple(q for q, _ in row),
                             tuple(next(it) for _ in row)) for row in rows]


def _apply(lin: tuple, xs: Sequence[Scalar]) -> list[Scalar]:
    """The image of the scalars xs under a `_linear_map`, each output
    reduced once."""
    den, f, table = lin
    nums, d = _numerators(xs)
    den *= d
    return [_make(*f(map(nums.__getitem__, qs), ns), den)
            for qs, ns in table]


def _turns(xs: Iterable[tuple], es: Iterable[int]) -> tuple:
    """The sum of x i**e over paired numerator 4-tuples x and exponents e,
    with no product: i (a, b, c, d) = (-b, a, -d, c)."""
    p = q = r = s = 0
    for (a, b, c, d), e in zip(xs, es):
        if e == 0:
            p, q, r, s = p + a, q + b, r + c, s + d
        elif e == 1:
            p, q, r, s = p - b, q + a, r - d, s + c
        elif e == 2:
            p, q, r, s = p - a, q - b, r - c, s - d
        else:
            p, q, r, s = p + b, q - a, r + d, s - c
    return p, q, r, s


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
_SIGNS = {1: ONE, -1: MINUS_ONE}    # the integer scales read as units


def _times(x: Scalar, y: Scalar) -> Scalar:
    """x y, with no product where x is a shared unit."""
    e = _EXPONENT.get(id(x))
    return x * y if e is None else times_unit(y, e)


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
# products of monomial unit matrices, by the ids of their two codes
_PRODUCTS: dict[tuple[int, int], Mat4] = {}


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


def row_reduce(rows: list[dict[int, Scalar]], ncols: int) -> list[int]:
    """Bring the sparse `rows`, each {column: nonzero entry}, to reduced
    row echelon form in their first `ncols` columns, in place, by
    Gauss-Jordan elimination on their nonzero entries; returns the pivot
    columns, the i-th pivot in row i."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if col in rows[r]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = rows[rank] = {c: _times(inv, x) for c, x in rows[rank].items()}
        for r, row in enumerate(rows):
            if r != rank and col in row:
                f = -row[col]
                for c, y in prow.items():
                    row[c] = row.get(c, ZERO) + _times(f, y)
                rows[r] = {c: x for c, x in row.items() if x is not ZERO}
        pivots.append(col)
    return pivots


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
    """The gamma-matrix presentation gamma_mu = s g_mu s† of the standard
    g_mu, for a unitary change of basis s, immutable by convention: its
    gammas, gamma_5 and `basis`, the canonical 16-element basis of the
    full matrix algebra in the fixed `BASIS_WORDS` order, all follow
    from s.  Raises ValueError if s is not unitary.
    """

    def __init__(self, s: Mat4) -> None:
        sd = s.dagger()
        if s * sd != Mat4.identity():
            raise ValueError("change of basis must be unitary")
        self.s = s
        self.gamma = g = tuple(s * x * sd for x in _STANDARD_GAMMA)
        self.basis = tuple(word_product(g, w) for w in BASIS_WORDS)
        self.gamma5 = self.basis[-1].scale(-I)

    @cached_property
    def _maps(self) -> tuple[tuple, tuple]:
        """The `_linear_map`s of `basis_expand` and `recombine`: c_k =
        tr(B_k^-1 m) / 4, the sum of B_k^-1[i][j] m[j][i] / 4 over the
        nonzero entries of B_k^-1, as the words are trace-orthogonal,
        tr(B_j^-1 B_k) = 4 delta_jk; and entry 4 r + c of sum(c_k B_k),
        the sum of c_k B_k[r][c] over the words nonzero at (r, c)."""
        words = [sum(b.rows, ()) for b in self.basis]
        return (_linear_map([[(4 * j + i, x)
                              for i, row in enumerate(b.inverse().rows)
                              for j, x in enumerate(row) if x is not ZERO]
                             for b in self.basis], 4),
                _linear_map([[(k, w[p]) for k, w in enumerate(words)
                              if w[p] is not ZERO] for p in range(16)]))

    @cached_property
    def _unit_words(self) -> dict[tuple, tuple[int, int]]:
        """(k, e) by the `monomial_code` of each i**e B_k, for the monomial
        basis words B_k."""
        return {monomial_code(b.scale(u)): (k, e)
                for k, b in enumerate(self.basis)
                if monomial_code(b) is not None for e, u in enumerate(UNITS)}

    def basis_expand(self, m: Mat4) -> list[Scalar]:
        """Coefficients c_k with m = sum(c_k * basis_k): the one unit of a
        unit multiple of a monomial basis word, read off its code; else
        c_k = tr(B_k^-1 m) / 4, only the diagonal of the product formed on
        the numerators of m (`_linear_map`), each reduced once."""
        if (hit := self._unit_words.get(monomial_code(m))) is not None:
            out = [ZERO] * 16
            out[hit[0]] = UNITS[hit[1]]
            return out
        return _apply(self._maps[0], sum(m.rows, ()))

    def recombine(self, coeffs: Sequence[Scalar]) -> Mat4:
        """sum(c_k * basis_k), on integer numerators, each entry reduced
        once."""
        out = _apply(self._maps[1], coeffs)
        return _mat(tuple(tuple(out[i:i + 4]) for i in (0, 4, 8, 12)))

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


def word_product(g: Sequence[Mat4], word: tuple[int, ...]) -> Mat4:
    """The product of the gammas g[k] for k in `word`, in order."""
    out = Mat4.identity()
    for k in word:
        out = out * g[k]
    return out


@cache
def word_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """(k, e) at [j][l] with B_j B_l = i**e B_k, read off the codes of the
    standard words once: B_j = s B_j^std s† in every GammaRep, so the table
    is the same in all of them."""
    dp = get_rep(RepTag.DIRAC_PAULI)
    codes = [monomial_code(b) for b in dp.basis]
    return tuple(tuple(dp._unit_words[code_product(a, b)] for b in codes)
                 for a in codes)


@cache
def get_rep(tag: RepTag) -> GammaRep:
    """The presentation `tag`, built once: a GammaRep is immutable, so
    every caller can share it.  Its change of basis s from the standard
    presentation is the identity, S_W = (gamma_0 - gamma_5)/sqrt 2 (Weyl)
    or S_M = (gamma_2 gamma_0 + gamma_0)/sqrt 2 (Majorana), in standard
    gamma matrices."""
    if tag is RepTag.DIRAC_PAULI:
        return GammaRep(Mat4.identity())
    dp = get_rep(RepTag.DIRAC_PAULI)
    g0 = dp.gamma[0]
    s = g0 - dp.gamma5 if tag is RepTag.WEYL else dp.gamma[2] * g0 + g0
    return GammaRep(s.scale(INV_SQRT2))


# -- matrix classification -----------------------------------------------------

class MatrixClass(NamedTuple):
    """The signs s with M† = sM, M^-1 = sM, M~ = sM and M* = sM, each 0
    where neither sign holds, and whether det M = 1 and tr M = 0."""

    signs: tuple[int, int, int, int]
    unimodular: bool
    traceless: bool

    def in_class(self, name: str) -> bool:
        """Membership of class K, M or N: unimodular, traceless, and with
        the signs `CLASS_SIGNS[name]`, whose equal adjoint and inverse
        signs make it unitary."""
        return (self.unimodular and self.traceless
                and self.signs == CLASS_SIGNS[name])


# the signs s with M† = sM, M^-1 = sM, M~ = sM and M* = sM shared by the
# unitary members of each class: K hermitian and antisymmetric, M
# antihermitian and symmetric, N antihermitian and antisymmetric
CLASS_SIGNS = {"K": (1, 1, -1, -1), "M": (-1, -1, 1, -1),
               "N": (-1, -1, -1, 1)}


def _sign(xs: Iterable[Scalar], ys: Iterable[Scalar]) -> int:
    """1 if x = y for all paired entries of xs and ys, -1 if x = -y for
    all, else 0: the first nonzero y settles which, the first miss ends."""
    s = 0
    for x, y in zip(xs, ys):
        if not s and y is not ZERO:
            s = 1 if x == y else -1
        y = y if s >= 0 else -y
        if x is not y and x != y:
            return 0
    return s or 1


def _square_sign(m: Mat4) -> int:
    """s with M M = s 1, else 0.  Without a code, the numerators of row 0
    of M M come first; the square only where they are +-den**2 and zeros."""
    if monomial_code(m) is None:
        n, den = _numerator_rows(m)
        (a, *rest), *tail = [_dot(n[0], col) for col in zip(*n)]
        if abs(a) != den * den or any(rest) or any(map(any, tail)):
            return 0
    return _sign(sum((m * m).rows, ()), sum(_IDENTITY.rows, ()))


def classify(m: Mat4) -> MatrixClass:
    """The class signs of m, compared entry by entry with no dagger,
    transpose or conjugate built; the inverse sign read off M M = +-1."""
    flat, flipped = sum(m.rows, ()), sum(zip(*m.rows), ())
    return MatrixClass(
        (_sign(map(Scalar.conjugate, flipped), flat), _square_sign(m),
         _sign(flipped, flat), _sign(map(Scalar.conjugate, flat), flat)),
        unimodular=m.det() == ONE, traceless=m.trace().is_zero())
