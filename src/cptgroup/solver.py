"""Derivation of the discrete-symmetry matrices from their constraints.

Each of the three symmetries is defined by a system of linear conditions
on an unknown 4x4 matrix X:

    parity:             X g0 = g0 X,      X gk = -gk X   (k = 1, 2, 3)
    charge conjugation: X gmu^T = -gmu X                 (mu = 0..3)
    time reversal:      X g0 = g0 X,      X gk* = -gk X  (k = 1, 2, 3)

The conjugated/transposed gamma matrices are fixed matrices in a given
representation, so each condition is linear over Q(i, sqrt(2)).  A
system of relations between unit multiples of basis words, as each of
the three is in a Clifford basis, is read off the word product table
B_j B_k = e_jk B_(j△k), j△k the symmetric difference of the two words
(`word_table`), and solved by a union-find on the unit ratios it fixes;
any other, as in a T x 1 basis, by exact Gauss-Jordan elimination on
sparse rows.  Each kernel is a line.  Sweeping the remaining unit
scalar multiplier and imposing the two cross-compatibility conditions

    C (P^-1)^T C^-1 = P        and        C T* = T C*

leaves exactly two families of consistent (C, P, T) triples.  A change
of spinor basis S carries P to S P S† and C and T to S X S~ (see
`transport`).
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .matrices import (CLASS_SIGNS, GammaRep, Mat4, RepTag, _times,
                       classify, get_rep, monomial_code, row_reduce,
                       word_table)
from .scalars import I, ONE, UNITS, Scalar, ZERO


class Relation(NamedTuple):
    """One linear condition X * right = sign * left * X."""

    right: Mat4
    left: Mat4
    sign: int


class ConstraintSystem(NamedTuple):
    relations: tuple[Relation, ...]

    def satisfied_by(self, x: Mat4) -> bool:
        return all(x * rel.right == (rel.left * x).scale(rel.sign)
                   for rel in self.relations)


class SolutionSpace(NamedTuple):
    basis: tuple[Mat4, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


# each symmetry by its one-letter name: its name, and the twist f and signs
# s_mu of its defining relations X f(gmu) = s_mu gmu X.  The time-reversed,
# conjugated Dirac equation constrains T through the conjugated gamma
# matrices; in presentations with real g0 (standard, Weyl) its first
# relation is the familiar "T commutes with g0".
SYSTEMS = {"p": ("parity", lambda m: m, (1, -1, -1, -1)),
           "c": ("charge-conjugation", Mat4.transpose, (-1, -1, -1, -1)),
           "t": ("time-reversal", Mat4.conj, (1, -1, -1, -1))}


def constraint_system(symmetry: str, rep: GammaRep) -> ConstraintSystem:
    """The relations X f(gmu) = s_mu gmu X of `SYSTEMS[symmetry]` in `rep`."""
    _, twist, signs = SYSTEMS[symmetry]
    return ConstraintSystem(tuple(Relation(twist(g), g, s)
                                  for g, s in zip(rep.gamma, signs)))


def solve_system(system: ConstraintSystem, rep: GammaRep) -> SolutionSpace:
    """Exact kernel of the stacked linear system on the 16-dim matrix space:
    one vector per free column of its reduced row echelon form, leading
    basis coefficient 1, a single word being the shared `rep.basis` entry;
    by `_unit_kernel`, else by elimination on the sparse rows of `_rows`."""
    basis = _unit_kernel(system, rep)
    if basis is None:
        rows = [row for rel in system.relations for row in _rows(rel, rep)
                if row]
        pivots, basis = row_reduce(rows, 16), []
        for fc in sorted(set(range(16)) - set(pivots)):
            vec = {pc: -rows[r][fc] for r, pc in enumerate(pivots)
                   if fc in rows[r]}
            vec[fc] = ONE
            inv = vec[min(vec)].inverse()
            basis.append(rep.basis[fc] if len(vec) == 1 else rep.recombine(
                [_times(inv, vec[k]) if k in vec else ZERO
                 for k in range(16)]))
    space = SolutionSpace(tuple(basis))
    for b in space.basis:
        if not system.satisfied_by(b):
            raise AssertionError("kernel element fails a relation")
    return space


def _unit_kernel(system: ConstraintSystem,
                 rep: GammaRep) -> list[Mat4] | None:
    """The kernel basis of a system of relations X i**u B_r = i**v B_l X,
    sign taken into L, or None.  Row k = j△r = l△j' reads c_j i**(u + e_jr)
    = c_j' i**(v + e_lj') (`word_table`): c_j = i**t c_j'.  A union-find
    keeps c = i**pot c_root, the root its largest member; a cycle with t != 0
    (j = j': a forced zero) joins the zero node 16.  Any other component
    gives i**(pot - pot_min) at its members, in order of root, as RREF."""
    words = rep._unit_words
    hits = [(words.get(monomial_code(rel.right)),
             words.get(monomial_code(rel.left.scale(rel.sign))))
            for rel in system.relations]
    if any(None in hit for hit in hits):
        return None
    table, root, pot = word_table(), list(range(17)), [0] * 17
    for (r, u), (l, v) in hits:
        for j2 in range(16):
            k, f = table[l][j2]
            j = table[k][r][0]
            x, y = root[j], root[j2]    # c_x = i**t c_y
            t = (v + f - u - table[j][r][1] + pot[j2] - pot[j]) % 4
            if x == y and t:
                y = 16
            elif x > y:
                x, y, t = y, x, -t
            if x != y:
                for n in range(17):
                    if root[n] == x:
                        root[n], pot[n] = y, (pot[n] + t) % 4
    return [rep.basis[x] if root.count(x) == 1 else rep.recombine(
        [UNITS[(p - pot[root.index(x)]) % 4] if y == x else ZERO
         for y, p in zip(root, pot[:16])]) for x in sorted(set(root) - {16})]


def _rows(rel: Relation, rep: GammaRep) -> list[dict[int, Scalar]]:
    """The 16 sparse rows of one relation X R = s L X: row i holds, by
    column j, coefficient i of B_j R and (-s L) B_j, expanded."""
    minus_left = rel.left.scale(-rel.sign)
    images = [[x + y for x, y in zip(rep.basis_expand(b * rel.right),
                                     rep.basis_expand(minus_left * b))]
              for b in rep.basis]
    return [{j: x for j, image in enumerate(images)
             if (x := image[i]) is not ZERO} for i in range(16)]


@cache
def kernel(symmetry: str, rep: GammaRep) -> SolutionSpace:
    """The kernel of the `SYSTEMS[symmetry]` system in `rep` by
    `solve_system`, found once.  It is keyed on the name and the shared,
    immutable rep, not on the system: solving a fresh system with
    `solve_system` fills no cache."""
    return solve_system(constraint_system(symmetry, rep), rep)


# -- compatibility -------------------------------------------------------------


def check_cp_compatibility(c: Mat4, p: Mat4) -> bool:
    """C (P^-1)^T C^-1 = P, exactly."""
    return c * p.inverse().transpose() * c.inverse() == p


def check_ct_compatibility(c: Mat4, t: Mat4) -> bool:
    """C T* = T C*, exactly."""
    return c * t.conj() == t * c.conj()


# -- consistent solution families ----------------------------------------------


class CptSolutionSet(NamedTuple):
    variant: int
    C: Mat4
    P: Mat4
    T: Mat4

    @property
    def theta(self) -> Mat4:
        return self.C * self.P * self.T

    def named(self) -> dict[str, Mat4]:
        """The four matrices by their printed names."""
        return {"C": self.C, "P": self.P, "T": self.T, "θ": self.theta}

    def squares(self) -> tuple[int, int, int]:
        signs = {Mat4.identity(): 1, -Mat4.identity(): -1}
        out = tuple(signs.get(m * m) for m in (self.C, self.P, self.T))
        if None in out:
            raise AssertionError("square is not +/-identity")
        return out


# the class (see `CLASS_SIGNS`) of each matrix of a set, per variant: P and
# θ agree across the families, while C and T are real only in the second
CLASSES = {1: {"C": "K", "P": "M", "T": "K", "θ": "K"},
           2: {"C": "N", "P": "M", "T": "N", "θ": "K"}}

# (C², P², T²) per variant: a unitary M with M† = aM squares to a
SQUARE_SIGNATURES = {v: tuple(CLASS_SIGNS[CLASSES[v][name]][0]
                              for name in "CPT") for v in CLASSES}


@cache
def compatible_pairs(rep: GammaRep) -> tuple[tuple[Mat4, Mat4], ...]:
    """The (P, C) pairs of unit multiples of the P and C kernel lines that
    meet the C-P compatibility condition, swept once per presentation."""
    p0, c0 = kernel("p", rep).basis[0], kernel("c", rep).basis[0]
    return tuple((p, c) for p in map(p0.scale, UNITS)
                 for c in map(c0.scale, UNITS) if check_cp_compatibility(c, p))


def enumerate_consistent_sets(rep: GammaRep) -> list[CptSolutionSet]:
    """All consistent (C, P, T) unit-multiple triples, grouped by variant.

    The kernel computations leave one matrix line per symmetry.  The sweep
    assumes that each line's generator X0 is unitary, X0 X0† = 1, and
    raises where it is not: then the multiples of X0 that stay unitary and
    square to +/-1 are its multiples by the units {1, -1, i, -i}.  It
    filters the 64 candidate triples by the two compatibility conditions;
    the survivors form exactly two families of 8 sign choices,
    distinguished by their square signature.
    """
    p_space, c_space, t_space = (kernel(sym, rep) for sym in "pct")
    if (p_space.dimension, c_space.dimension, t_space.dimension) != (1, 1, 1):
        raise AssertionError("expected one-dimensional solution lines")
    p0, c0, t0 = p_space.basis[0], c_space.basis[0], t_space.basis[0]
    if any(x * x.dagger() != Mat4.identity() for x in (p0, c0, t0)):
        raise AssertionError("expected unitary solution lines")

    sets: list[CptSolutionSet] = []
    for p, c in compatible_pairs(rep):
        for t in map(t0.scale, UNITS):
            if not check_ct_compatibility(c, t):
                continue
            # time reversal applied twice flips the spinor sign
            if t * t.conj() != -Mat4.identity():
                continue
            variant = _classify_variant(c, p, t, rep)
            sets.append(CptSolutionSet(variant=variant, C=c, P=p, T=t))
    return sets


def _classify_variant(c: Mat4, p: Mat4, t: Mat4, rep: GammaRep) -> int:
    """Variant of a consistent triple, read off in the standard basis.

    The square signature distinguishes the two families only in a basis
    where the spatial gamma matrices have the standard reality properties;
    a triple found in another presentation is transported back first.
    """
    sig = transport(CptSolutionSet(0, C=c, P=p, T=t), rep,
                    get_rep(RepTag.DIRAC_PAULI)).squares()
    for v, known in SQUARE_SIGNATURES.items():
        if known == sig:
            return v
    raise AssertionError(f"unrecognized square signature {sig}")


@cache
def canonical_sets() -> Mapping[int, CptSolutionSet]:
    """The two plus-sign representative solution sets, one per variant,
    in the standard representation: P = i g0 with C = g2 g0, T = i g3 g1
    (variant 1) and C = i g2 g0, T = g3 g1 (variant 2).  Built once per
    process and shared, so the mapping is read-only."""
    g = get_rep(RepTag.DIRAC_PAULI).gamma
    c, p, t = g[2] * g[0], g[0].scale(I), g[3] * g[1]
    return MappingProxyType({1: CptSolutionSet(1, C=c, P=p, T=t.scale(I)),
                             2: CptSolutionSet(2, C=c.scale(I), P=p, T=t)})


def conjugate_group_matrices(sol: CptSolutionSet, s: Mat4) -> CptSolutionSet:
    """Algebra conjugation A -> S A S† of every matrix of a set, by `_carry`.

    This preserves the group generated by the set (and hence all
    multiplication tables), but does not in general land on solutions of
    the conjugated constraint systems; see `transport`.
    """
    sd = s.dagger()
    return CptSolutionSet(sol.variant, *(_carry(x, s, sd)
                                         for x in (sol.C, sol.P, sol.T)))


def transport(sol: CptSolutionSet, src: GammaRep,
              dst: GammaRep) -> CptSolutionSet:
    """Covariant transport of a consistent set from presentation `src` to
    `dst`, under the change of spinor basis psi -> S psi, S = dst.s src.s†.

    Each symmetry's relations X f(g) = s_mu g X, g = gmu, move to
    g' = S g S†.  For f = id, X' = S X S† solves them: X' g' = S X g S†
    = s_mu g' X'.  For f the transpose or conj, f(g') = S* f(g) S~, and
    S~ S* = (S† S)* = 1, so X' = S X S~ does: X' f(g') = S X f(g) S~ =
    s_mu g' X'.  Hence P' = S P S†, C' = S C S~ and T' = S T S~, each by
    `_carry`, carrying each kernel line once.
    """
    if src is dst:
        return sol
    s, sd, st = _change(src, dst)
    return CptSolutionSet(sol.variant, _carry(sol.C, s, st),
                          _carry(sol.P, s, sd), _carry(sol.T, s, st))


@cache
def _change(src: GammaRep, dst: GammaRep) -> tuple[Mat4, ...]:
    """S = dst.s src.s†, S† and S~, found once per pair."""
    s = dst.s * src.s.dagger()
    return s, s.dagger(), s.transpose()


def _carry(x: Mat4, s: Mat4, right: Mat4) -> Mat4:
    """S X R, R = S† or S~: for a monomial unit matrix X = i**e L, L with
    exponent 0 in row 0, the unit times S L R, found once per (L, S, R), as
    the law is linear; a matrix with no code, as in a T x 1 basis, is
    multiplied out."""
    if (code := monomial_code(x)) is None:
        return s * x * right
    e = code[1][0]
    return _line_carry(x.scale(UNITS[-e]), s, right).scale(UNITS[e])


@cache
def _line_carry(line: Mat4, s: Mat4, right: Mat4) -> Mat4:
    return s * line * right


# -- per-solution property report ------------------------------------------------


def verify_solution_properties(sol: CptSolutionSet) -> dict[str, bool]:
    """Exact checks of every identity claimed for a consistent set: each
    matrix has the `classify` signs, determinant and trace of its class
    in `CLASSES`."""
    ident = Mat4.identity()
    named = sol.named()
    checks = {"squares": sol.squares() == SQUARE_SIGNATURES[sol.variant]}
    for name, m in named.items():
        found = classify(m)
        for op, got, want in zip(("adjoint", "inverse", "transpose",
                                  "conjugate"), found.signs,
                                 CLASS_SIGNS[CLASSES[sol.variant][name]]):
            checks[f"{name}_{op}"] = got == want
        checks[f"{name}_unimodular"] = found.unimodular
        checks[f"{name}_traceless"] = found.traceless

    c, p, t, theta = named.values()
    checks["CCstar"] = c * c.conj() == -ident
    checks["PT_commute"] = p * t == t * p
    checks["θ_square"] = theta * theta == ident
    return checks
