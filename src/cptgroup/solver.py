"""Derivation of the discrete-symmetry matrices from their constraints.

Each of the three symmetries is defined by a system of linear conditions
on an unknown 4x4 matrix X:

    parity:             X g0 = g0 X,      X gk = -gk X   (k = 1, 2, 3)
    charge conjugation: X gmu^T = -gmu X                 (mu = 0..3)
    time reversal:      X g0 = g0 X,      X gk* = -gk X  (k = 1, 2, 3)

The conjugated/transposed gamma matrices are fixed matrices in a given
representation, so each condition is linear over Q(i, sqrt(2)).  The
unknown is expanded in the canonical 16-element basis and the kernel of
the stacked system is computed by exact Gauss-Jordan elimination.  Each
kernel turns out to be one-dimensional; sweeping the remaining unit
scalar multiplier and imposing the two cross-compatibility conditions

    C (P^-1)^T C^-1 = P        and        C T* = T C*

leaves exactly two families of consistent (C, P, T) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .matrices import (CLASS_SIGNS, GammaRep, Mat4, RepTag, TRANSFORMS,
                       classify, get_rep, row_reduce)
from .scalars import I, MINUS_ONE, ONE, Scalar, ZERO

UNIT_SCALARS: tuple[Scalar, ...] = (ONE, MINUS_ONE, I, -I)


@dataclass(frozen=True)
class Relation:
    """One linear condition X * right = sign * left * X."""

    right: Mat4
    left: Mat4
    sign: int


@dataclass(frozen=True)
class ConstraintSystem:
    relations: tuple[Relation, ...]

    def residuals(self, x: Mat4) -> list[Mat4]:
        return [x * rel.right - (rel.left * x).scale(rel.sign)
                for rel in self.relations]

    def satisfied_by(self, x: Mat4) -> bool:
        return all(r.is_zero() for r in self.residuals(x))


@dataclass(frozen=True)
class SolutionSpace:
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
    """Exact kernel of the stacked linear system on the 16-dim matrix space.

    Rows are the basis-expansion of each relation applied to each canonical
    basis element; the kernel is recombined into matrices whose leading
    basis coefficient is normalized to 1.
    """
    rows: list[list[Scalar]] = []
    for rel in system.relations:
        images = [rep.basis_expand(
            b * rel.right - (rel.left * b).scale(rel.sign))
            for b in rep.basis]
        # images[j][i]: coefficient i of the image of basis element j.
        for i in range(16):
            rows.append([images[j][i] for j in range(16)])
    kernel = _nullspace(rows, 16)
    basis = []
    for vec in kernel:
        lead = next(c for c in vec if not c.is_zero())
        inv = lead.inverse()
        basis.append(rep.recombine([c * inv for c in vec]))
    space = SolutionSpace(tuple(basis))
    for b in space.basis:
        if not system.satisfied_by(b):
            raise AssertionError("kernel element fails a relation")
    return space


def _nullspace(rows: list[list[Scalar]], n: int) -> list[list[Scalar]]:
    """Kernel basis of a matrix with n columns, one vector per free
    column of its reduced row echelon form."""
    m = [row for row in rows if any(not c.is_zero() for c in row)]
    pivots = row_reduce(m, n)
    kernel = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [ZERO] * n
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        kernel.append(vec)
    return kernel


@cache
def kernel(symmetry: str, rep: GammaRep) -> SolutionSpace:
    """The kernel of the `SYSTEMS[symmetry]` system in `rep`, solved once.
    It is keyed on the name and the shared, immutable rep, not on the
    system: solving a fresh system with `solve_system` fills no cache."""
    return solve_system(constraint_system(symmetry, rep), rep)


# -- compatibility -------------------------------------------------------------


def check_cp_compatibility(c: Mat4, p: Mat4) -> bool:
    """C (P^-1)^T C^-1 = P, exactly."""
    return c * p.inverse().transpose() * c.inverse() == p


def check_ct_compatibility(c: Mat4, t: Mat4) -> bool:
    """C T* = T C*, exactly."""
    return c * t.conj() == t * c.conj()


# -- consistent solution families ----------------------------------------------


@dataclass(frozen=True)
class CptSolutionSet:
    variant: int
    C: Mat4
    P: Mat4
    T: Mat4

    @property
    def theta(self) -> Mat4:
        return self.C * self.P * self.T

    def squares(self) -> tuple[int, int, int]:
        ident = Mat4.identity()
        out = []
        for m in (self.C, self.P, self.T):
            sq = m * m
            if sq == ident:
                out.append(1)
            elif sq == -ident:
                out.append(-1)
            else:
                raise AssertionError("square is not +/-identity")
        return tuple(out)


SQUARE_SIGNATURES = {1: (1, -1, 1), 2: (-1, -1, -1)}

# the class (see `CLASS_SIGNS`) of each matrix of a set, per variant: P and
# θ agree across the families, while C and T are real only in the second
CLASSES = {1: {"C": "K", "P": "M", "T": "K", "theta": "K"},
           2: {"C": "N", "P": "M", "T": "N", "theta": "K"}}


def enumerate_consistent_sets(rep: GammaRep) -> list[CptSolutionSet]:
    """All consistent (C, P, T) unit-multiple triples, grouped by variant.

    The kernel computations leave one matrix line per symmetry; physics
    narrows the scalar multipliers to the units {1, -1, i, -i} (the squares
    of C, P, T must be +/-1).  The sweep filters the 64 candidate triples
    by the two compatibility conditions; the survivors form exactly two
    families of 8 sign choices, distinguished by their square signature.
    """
    p_space, c_space, t_space = (kernel(sym, rep) for sym in "pct")
    if (p_space.dimension, c_space.dimension, t_space.dimension) != (1, 1, 1):
        raise AssertionError("expected one-dimensional solution lines")
    p0, c0, t0 = p_space.basis[0], c_space.basis[0], t_space.basis[0]

    sets: list[CptSolutionSet] = []
    for z in UNIT_SCALARS:
        p = p0.scale(z)
        for eta in UNIT_SCALARS:
            c = c0.scale(eta)
            if not check_cp_compatibility(c, p):
                continue
            for w in UNIT_SCALARS:
                t = t0.scale(w)
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
    sol = CptSolutionSet(0, C=c, P=p, T=t)
    if rep.tag is not RepTag.DIRAC_PAULI:
        dp = get_rep(RepTag.DIRAC_PAULI)
        sol = transform_constraint_solutions(sol, TRANSFORMS[rep.tag](dp),
                                             rep.gamma[0], dp.gamma[0])
    sig = sol.squares()
    for v, known in SQUARE_SIGNATURES.items():
        if known == sig:
            return v
    raise AssertionError(f"unrecognized square signature {sig}")


def incompatible_parity_squares(rep: GammaRep) -> bool:
    """True iff no P with P^2 = +1 admits a compatible C."""
    p0, c0 = kernel("p", rep).basis[0], kernel("c", rep).basis[0]
    ident = Mat4.identity()
    for z in UNIT_SCALARS:
        p = p0.scale(z)
        if p * p != ident:
            continue
        for eta in UNIT_SCALARS:
            if check_cp_compatibility(c0.scale(eta), p):
                return False
    return True


def canonical_sets() -> dict[int, CptSolutionSet]:
    """The two plus-sign representative solution sets, one per variant,
    in the standard representation: P = i g0 with C = g2 g0, T = i g3 g1
    (variant 1) and C = i g2 g0, T = g3 g1 (variant 2)."""
    dp = get_rep(RepTag.DIRAC_PAULI)
    g = dp.gamma
    return {
        1: CptSolutionSet(1, C=g[2] * g[0], P=I * g[0], T=I * (g[3] * g[1])),
        2: CptSolutionSet(2, C=I * (g[2] * g[0]), P=I * g[0], T=g[3] * g[1]),
    }


def conjugate_group_matrices(sol: CptSolutionSet, s: Mat4) -> CptSolutionSet:
    """Algebra conjugation A -> S A S† of every matrix of a set.

    This preserves the group generated by the set (and hence all
    multiplication tables), but does not in general land on solutions of
    the conjugated constraint systems; see `transform_constraint_solutions`.
    """
    sd = s.dagger()
    return CptSolutionSet(sol.variant, C=s * sol.C * sd, P=s * sol.P * sd,
                          T=s * sol.T * sd)


def transform_constraint_solutions(sol: CptSolutionSet, s: Mat4,
                                   old_g0: Mat4, new_g0: Mat4) -> CptSolutionSet:
    """Covariant transport of a consistent set under a change of spinor
    basis psi -> S psi.

    P conjugates plainly; the C and T equations each involve one complex
    conjugation of the field, so their matrices pick up a transposed
    factor:  C' = S C g0 S~ g0'^-1  and  T' = S T S~.
    """
    st = s.transpose()
    c_new = s * sol.C * old_g0 * st * new_g0.inverse()
    p_new = s * sol.P * s.dagger()
    t_new = s * sol.T * st
    return CptSolutionSet(sol.variant, C=c_new, P=p_new, T=t_new)


# -- per-solution property report ------------------------------------------------


def verify_solution_properties(sol: CptSolutionSet) -> dict[str, bool]:
    """Exact checks of every identity claimed for a consistent set: each
    matrix has the `CLASS_SIGNS` of its class in `CLASSES`, and a matrix
    equal to its own conjugate has real entries."""
    ident = Mat4.identity()
    c, p, t = sol.C, sol.P, sol.T
    theta = sol.theta
    checks: dict[str, bool] = {}
    checks["squares"] = sol.squares() == SQUARE_SIGNATURES[sol.variant]
    for name, m in (("C", c), ("P", p), ("T", t), ("theta", theta)):
        kind = CLASSES[sol.variant][name]
        signs = CLASS_SIGNS[kind]
        images = (m.dagger(), m.inverse(), m.transpose(), m.conj())
        for op, image, sign in zip(("adjoint", "inverse", "transpose",
                                    "conjugate"), images, signs):
            checks[f"{name}_{op}"] = image == (m if sign == 1 else -m)
        checks[f"{name}_unimodular"] = m.det() == ONE
        checks[f"{name}_traceless"] = m.trace().is_zero()
        membership = classify(m)
        checks[f"{name}_in_{kind}"] = membership.in_class(kind)
        if signs[3] == 1:
            checks[f"{name}_real"] = membership.real_entries

    checks["CCstar"] = c * c.conj() == -ident
    checks["PT_commute"] = p * t == t * p
    checks["theta_square"] = theta * theta == ident
    return checks
