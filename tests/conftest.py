import random
from fractions import Fraction

import pytest

from cptgroup.matrices import ID2, GammaRep, Mat4, _kron
from cptgroup.scalars import I, INV_SQRT2, ONE, ZERO, Scalar
from cptgroup.solver import ConstraintSystem, Relation
from cptgroup.verify import Context, run_all


def status_of(report, claim_id: str) -> str:
    """The status of the claim `claim_id` in `report`."""
    return next(s.status for s in report.sections if s.claim_id == claim_id)


_H = ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
_PHASE = ((ONE, ZERO), (ZERO, I))
_T = ((ONE, ZERO), (ZERO, (ONE + I) * INV_SQRT2))
CLIFFORD_GATES = (_kron(_H, ID2), _kron(ID2, _H), _kron(_PHASE, ID2),
                  _kron(ID2, _PHASE),
                  Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                        [0, 0, 1, 0]]))
# T x 1 and 1 x T: their words have entries beyond 0 and the units
T_GATES = (_kron(_T, ID2), _kron(ID2, _T))


def random_clifford(rng: random.Random, gates=CLIFFORD_GATES,
                    length: int = 12) -> Mat4:
    """A word of `length` gates drawn from `gates`, each applied as
    s <- gate s; by default 12 in H x 1, 1 x H, S x 1, 1 x S and CNOT: a
    unitary change of basis that is in general neither hermitian nor
    involutive."""
    s = Mat4.identity()
    for _ in range(length):
        s = rng.choice(gates) * s
    return s


def random_dense(rng: random.Random) -> Mat4:
    """An invertible matrix over Q(i, √2) whose entries, as in the
    dense-algebra benchmark, have each rational component ±(1..9)/(1..9)
    with probability 0.6 and 0 otherwise."""
    while True:
        m = Mat4([[Scalar(*[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     rng.randint(1, 9))
                            if rng.random() < 0.6 else 0 for _ in range(4)])
                   for _ in range(4)] for _ in range(4)])
        if not m.det().is_zero():
            return m


def word_systems(rng: random.Random, rep: GammaRep):
    """Eight seeded systems of 1 to 4 relations X f(B_j) = +-B_k X, f the
    identity, transpose or conjugation, built as the dense-algebra
    benchmark builds them: each holds for one basis word X0."""
    signed = {b.scale(s): (k, s) for k, b in enumerate(rep.basis)
              for s in (1, -1)}
    for _ in range(8):
        x0 = rep.basis[rng.randrange(16)]
        rels = []
        for _ in range(rng.randint(1, 4)):
            right = rng.choice((lambda m: m, Mat4.transpose, Mat4.conj))(
                rep.basis[rng.randrange(16)])
            k, s = signed[x0 * right * x0.inverse()]
            rels.append(Relation(right, rep.basis[k], s))
        yield ConstraintSystem(tuple(rels))


def signs_of(group):
    """C², P², T² and κ in CP = κ·PC, CT = κ·TC, PT = κ·TP, each ±1 (None
    where neither), read off a group's words in its letters C, P, T, "-"."""
    w = group.word

    def sign(word, other):
        return 1 if w(word) == w(other) else \
            -1 if w(word) == w("-" + other) else None
    return (tuple(sign(x + x, "1") for x in "CPT"),
            tuple(sign(x + y, y + x) for x, y in ("CP", "CT", "PT")))


@pytest.fixture(scope="session")
def clifford_reps():
    """Twenty seeded Clifford bases, built once: `kernel` and
    `compatible_pairs` keep their results per rep object, so the tests
    that share these solve and sweep each basis once."""
    rng = random.Random(2004)
    return tuple(GammaRep(random_clifford(rng)) for _ in range(20))


@pytest.fixture(scope="session")
def ctx():
    return Context()


@pytest.fixture(scope="session")
def pipeline():
    """The fully-built context and verification report, shared."""
    return run_all()
