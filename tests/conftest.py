import random
from fractions import Fraction

import pytest

from cptgroup.matrices import ID2, Mat4, _kron
from cptgroup.scalars import I, INV_SQRT2, ONE, ZERO, Scalar
from cptgroup.verify import Context, run_all


def status_of(report, claim_id: str) -> str:
    """The status of the claim `claim_id` in `report`."""
    return next(s.status for s in report.sections if s.claim_id == claim_id)


def random_clifford(rng: random.Random) -> Mat4:
    """A word of 12 gates in H x 1, 1 x H, S x 1, 1 x S and CNOT: a
    unitary change of basis that is in general neither hermitian nor
    involutive."""
    h = ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
    phase = ((ONE, ZERO), (ZERO, I))
    cnot = Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    gates = [_kron(h, ID2), _kron(ID2, h), _kron(phase, ID2),
             _kron(ID2, phase), cnot]
    s = Mat4.identity()
    for _ in range(12):
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


@pytest.fixture(scope="session")
def ctx():
    return Context()


@pytest.fixture(scope="session")
def pipeline():
    """The fully-built context and verification report, shared."""
    return run_all()
