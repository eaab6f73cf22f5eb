"""Exact-arithmetic derivation and verification of the CPT groups of
the Dirac field.

The package derives the charge-conjugation, parity, and time-reversal
matrices as kernels of exact linear constraint systems over Q(i, √2),
enumerates the two consistent solution families, constructs the three
sixteen-element groups they generate (two matrix groups and the quantum
operator group), and machine-verifies every multiplication table, cycle
decomposition, isomorphism, and group-extension claim against the
transcribed reference data.
"""

from .scalars import Scalar
from .matrices import (GammaRep, Grade, Mat4, MatrixClass, RepTag,
                       classify, get_rep)
from .solver import (CptSolutionSet, SolutionSpace, canonical_sets,
                     enumerate_consistent_sets, kernel)
from .groups import FiniteGroup, GroupMap, Permutation, ShortExactSequence
from .verify import VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [
    "Scalar", "Mat4", "GammaRep", "Grade", "MatrixClass", "RepTag",
    "classify", "get_rep", "CptSolutionSet", "SolutionSpace",
    "canonical_sets", "enumerate_consistent_sets", "kernel", "FiniteGroup",
    "GroupMap", "Permutation", "ShortExactSequence", "VerificationReport", "run_all", "__version__",
]
