"""Heisenberg chains in truncated total-spin eigenbases.

Builds spin-path (total-spin eigenstate) bases for the open antiferromagnetic
chain, represents the Hamiltonian on them through nearest-neighbor
transposition rules, maps the band-truncated operators to sparse local qubit
Pauli sums, and drives Trotterized real-time evolution and adiabatic
ground-state preparation schedules on top.

Layering: basis, the height rules (rules), encode and circuits use numpy
only; sga, sim and adiabatic build scipy.sparse matrices; sga loads scipy's
eigensolvers at the first eigensolve.  Importing the package loads numpy
alone: sga's names below are exported lazily, and the first lookup of one
imports sga.
"""

from .basis import CsfBasis, SpinPath, cardinality, enumerate_paths
from .encode import (PauliString, PauliSum, QubitLayout, build_layout,
                     encode_hamiltonian, qubit_count)
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     SpinAdaptError, UnphysicalPathError,
                     UnsupportedConfigurationError)
from .rules import band_coefficients

_SGA_EXPORTS = ("SparseOperator", "apply_hamiltonian", "band_hamiltonian",
                "build_hamiltonian", "permutation_matrix")

__all__ = [
    "CsfBasis", "PauliString", "PauliSum", "QubitLayout",
    "SparseOperator", "SpinPath", "InvalidQuantumNumbersError",
    "ResourceLimitError", "SpinAdaptError", "UnphysicalPathError",
    "UnsupportedConfigurationError", "apply_hamiltonian", "band_coefficients", "band_hamiltonian",
    "build_hamiltonian", "build_layout", "cardinality", "encode_hamiltonian",
    "enumerate_paths", "permutation_matrix", "qubit_count",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """sga's exports, looked up in sga on every access, so that the package
    root and sga never hold different copies of one."""
    if name in _SGA_EXPORTS:
        from . import sga
        return getattr(sga, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
