"""Heisenberg chains in truncated total-spin eigenbases.

Builds spin-path (total-spin eigenstate) bases for the open antiferromagnetic
chain, represents the Hamiltonian on them through nearest-neighbor
transposition rules, maps the band-truncated operators to sparse local qubit
Pauli sums, and drives Trotterized real-time evolution and adiabatic
ground-state preparation schedules on top.
"""

from .basis import (CsfBasis, SpinPath, cardinality, enumerate_paths,
                    singlet_pair_path, triplet_reference_path)
from .encode import (PauliString, PauliSum, QubitLayout, build_layout,
                     encode_hamiltonian, qubit_count)
from .errors import (InvalidQuantumNumbersError, ResourceLimitError,
                     SpinAdaptError, UnphysicalPathError,
                     UnsupportedConfigurationError)
from .sga import (SparseOperator, apply_hamiltonian, band_coefficients,
                  band_hamiltonian, build_hamiltonian, permutation_matrix)

__all__ = [
    "CsfBasis", "PauliString", "PauliSum", "QubitLayout",
    "SparseOperator", "SpinPath", "InvalidQuantumNumbersError",
    "ResourceLimitError", "SpinAdaptError", "UnphysicalPathError",
    "UnsupportedConfigurationError", "apply_hamiltonian", "band_coefficients", "band_hamiltonian",
    "build_hamiltonian", "build_layout", "cardinality", "encode_hamiltonian",
    "enumerate_paths", "permutation_matrix", "qubit_count", "singlet_pair_path",
    "triplet_reference_path",
]

__version__ = "0.1.0"
