import numpy as np
import pytest
from scipy.linalg import expm

from spinadapt.encode import PauliString, PauliSum, _expand_term, band_terms
from spinadapt.sga import band_coefficients


def _band_step_reference(layout, dt, ramp=1.0):
    """One order-1 encoded Trotter step from dense exponentials:
    exp(i dt (N-1)/4) exp(-i dt/2 H_1) exp(-i dt/2 H_0), where H_k sums the
    band terms of the transpositions of parity k (bands s >= 1 scaled by
    ramp), each term expanded to a Pauli sum of its own."""
    dim = 1 << layout.n_qubits
    layers = {0: np.zeros((dim, dim), complex), 1: np.zeros((dim, dim), complex)}
    for s in range(layout.trunc_x2):
        a, b = band_coefficients(s)
        for term in band_terms(layout, s):
            acc = {}
            _expand_term(term, layout.n_qubits, a, b, acc)
            mini = PauliSum(layout.n_qubits, tuple(
                PauliString(complex(v), k) for k, v in acc.items()))
            layers[(term.perm - 1) % 2] += (ramp if s else 1.0) * mini.to_dense()
    return np.exp(1j * dt * (layout.n_sites - 1) / 4) * \
        expm(-1j * dt * 0.5 * layers[1]) @ expm(-1j * dt * 0.5 * layers[0])


@pytest.fixture
def band_step_reference():
    """The dense reference for csf_trotter_step(..., order=1): a function
    (layout, dt, ramp=1.0) -> unitary."""
    return _band_step_reference
