"""A fixed block of work timed after every workload iteration: the host's speed.

On a shared host the same iteration runs 20-40% faster or slower from one
minute to the next.  The end-to-end time metric wall_ref divides a run's
median iteration time by the median time of this block, timed in the same
process right after each iteration, so the host's drift cancels and a change
to the program shows.  The block mixes two kinds of work spinadapt's
iterations do: a Python loop of dict lookups on tuple keys and numpy scalar
updates (sga's rules) and whole-vector complex arithmetic on a 15-qubit
register (sim's kernel).  Its loops allocate no tuples, lists or dicts, so the
garbage collector, whose passes grow with what the program leaves alive,
does not run during it.
"""

from __future__ import annotations

import numpy as np

_SIZE = 4096
_KEYS = [(i % 3, i % 5, i % 7, i) for i in range(_SIZE)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}
_VALUES = np.linspace(0.0, 1.0, _SIZE)
_REGISTER = np.exp(1j * np.linspace(0.0, 3.0, 1 << 15))
_PHASE = np.exp(-0.5j * np.linspace(0.0, 1.0, 1 << 15))
_SQRT_HALF = np.sqrt(0.5)

PY_PASSES = 160
VECTOR_PASSES = 800


def block() -> float:
    """The reference work; returns a checksum so none of it is skipped."""
    out = np.zeros(_SIZE)
    for _ in range(PY_PASSES):
        for key in _KEYS:
            k = _INDEX[key]
            if key[0] == 1:
                out[k] += 0.5 * _VALUES[k]
            else:
                out[k] -= _VALUES[k]
    reg = _REGISTER.copy()
    for _ in range(VECTOR_PASSES):
        reg *= _PHASE
        even, odd = reg[::2].copy(), reg[1::2]   # a Hadamard on qubit 0
        reg[::2] = (even + odd) * _SQRT_HALF
        reg[1::2] = (even - odd) * _SQRT_HALF
    return float(out.sum()) + float(np.abs(reg).sum())
