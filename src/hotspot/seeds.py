"""Deterministic seed derivation for parallel Monte-Carlo trials.

Child seeds come from a splitmix64 chain over the master seed plus an
arbitrary tuple of tokens (trial index, sweep value, scenario label, ...).
Trial i of sweep point v therefore always sees the same RNG stream no
matter in which order, or on how many workers, trials execute. String and
float tokens are folded in through a keyed blake2b digest so derivation
does not depend on Python's per-process hash randomization.
"""

from __future__ import annotations

import hashlib
import numbers
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One output step of the splitmix64 mixer."""
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64_array(state) -> np.ndarray:
    """splitmix64 applied elementwise in wrapping uint64 arithmetic.

    Bit-identical to :func:`splitmix64` on every 64-bit word. The result is
    at least one-dimensional: numpy scalars would warn on the wrap-around.
    """
    z = np.array(state, dtype=np.uint64, ndmin=1)  # a copy, updated in place
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _token_to_int(token) -> int:
    if isinstance(token, numbers.Integral):  # numpy integers hash as their value
        return int(token) & _MASK
    # floats go through repr so 0.1 and 0.10 collide but 0.1 and 0.2 never do
    digest = hashlib.blake2b(repr(token).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(master: int, *tokens) -> int:
    """Derive a 64-bit child seed from a master seed and a token tuple."""
    state = splitmix64(operator.index(master) & _MASK)
    for token in tokens:
        state = splitmix64(state ^ _token_to_int(token))
    return state
