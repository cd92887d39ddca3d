"""Scrambled Sobol' points, bit-identical to
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)``.

The sequence is the Joe & Kuo (2008) Sobol' sequence to 30 bits in Gray-code
order, scrambled by a random lower-triangular binary matrix per coordinate
and a random digital shift (LMS+shift; Matousek 1998, Owen 1998).  The
random bits are drawn from ``np.random.default_rng(seed)`` in scipy's order:
the shift first, then the matrices.  The direction-number table is the one
scipy ships; it is located on disk, so ``scipy.stats`` is never imported.
"""

import importlib.util
import os
from functools import lru_cache

import numpy as np

_BITS = 30
_TABLE = os.path.join("stats", "_sobol_direction_numbers.npz")


@lru_cache(maxsize=1)
def _table():
    """(poly, vinit) of the Joe-Kuo table, loaded once per process."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    path = os.path.join(roots[0], _TABLE) if roots else None
    if path is None or not os.path.isfile(path):
        raise RuntimeError(
            "Sobol' direction numbers not found: the coarse solver stage "
            f"reads scipy's {_TABLE}; install scipy")
    # Every entry is below 2^19.  Narrowing the int64 file arrays halves
    # the cached table, and freeing the 3 MB int64 copy raises glibc's
    # dynamic mmap threshold past the solver's per-call temporaries, as
    # scipy's own loader does; without it they are returned to the OS and
    # faulted back in on every call (about 70k extra page faults and 7% more
    # time over the 48 grid solves of the euclid-grid benchmark workload).
    with np.load(path) as z:
        return z["poly"].astype(np.uint32), z["vinit"].astype(np.uint32)


@lru_cache(maxsize=None)
def _directions(j):
    """Unscrambled direction numbers of coordinate j, left-aligned to
    _BITS bits (Bratley & Fox 1988, Algorithm 659 recurrence)."""
    if j == 0:
        v = [1] * _BITS
    else:
        poly, vinit = _table()
        p = int(poly[j])
        m = p.bit_length() - 1
        v = [int(t) for t in vinit[j, :m]]
        for k in range(m, _BITS):
            new = v[k - m]
            for i in range(m):
                if (p >> (m - 1 - i)) & 1:
                    new ^= v[k - i - 1] << (i + 1)
            v.append(new)
    out = np.array([t << (_BITS - 1 - k) for k, t in enumerate(v)],
                   dtype=np.int64)
    out.setflags(write=False)  # cached: shared by every caller
    return out


class ScrambledSobol:
    """Stateful generator: successive ``random(n)`` calls continue the
    sequence exactly as chained ``qmc.Sobol.random`` calls do."""

    def __init__(self, d, seed):
        rng = np.random.default_rng(seed)
        shift_bits = rng.integers(2, size=(d, _BITS), dtype=np.uint32)
        self._shift = shift_bits.astype(np.int64) @ (1 << np.arange(_BITS))
        ltm = np.tril(rng.integers(2, size=(d, _BITS, _BITS),
                                   dtype=np.uint32)).astype(np.int64)
        ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
        v = np.stack([_directions(j) for j in range(d)])  # (d, _BITS)
        # GF(2) product L @ bits(v) per direction number, bits MSB first
        msb = np.arange(_BITS - 1, -1, -1)
        bits = (v[..., None] >> msb) & 1
        self._sv = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)
        self._next = 0

    def random(self, n):
        """The next n points, shape (n, d), in [0, 1)."""
        k0 = self._next
        if k0 + n > 1 << _BITS:
            raise ValueError(f"at most 2**{_BITS} Sobol' points exist")
        gray = k0 ^ (k0 >> 1)
        first = self._shift.copy()
        for b in range(gray.bit_length()):
            if (gray >> b) & 1:
                first ^= self._sv[:, b]
        # point k+1 flips direction ctz(k+1) of point k (Gray-code order)
        k = np.arange(k0 + 1, k0 + n, dtype=np.int64)
        ctz = np.frexp((k & -k).astype(float))[1] - 1
        steps = np.vstack([first[None], self._sv[:, ctz].T])
        self._next = k0 + n
        pts = np.bitwise_xor.accumulate(steps, axis=0) * 2.0 ** -_BITS
        return pts[:n]  # n = 0 leaves only the unused first row
