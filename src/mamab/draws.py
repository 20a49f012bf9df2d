"""Counter-based random draws for one trial.

Every uniform a trial uses is an address: the splitmix64 hash of (trial
seed, purpose, index), in the manner of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11). A purpose's stream key is
``splitmix64(splitmix64(seed mod 2**64) + purpose)``, and index i of the
stream is output i of the splitmix64 generator seeded with that key,
``mix(key + (i + 1) * 0x9E3779B97F4A7C15)``; its top 53 bits give the
uniform ``(h >> 11) * 2**-53`` in [0, 1). A value therefore depends on
its address alone: not on the block that computed it, on the other
purposes' streams, or on the other trials of a run.

Streams are computed in numpy blocks that grow from FIRST_BLOCK entries
to BLOCK_CAP and are read as Python lists; a wide trial reads its score
normals and gate passes as slices of the same blocks. The hash mixes only uint64
arrays and Python ints (numpy wraps arrays silently but warns on scalar
overflow). Logarithms, cosines and sines come from ``log`` and
``cos_sin_2pi`` below, which use only exact steps (frexp, rint, scaling
by powers of two) and IEEE-754 sums, products and quotients, each
correctly rounded; so they give the same bits on every machine, unlike
numpy's SIMD transcendentals, which vary with numpy's version and the
CPU it dispatches for, and unlike the C library's. Both stay within two
ulps of the exact values.

* Normals come pairwise by Box-Muller: with u, v the uniforms 2i and
  2i + 1, z[2i] = r cos(2 pi v) and z[2i + 1] = r sin(2 pi v), where
  r = sqrt(-2 log(1 - u)).
* Gate passes lie on the trial's slot axis (round t's slot j is
  (t - 1) * width + j) at geometric gaps floor(log(1 - u) / log1p(-eps))
  + 1, one uniform a gap, so the passes of every slot are independent
  Bernoulli(eps) for eps in (0, 1]. A gap is capped at MAX_GAP slots,
  so the passes are exact for the first MAX_GAP slots of a trial. The
  scale log1p(-eps), one number a trial, is Python's ``math.log1p``.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

FIRST_BLOCK = 64
BLOCK_CAP = 4096
MAX_GAP = 1 << 50

# purposes, one stream each
GATES, SCORES, REWARDS, REWARD_NORMALS, CHOICES = range(5)


def splitmix64(x: int) -> int:
    """One splitmix64 step on a Python int: mix(x + GOLDEN)."""
    x = (x + GOLDEN) & MASK
    x = ((x ^ (x >> 30)) * MIX1) & MASK
    x = ((x ^ (x >> 27)) * MIX2) & MASK
    return x ^ (x >> 31)


def stream_key(seed: int, purpose: int) -> int:
    return splitmix64(splitmix64(seed & MASK) + purpose)


def uniforms(key: int, start: int, n: int) -> np.ndarray:
    """Uniforms at indices start .. start + n - 1 of the stream `key`."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= GOLDEN
    z += key
    z ^= z >> 30
    z *= MIX1
    z ^= z >> 27
    z *= MIX2
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


LN2 = 0.6931471805599453          # log(2), correctly rounded
SQRT_HALF = 0.7071067811865476
# Horner coefficients, highest power first, of atanh(t) / t in t**2 and of
# sin(x) / x and cos(x) in x**2; the first term dropped stays below
# 2**-55 for |t| <= 3 - 2 sqrt(2) and |x| <= pi/4
ATANH = [1.0 / (2 * k + 1) for k in range(9, -1, -1)]
SIN = [(-1) ** k / math.factorial(2 * k + 1) for k in range(8, -1, -1)]
COS = [(-1) ** k / math.factorial(2 * k) for k in range(8, -1, -1)]


def _horner(coefs: list[float], x: np.ndarray) -> np.ndarray:
    p = coefs[0] * x
    for a in coefs[1:-1]:
        p += a
        p *= x
    p += coefs[-1]
    return p


def log(x: np.ndarray) -> np.ndarray:
    """Natural logarithm of positive finite x: with x = m * 2**e and m in
    [sqrt(1/2), sqrt(2)), log x = e log 2 + 2 atanh((m - 1) / (m + 1))."""
    m, e = np.frexp(x)
    low = m < SQRT_HALF
    m = np.where(low, m * 2.0, m)
    e -= low
    t = (m - 1.0) / (m + 1.0)
    return e * LN2 + 2.0 * t * _horner(ATANH, t * t)


def cos_sin_2pi(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi v) and sin(2 pi v) for v in [0, 1]: with q the nearest
    integer to 4v, 2 pi v = q pi/2 + x for x = (4v - q) pi/2, reduced
    exactly, and |x| <= pi/4."""
    w = v * 4.0
    q = np.rint(w)
    x = (w - q) * (math.pi / 2)
    x2 = x * x
    s = x * _horner(SIN, x2)
    c = _horner(COS, x2)
    turns = q.astype(np.int64)
    # quarter turn q & 3 maps (c, s) to (c, s), (-s, c), (-c, -s), (s, -c):
    # an odd turn swaps them, and the signs are exact factors of +-1
    odd = (turns & 1).astype(bool)
    return (np.where(odd, s, c) * (1.0 - ((turns + 1) & 2)),
            np.where(odd, c, s) * (1.0 - (turns & 2)))


def normal_array(key: int, start: int, n: int) -> np.ndarray:
    """Normals at indices start .. start + n - 1, made pairwise from the
    uniform pairs that cover them."""
    first = start - start % 2
    u = uniforms(key, first, start + n - first + (start + n) % 2)
    r = np.sqrt(-2.0 * log(1.0 - u[0::2]))
    cos, sin = cos_sin_2pi(u[1::2])
    z = np.empty(len(u))
    np.multiply(r, cos, out=z[0::2])
    np.multiply(r, sin, out=z[1::2])
    return z[start - first:start - first + n]


def gaps(u: np.ndarray, scale: float) -> np.ndarray:
    """Geometric gaps floor(log(1 - u) / scale) + 1 of the uniforms u,
    with scale = log1p(-eps)."""
    # 1 - u is exact for u a multiple of 2**-53; clipping its log at
    # MAX_GAP * scale bounds the quotient by MAX_GAP, so neither the
    # division nor the int64 gap overflows
    q = np.maximum(log(1.0 - u), MAX_GAP * scale) / scale
    return np.floor(q).astype(np.int64) + 1


def _blocks(key: int, make):
    """make(key, start, n)'s values in consecutive blocks of n, growing
    from FIRST_BLOCK to BLOCK_CAP entries."""
    start, size = 0, FIRST_BLOCK
    while True:
        size = min(size, BLOCK_CAP)
        yield make(key, start, size)
        start += size
        size *= 2


class _Stream:
    """One purpose's values, read in order, a slice at a time: the float64
    arrays `make` gives when `array` is set, lists otherwise."""

    def __init__(self, key: int, make, array: bool = False):
        blocks = _blocks(key, make)
        self.blocks = blocks if array else map(np.ndarray.tolist, blocks)
        self.buf = np.empty(0) if array else []
        self.pos = 0

    def take(self, n: int):
        """The next n values."""
        pos = self.pos
        end = pos + n
        if end > len(self.buf):
            buf = self.buf[pos:]
            while len(buf) < n:
                if type(buf) is list:
                    buf += next(self.blocks)
                else:
                    buf = np.concatenate((buf, next(self.blocks)))
            self.buf = buf
            pos, end = 0, n
        self.pos = end
        return self.buf[pos:end]


class TrialDraws:
    """Every random number of one trial, by address.

    Each purpose reads its own stream in order: `scores` the score
    normals (pass k takes normal k), `rewards` and `reward_normals` one
    slice of len(groups) a round, `choices` the uniforms behind the
    random policy and candidate sampling, and the gates, drawn for
    epsilon in (0, 1], their gap uniforms. A `wide` trial reads its score
    normals and gate passes as numpy arrays, cut from the same blocks:
    the same values at the same addresses.
    """

    def __init__(self, seed: int, wide: bool = False):
        self.seed = seed
        self.wide = wide
        self.scores = _Stream(stream_key(seed, SCORES), normal_array, array=wide)
        self.rewards = _Stream(stream_key(seed, REWARDS), uniforms)
        self.reward_normals = _Stream(stream_key(seed, REWARD_NORMALS), normal_array)
        self.choices = _Stream(stream_key(seed, CHOICES), uniforms)
        self.gate = None          # the trial's (eps, width), once drawn
        self.gaps = None          # its gate gaps, in order (in blocks when wide)
        self.next_pass = 0        # slot of the next pass, from the next row's start
        # wide: pass slots from `start`, the next row's first slot, where
        # slots[lo - 1] is the last pass (or -1) before slots[lo]
        self.slots = np.array([-1], dtype=np.int64)
        self.lo = 1
        self.start = 0

    def passes(self, eps: float, width: int):
        """Offsets j in [0, width) of the next row of `width` slots whose
        gate passes with probability eps, ascending: a list, or an int64
        array when wide. Gates are drawn for eps in (0, 1], and a trial
        keeps one eps and one width."""
        if self.gate != (eps, width):
            if self.gate is not None:
                raise ValueError(f"this trial's gates were drawn at epsilon {self.gate[0]} "
                                 f"over {self.gate[1]} slots, not {eps} over {width}")
            if not 0.0 < eps <= 1.0:
                raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
            self.gate = (eps, width)
            scale = -math.inf if eps == 1.0 else math.log1p(-eps)
            self.gaps = _blocks(stream_key(self.seed, GATES),
                                lambda key, start, n: gaps(uniforms(key, start, n), scale))
            if not self.wide:
                self.gaps = chain.from_iterable(map(np.ndarray.tolist, self.gaps))
                # pass k lies at slot s_k = s_(k-1) + gap_k, with s_0 = -1
                self.next_pass = next(self.gaps) - 1
        if self.wide:
            return self._pass_array(width)
        s = self.next_pass
        row = []
        while s < width:
            row.append(s)
            s += next(self.gaps)
        self.next_pass = s - width
        return row

    def _pass_array(self, width: int) -> np.ndarray:
        slots, lo, start = self.slots, self.lo, self.start
        end = start + width
        while slots[-1] < end:
            # rebase on the row's start and place the next block of gaps
            # after the last known pass; the base stays below `width` and a
            # block of MAX_GAP gaps below 2**62, so no slot overflows
            known = slots[lo - 1:] - start
            slots = np.concatenate((known, known[-1] + np.cumsum(next(self.gaps))))
            lo, start, end = 1, 0, width
        hi = int(slots.searchsorted(end))
        self.slots, self.lo, self.start = slots, hi, end
        return slots[lo:hi] - start
