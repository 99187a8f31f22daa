"""Special functions, quadrature nodes, and reproducible random sampling.

Everything here is deterministic given an :class:`RngStream`, so Monte Carlo
callers can parallelize per work unit and still merge bit-exact results.
`RngStream.child_generators` seeds a block of work units in one vectorized
pass of numpy's SeedSequence hash; each generator is bit-identical to the
one `child_generator` builds for its key.

scipy is bound lazily: ``special``, ``integrate`` and ``optimize`` here are
:class:`LazyModule` stand-ins that import their scipy submodule on the first
attribute lookup; ``abs_net`` and ``localization`` import these bindings. So
``import a2gnet`` loads no scipy, and runs that never call it (mapsim,
aerial-UE Monte Carlo) never pay its import. No library code calls
``integrate`` any more; it stays bound only because ``bench/tracing.py``
proxies ``abs_net.integrate`` on traced runs.
"""

from __future__ import annotations

import functools
import importlib
import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as np

from .errors import DomainError

_TWO32 = 1 << 32
_TWO64 = 1 << 64


class LazyModule:
    """Stand-in for the module `name`, imported on the first attribute lookup.

    Call sites keep the module spelling (``special.chndtr``), and the binding
    stays a module attribute that can be swapped with setattr.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)  # later lookups skip __getattr__
        return value


integrate = LazyModule("scipy.integrate")
optimize = LazyModule("scipy.optimize")
special = LazyModule("scipy.special")


# ---------------------------------------------------------------------------
# dB / power helper
# ---------------------------------------------------------------------------

def dbm_to_watt(p_dbm):
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# Reproducible random streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), replayed by
# RngStream.child_generators; the words are uint32, the arithmetic mod 2**32
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875    # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED    # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> List[int]:
    """SeedSequence's words of a non-negative int, least significant first;
    0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(const: int, mult: int, n: int):
    """The (xor, multiplier) constants of n successive hash steps from
    `const`: step i xors the value with xor[i], then multiplies it by
    mul[i]."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(const)
        const = const * mult & _MASK32
        mul.append(const)
    return xor, mul


def _hashmix(value: int, const: int):
    """(hashed value, next constant) of one SeedSequence hashmix step."""
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _frozen_words(values) -> np.ndarray:
    # shared by every call, so read-only
    words = np.array(values, np.uint64)
    words.flags.writeable = False
    return words


# generate_state(4, uint64) hashes the 4 pool words cyclically into 8 uint32
# words; uint64 word j is words 2j (low half) and 2j + 1
_STATE_XOR, _STATE_MUL = map(_frozen_words,
                             _hash_constants(_INIT_B, _MULT_B, 8))


@functools.lru_cache(maxsize=64)
def _key_pass(master_seed: int, stream_index: int):
    """Constants of the last entropy-mixing pass of
    SeedSequence(master_seed, spawn_key=(stream_index, key)), the pass over
    the key's one word, for each of the 8 generate_state words (pool word
    i % 4): the hashmix xor and multiplier, and MIX_MULT_L times the pool
    word mod 2**32. Everything before that pass depends only on the seed and
    the stream, so it is mixed here once, in Python ints."""
    run = _uint32_words(master_seed)
    # a spawned SeedSequence pads its run entropy with zeros to the pool size
    entropy = (run + [0] * (_POOL_SIZE - len(run))
               + _uint32_words(stream_index))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    xor, mul = _hash_constants(const, _MULT_A, _POOL_SIZE)
    mixed = [_MIX_MULT_L * word & _MASK32 for word in pool]
    return tuple(_frozen_words(c * 2) for c in (xor, mul, mixed))


class _SeedState:
    """A SeedSequence stand-in that holds the generate_state(4, uint64) words
    PCG64 reads when it is built; PCG64 reads their raw buffer, so they must
    be a C-contiguous uint64 row."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds only the 4 uint64 words PCG64 asks for")
        return self.words


np.random.bit_generator.ISeedSequence.register(_SeedState)


@dataclass(frozen=True)
class RngStream:
    """Named random stream: (master_seed, stream_index) fully determines draws.

    Distinct stream indices are statistically independent; the same pair
    always reproduces the same sample sequence regardless of execution order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < _TWO64):
            raise DomainError("master_seed must fit in 64 bits")
        if int(self.stream_index) < 0:
            raise DomainError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        return self.child_generator()

    def child_generator(self, *key: int) -> np.random.Generator:
        """Independent generator for a work unit, e.g. (trial index,)."""
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index, *key))
        return np.random.Generator(np.random.PCG64(ss))

    def child_generators(self, keys: Iterable[int]
                         ) -> List[np.random.Generator]:
        """`[self.child_generator(k) for k in keys]`, bit for bit, seeded in
        one pass: numpy's SeedSequence hash of every key and the PCG64 seed
        words it generates run as uint64 array operations over all keys, and
        only the generators are built one by one. Each key must lie in
        [0, 2**32), where it is one SeedSequence word. The generators hold
        their seed words, not a SeedSequence, so they cannot `spawn`."""
        keys = [operator.index(k) for k in keys]
        if not all(0 <= k < _TWO32 for k in keys):
            raise DomainError("child_generators keys must lie in [0, 2**32)")
        key_xor, key_mul, pool_mixed = _key_pass(int(self.master_seed),
                                                 int(self.stream_index))
        # (keys x 8) uint32 values in uint64: no product reaches 2**64, and
        # each step masks back to 32 bits
        w = np.array(keys, dtype=np.uint64).reshape(-1, 1) ^ key_xor
        w *= key_mul                       # hashmix of the key word
        w &= _MASK32
        w ^= w >> 16
        w *= _TWO32 - _MIX_MULT_R          # mix into the pool word: -R y is
        w += pool_mixed                    # (2**32 - R) y mod 2**32
        w &= _MASK32
        w ^= w >> 16
        w ^= _STATE_XOR                    # generate_state
        w *= _STATE_MUL
        w &= _MASK32
        w ^= w >> 16
        # PCG64 reads each row's raw buffer, so the rows must be C-contiguous
        state = np.empty((len(keys), 4), np.uint64)
        np.left_shift(w[:, 1::2], 32, out=state)
        state |= w[:, 0::2]
        return [np.random.Generator(np.random.PCG64(_SeedState(row)))
                for row in state]


RngLike = Union[RngStream, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def marcum_q(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b).

    Q1(a, b) = P[X > b^2] for X noncentral chi-square with 2 degrees of
    freedom and noncentrality a^2, evaluated as 1 - scipy.special.chndtr.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("marcum_q arguments must be finite")
    if a < 0.0 or b < 0.0:
        raise DomainError("marcum_q arguments must be non-negative")
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    return 1.0 - float(special.chndtr(b * b, 2.0, a * a))


def inv_marcum_q(a: float, p: float) -> float:
    """Solve Q1(a, b) = p for b: b^2 is the (1 - p) noncentral chi-square
    quantile, from scipy.special.chndtrix. Because 1 - p rounds, b loses
    precision as p falls below about 1e-10, and for a > 0 a p at or below
    2**-54 (about 5.6e-17), where 1 - p rounds to 1, is rejected."""
    a = float(a)
    p = float(p)
    if not (math.isfinite(a) and math.isfinite(p)):
        raise DomainError("inv_marcum_q arguments must be finite")
    if a < 0.0:
        raise DomainError("inv_marcum_q requires a >= 0")
    if not 0.0 < p <= 1.0:
        raise DomainError("inv_marcum_q requires 0 < p <= 1")
    if p == 1.0:
        return 0.0
    if a == 0.0:
        return math.sqrt(-2.0 * math.log(p))
    if 1.0 - p == 1.0:
        raise DomainError("inv_marcum_q requires p > 2**-54 (about 5.6e-17) "
                          "when a > 0: 1 - p rounds to 1")
    return math.sqrt(float(special.chndtrix(1.0 - p, 2.0, a * a)))


# ---------------------------------------------------------------------------
# Capacity quadrature nodes
# ---------------------------------------------------------------------------

def chebyshev_capacity_nodes(k: int):
    """Nodes/weights turning int_0^inf f(t) dt into sum_n w_n f(t_n).

    t_n = tan[(pi/4) cos((2n-1)pi/2K) + pi/4]
    w_n = pi^2 sin((2n-1)pi/2K) / (4K cos^2[(pi/4) cos((2n-1)pi/2K) + pi/4])

    Returns (t, w) as float arrays of length K, in ascending node order.
    """
    if int(k) != k or k < 1:
        raise DomainError("node count K must be a positive integer")
    k = int(k)
    n = np.arange(1, k + 1)
    theta = (2 * n - 1) * np.pi / (2 * k)
    u = 0.25 * np.pi * np.cos(theta) + 0.25 * np.pi
    t = np.tan(u)
    w = np.pi ** 2 * np.sin(theta) / (4 * k * np.cos(u) ** 2)
    order = np.argsort(t)
    return t[order], w[order]


# ---------------------------------------------------------------------------
# Small-scale fading and shadowing samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh envelope; power gain ~ Exp(1) (unit mean)."""


@dataclass(frozen=True)
class Rician:
    """Rician envelope with linear K-factor, normalized to unit mean power."""

    k_factor: float

    def __post_init__(self):
        if not (math.isfinite(self.k_factor) and self.k_factor >= 0.0):
            raise DomainError("Rician K-factor must be >= 0")

    @classmethod
    def from_db(cls, k_db: float) -> "Rician":
        return cls(10.0 ** (k_db / 10.0))


@dataclass(frozen=True)
class Nakagami:
    """Nakagami-m envelope; power gain ~ Gamma(m, 1/m) (unit mean)."""

    m: int

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise DomainError("Nakagami m must be a positive integer")


FadingModel = Union[Rayleigh, Rician, Nakagami]


def sample_fading(model: FadingModel, rng: RngLike, size=None):
    """Draw unit-mean linear power gains from the given fading law."""
    g = as_generator(rng)
    if isinstance(model, Rayleigh):
        return g.exponential(1.0, size)
    if isinstance(model, Nakagami):
        return g.gamma(model.m, 1.0 / model.m, size)
    if isinstance(model, Rician):
        k = model.k_factor
        mean = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(0.5 / (k + 1.0))
        re = g.normal(mean, sigma, size)
        im = g.normal(0.0, sigma, size)
        return re * re + im * im
    raise DomainError(f"unknown fading model {model!r}")


def nakagami_power_cdf(omega, m: int):
    """P[power < omega] for Nakagami-m unit-mean power (Erlang tail sum)."""
    omega = np.asarray(omega, dtype=float)
    acc = np.zeros_like(omega)
    for k in range(int(m)):
        acc += (m * omega) ** k / math.factorial(k)
    return 1.0 - acc * np.exp(-m * omega)


def sample_shadowing_db(sigma_db: float, rng: RngLike, size=None):
    """Zero-mean normal large-scale fading in dB; sigma 0 draws nothing and
    returns zeros."""
    if not (math.isfinite(sigma_db) and sigma_db >= 0.0):
        raise DomainError("shadowing sigma must be >= 0 dB")
    if sigma_db == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return as_generator(rng).normal(0.0, sigma_db, size)
