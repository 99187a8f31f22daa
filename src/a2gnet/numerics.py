"""Special functions, quadrature nodes, and reproducible random sampling.

Everything here is deterministic given an :class:`RngStream`, so Monte Carlo
callers can parallelize per work unit and still merge bit-exact results.
The samplers take the `np.random.Generator` that
``RngStream.child_generator(key)`` returns for one work unit and advance it.
Fading is one law, a number: `sample_fading` draws Nakagami-m power gains
for an integer m (the aerial-UE links); the aerial base station's Rician
link is evaluated in closed form through Marcum Q and draws nothing.
`RngStream.child_generators` seeds a block of work units in one vectorized
pass of numpy's SeedSequence hash; each generator is bit-identical to the
one `child_generator` builds for its key. Only the hash of each key's word is
replayed: the pool mixed from the seed and the stream is read from numpy's
own ``SeedSequence(master_seed, spawn_key=(stream_index,)).pool``.

scipy is bound lazily: ``special``, ``integrate``, ``optimize`` and
``minpack`` here are :class:`LazyModule` stand-ins that import their scipy
module on the first attribute lookup; ``abs_net`` and ``localization`` import
these bindings. So ``import a2gnet`` loads no scipy, and runs that never call
it (mapsim, aerial-UE Monte Carlo) never pay its import. Each binding exists
for one caller:

- ``special``: Marcum Q and its inverse (``chndtr``, ``chndtrix``).
- ``optimize``: ``abs_net``'s coverage-radius root (``brentq``).
  ``localization`` keeps it bound, unused, because ``bench/tracing.py``
  proxies ``localization.optimize`` on traced runs.
- ``minpack``: ``localization``'s Levenberg-Marquardt solver, MINPACK's
  ``lmder`` in scipy's compiled ``scipy.optimize._minpack``. It is loaded
  by :func:`load_extension`, which skips the ``scipy.optimize`` package
  init (its sparse, linalg and minimizer imports); a localization run
  peaks at about half the memory it took with the package.
- ``integrate``: no library code calls it any more; it stays bound only
  because ``bench/tracing.py`` proxies ``abs_net.integrate`` on traced
  runs.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .errors import BoundError, DomainError, check_count, check_number

_TWO32 = 1 << 32
_TWO64 = 1 << 64


class LazyModule:
    """Stand-in for the module `name`, loaded by `load` on the first attribute
    lookup.

    Call sites keep the module spelling (``special.chndtr``), and the binding
    stays a module attribute that can be swapped with setattr.
    """

    def __init__(self, name: str, load=importlib.import_module):
        self._name = name
        self._load = load

    def __getattr__(self, attr):
        value = getattr(self._load(self._name), attr)
        setattr(self, attr, value)  # later lookups skip __getattr__
        return value


def load_extension(name: str):
    """The compiled module `name`, loaded without running its package's
    ``__init__``: the module the package imported, if it did, else a fresh
    load of the extension file found in the package's directory.

    The extension initializes single-phase and so registers itself in
    ``sys.modules``. That entry is dropped: left there, a later import of
    the package would find its submodule already loaded and never bind it
    as the package attribute. The package's own load of the extension then
    reuses the same compiled functions.
    """
    if name in sys.modules:
        return sys.modules[name]
    package = name.rpartition(".")[0]
    spec = importlib.machinery.PathFinder.find_spec(
        name, importlib.util.find_spec(package).submodule_search_locations)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


integrate = LazyModule("scipy.integrate")
minpack = LazyModule("scipy.optimize._minpack", load_extension)
optimize = LazyModule("scipy.optimize")
special = LazyModule("scipy.special")


# ---------------------------------------------------------------------------
# dB / power helpers
# ---------------------------------------------------------------------------

# largest magnitude of a dB value converted to a linear ratio: 10^(+-300)
# stays a normal float, where 10^(1e307) overflowed
MAX_LINEAR_DB = 3000.0


def db_to_linear(value_db, name: str) -> float:
    """10^(value_db / 10), value_db finite and within +-MAX_LINEAR_DB; else a
    DomainError naming `name`, the field the value comes from (its sign or
    offset may differ from value_db's)."""
    if not abs(check_number(value_db, name)) <= MAX_LINEAR_DB:
        raise BoundError(name, f"must lie within +-{MAX_LINEAR_DB:g} dB")
    return 10.0 ** (value_db / 10.0)


def dbm_to_watt(p_dbm: float) -> float:
    # an int offset keeps an integer p_dbm past the float range an int
    # until the range check
    return db_to_linear(p_dbm - 30, "p_dbm")


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


def _n_words(value: int) -> int:
    """How many uint32 words SeedSequence makes of a non-negative int; 0 is
    one word."""
    return max(1, -(-value.bit_length() // 32))


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
    the stream: the pool is numpy's own SeedSequence(master_seed,
    spawn_key=(stream_index,)).pool, and its mixing ran 4 hashmix steps per
    entropy word (the seed's words padded to the pool size, then the
    stream's), each one multiplying the hash constant by MULT_A."""
    pool = np.random.SeedSequence(master_seed, spawn_key=(stream_index,)).pool
    n_entropy = max(_n_words(master_seed), _POOL_SIZE) + _n_words(stream_index)
    const = _INIT_A * pow(_MULT_A, 4 * n_entropy, _TWO32) & _MASK32
    xor, mul = _hash_constants(const, _MULT_A, _POOL_SIZE)
    mixed = [_MIX_MULT_L * int(word) & _MASK32 for word in pool]
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
        check_count(self.master_seed, "master_seed", 0, _TWO64 - 1)
        check_count(self.stream_index, "stream_index", 0)

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


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def marcum_q(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b).

    Q1(a, b) = P[X > b^2] for X noncentral chi-square with 2 degrees of
    freedom and noncentrality a^2, evaluated as 1 - scipy.special.chndtr.
    """
    a = float(check_number(a, "a", minimum=0.0))
    b = float(check_number(b, "b", minimum=0.0))
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    return 1.0 - float(special.chndtr(b * b, 2.0, a * a))


def inv_marcum_q(a: float, p: float) -> float:
    """Solve Q1(a, b) = p for b: b^2 is the (1 - p) noncentral chi-square
    quantile, from scipy.special.chndtrix. Because 1 - p rounds, b loses
    precision as p falls below about 1e-10, and for a > 0 a p at or below
    2**-54 (about 5.6e-17), where 1 - p rounds to 1, is rejected."""
    a = float(check_number(a, "a", minimum=0.0))
    p = float(check_number(p, "p", above=0.0, maximum=1.0))
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
    k = int(check_count(k, "k", 1))
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

def sample_fading(m: int, rng: np.random.Generator, n: int):
    """Draw n unit-mean Nakagami-m power gains, Gamma(m, 1/m), as an array.
    m = 1 is Rayleigh fading: numpy draws Gamma(1, 1) as its standard
    exponential. A hot kernel: n is its callers' checked count."""
    check_count(m, "m", 1)
    return rng.gamma(m, 1.0 / m, n)


def nakagami_power_cdf(omega, m: int):
    """P[power < omega] for Nakagami-m unit-mean power (Erlang tail sum)."""
    check_count(m, "m", 1)
    omega = np.asarray(omega, dtype=float)
    acc = np.zeros_like(omega)
    for k in range(int(m)):
        acc += (m * omega) ** k / math.factorial(k)
    return 1.0 - acc * np.exp(-m * omega)


def sample_shadowing_db(sigma_db: float, rng: np.random.Generator, size=None):
    """Zero-mean normal large-scale fading in dB; sigma 0 draws nothing and
    returns zeros."""
    check_number(sigma_db, "sigma_db", minimum=0.0)
    if sigma_db == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.normal(0.0, sigma_db, size)
