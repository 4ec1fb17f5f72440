"""Low-level numerical kernels shared across the package.

Roots of a positive, decreasing, log-convex function (the age model's
resolvents) come from Newton's method on its logarithm, started at 0, whose
iterates increase monotonically to the root; the function supplies its
slope, and no abscissa is evaluated twice.  Random streams are counter
based (SplitMix64 style): every draw is a pure function of (seed,
stream_index, key, counter), so simulations are reproducible regardless of
evaluation order or thread count.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

# survival mass below which semi-infinite integrals are truncated
TAIL_EPS = 1e-13


def _check_real(name: str, value) -> None:
    """Raise ``TypeError`` naming the field unless ``value`` is a real
    number: a ``bool``, ``str`` or ``None`` would otherwise pass or fail a
    range check with no field named."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number; got {value!r}")


class NonConvergenceError(RuntimeError):
    """Raised when an iteration budget is exhausted; carries the best estimate."""

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Tolerance:
    """The root solve's stop test and step budget, the type of
    ``DEFAULT_ROOT_TOL``.

    :func:`find_root_decreasing` (for h > 0 decreasing and log-convex with
    h(0) > target > 0) returns x only with |h(x) - target| <= ``abs_tol``,
    within ~8 ulps of the root of the computed h, in at most ``max_iter``
    Newton steps; otherwise it raises ValueError (a bad target or h(0), a
    non-finite value) or NonConvergenceError carrying ``best``."""

    abs_tol: float
    max_iter: int

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        object.__setattr__(self, "max_iter", operator.index(self.max_iter))  # 2.5 or NaN raise here, not in range()
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_ROOT_TOL = Tolerance(abs_tol=1e-10, max_iter=120)


def find_root_decreasing(h: Callable[[float], tuple], target: float) -> float:
    """Solve h(x) = target for h > 0, decreasing and log-convex on [0, inf).

    Precondition: ``h(x)`` returns the pair (h(x), h'(x)), with h > 0,
    decreasing and log-convex on [0, inf), and ``target`` > 0.  The stop
    test ``abs_tol`` = 1e-10 and the budget ``max_iter`` = 120 Newton steps
    are ``DEFAULT_ROOT_TOL``'s, read at each call; no caller sets them.

    Newton's method on log h - log target, started at x = 0.  log h is
    convex, so every tangent meets log target at or before the root: the
    iterates increase monotonically to it, and no abscissa is evaluated
    twice.  The loop stops at an evaluated x when the next iterate no
    longer increases (the step is below half an ulp of x) or when
    h(x) <= target (a step crossed the root, by rounding alone); x is
    returned if |h(x) - target| <= ``abs_tol``.  Once h(x) - target <=
    ``abs_tol`` at an iterate x, the next iterate is returned unevaluated:
    it lies between x and the root, where h lies between target and h(x).

    Guarantee: a returned root x is certified by |h(x) - target| <=
    ``abs_tol``, read from a value already computed.  It is the converged
    Newton iterate of the computed h, not the float nearest the exact
    root.  On the age-model resolvents it lay at most 8 ulps from scipy's
    ``brentq`` root (xtol 1e-300, rtol 4 eps) of the same h, measured over
    power-lag beta in {0, 0.25, 2, 7} at 20 contractions each, the
    tabulated witness, constant rates under Dirac and two-point laws, and
    ``malthus_general``'s resolvent; the tests hold it to 8.  A value is
    thus stable to about 8 ulps, ~2e-15 near lambda = 1, not to the last
    ulp.

    Failures: ValueError when target <= 0, when h(0) <= target, or when a
    value or slope of h is not finite (the message names x).
    NonConvergenceError, with the last iterate as ``best``, when h never
    crosses the target (its slope vanishes above the target, or a Newton
    step is infinite), when ``max_iter`` Newton steps run out, or when the
    residual at the stop exceeds ``abs_tol``.
    """
    if not target > 0.0:
        raise ValueError("target must be positive")
    tol = DEFAULT_ROOT_TOL

    def at(x: float) -> tuple:
        y, dy = (float(v) for v in h(x))
        if not (math.isfinite(y) and math.isfinite(dy)):
            raise ValueError(f"h or its slope is not finite at x={x!r}: {y!r}, {dy!r}")
        return y, dy

    log_target = math.log(target)
    x = 0.0
    y, dy = at(x)
    if not y > target:
        raise ValueError("no positive root: h(0) <= target")
    for _ in range(tol.max_iter):
        if not dy < 0.0:
            raise NonConvergenceError(f"h stops decreasing at x={x!r}, {y!r} above the target", best=x)
        nxt = x + (math.log(y) - log_target) * (y / -dy)
        if not nxt > x:
            break
        if nxt == math.inf:
            raise NonConvergenceError(f"h never crosses the target: the Newton step from x={x!r} is infinite", best=x)
        if y - target <= tol.abs_tol:
            return nxt
        x = nxt
        y, dy = at(x)
        if y <= target:
            break
    else:
        raise NonConvergenceError(f"no root within {tol.max_iter} Newton steps", best=x)
    if abs(y - target) <= tol.abs_tol:
        return x
    raise NonConvergenceError(f"root residual {abs(y - target)!r} at x={x!r} exceeds abs_tol {tol.abs_tol!r}", best=x)


# ---------------------------------------------------------------------------
# counter-based random streams
# ---------------------------------------------------------------------------

_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_K_SEED = _U64(0xD6E8FEB86659FD93)
_K_CELL = _U64(0x2545F4914F6CDD1D)
_K_CHILD = (_U64(0x9E6C63D0876A9A35), _U64(0xC2B2AE3D27D4EB4F))
_INV53 = 1.0 / float(1 << 53)


def mix64(z):
    """SplitMix64 finalizer; accepts ints or uint64 arrays, wraps mod 2^64."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _M1
        z = (z ^ (z >> _U64(27))) * _M2
    return z ^ (z >> _U64(31))


def _stream_base(seed: int, stream_index: int) -> np.uint64:
    with np.errstate(over="ignore"):
        b = mix64(_U64(seed) + _GOLD)
    return _U64(mix64(b ^ mix64(_U64(stream_index) ^ _K_SEED)))


def cell_base(base, keys):
    """Per-cell draw base derived from a stream base and a path-hash key."""
    return mix64(np.asarray(base, dtype=np.uint64) ^ mix64(np.asarray(keys, dtype=np.uint64) ^ _K_CELL))


def child_key(keys, bit: int):
    """Path-hash key of the child obtained by appending ``bit`` to the path."""
    return mix64(np.asarray(keys, dtype=np.uint64) ^ _K_CHILD[int(bit)])


def _bits_at(base, counters) -> np.ndarray:
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.asarray(base, dtype=np.uint64) + (c + _U64(1)) * _GOLD
    return mix64(z)


def uniforms_at(base, counters) -> np.ndarray:
    """Uniforms in [0, 1): draw k of the stream rooted at ``base``."""
    return (_bits_at(base, counters) >> _U64(11)).astype(np.float64) * _INV53


def open_uniforms_at(base, counters) -> np.ndarray:
    """Uniforms in (0, 1), safe to feed through inverse CDFs."""
    return ((_bits_at(base, counters) >> _U64(11)).astype(np.float64) + 0.5) * _INV53


class RngStream:
    """Reproducible random stream; draw k of a tree cell is a pure function
    of (seed, stream_index, the cell's path key, k)."""

    __slots__ = ("seed", "stream_index", "_base")

    def __init__(self, seed: int, stream_index: int = 0):
        # integers only, each below 2^64: a wider value would wrap onto
        # another stream, and a float would be truncated
        self.seed = operator.index(seed)
        self.stream_index = operator.index(stream_index)
        if not (0 <= self.seed < 1 << 64 and 0 <= self.stream_index < 1 << 64):
            raise ValueError("seed and stream_index must lie in [0, 2^64)")
        self._base = _stream_base(self.seed, self.stream_index)

    @property
    def base(self) -> np.uint64:
        return self._base

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"
