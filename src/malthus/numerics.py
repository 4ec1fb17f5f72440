"""Low-level numerical kernels shared across the package.

Root finding brackets by doubling and then polishes with Brent's method
(implemented here, step for step as scipy's ``brentq``), with a plain
bisection fallback; one solve evaluates its function once per abscissa.
``integrate`` (adaptive Simpson, pre-split at declared kink points) is on
no solver path: the age model integrates with Gauss tables of its own.  Random streams are counter based (SplitMix64
style): every draw is a pure function of (seed, stream_index, key, counter),
so simulations are reproducible regardless of evaluation order or thread
count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tolerance",
    "NonConvergenceError",
    "DEFAULT_QUAD_TOL",
    "DEFAULT_ROOT_TOL",
    "TAIL_EPS",
    "integrate",
    "find_root_decreasing",
    "RngStream",
    "mix64",
    "uniforms_at",
    "open_uniforms_at",
    "cell_base",
    "child_key",
]

# survival mass below which semi-infinite integrals are truncated
TAIL_EPS = 1e-13

_EPS = float(np.finfo(np.float64).eps)


class NonConvergenceError(RuntimeError):
    """Raised when an iteration budget is exhausted; carries the best estimate."""

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request.  Root solves certify |h(x) - target| <= abs_tol;
    ``rel_tol`` is read only by :func:`integrate`, which stops at
    |error| <= abs_tol + rel_tol * |value|."""

    abs_tol: float = 1e-10
    rel_tol: float = 0.0
    max_iter: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (self.rel_tol >= 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be non-negative and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_QUAD_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_iter=60)
DEFAULT_ROOT_TOL = Tolerance(abs_tol=1e-10, rel_tol=0.0, max_iter=120)

_MAX_PANELS = 400_000
_MAX_DOUBLINGS = 200  # bracket doublings before find_root_decreasing gives up


def _eval_vec(f: Callable, x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=np.float64)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    return y


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_QUAD_TOL,
    kinks: Iterable[float] = (),
) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b].

    ``f`` must accept a numpy array of abscissae and return values of the
    same shape (scalar returns are broadcast).  Known kink locations are
    used as initial panel boundaries so the error estimate stays reliable
    across non-smooth points.  Raises :class:`NonConvergenceError` with the
    best available estimate if the panel budget runs out.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("integrate requires a < b")
    cuts = [a] + sorted({float(k) for k in kinks if a < float(k) < b}) + [b]
    lefts = np.asarray(cuts[:-1], dtype=np.float64)
    rights = np.asarray(cuts[1:], dtype=np.float64)
    width_total = b - a
    mids = 0.5 * (lefts + rights)
    fl = _eval_vec(f, lefts)
    fm = _eval_vec(f, mids)
    fr = _eval_vec(f, rights)
    S = (rights - lefts) / 6.0 * (fl + 4.0 * fm + fr)

    total = 0.0
    for _ in range(tol.max_iter):
        lm = 0.5 * (lefts + mids)
        rm = 0.5 * (mids + rights)
        flm = _eval_vec(f, lm)
        frm = _eval_vec(f, rm)
        h = rights - lefts
        Sl = h / 12.0 * (fl + 4.0 * flm + fm)
        Sr = h / 12.0 * (fm + 4.0 * frm + fr)
        S2 = Sl + Sr
        err = (S2 - S) / 15.0
        budget = tol.abs_tol * (h / width_total) + tol.rel_tol * np.abs(S2)
        # force-accept panels at the width floor (roundoff regime)
        floor = 64.0 * _EPS * np.maximum(np.maximum(np.abs(lefts), np.abs(rights)), 1.0)
        done = (np.abs(err) <= budget) | (h <= floor)
        total += float(np.sum((S2 + err)[done]))
        keep = ~done
        if not bool(np.any(keep)):
            return total
        lefts = np.concatenate([lefts[keep], mids[keep]])
        rights = np.concatenate([mids[keep], rights[keep]])
        new_fl = np.concatenate([fl[keep], fm[keep]])
        new_fr = np.concatenate([fm[keep], fr[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        fl, fr = new_fl, new_fr
        mids = 0.5 * (lefts + rights)
        S = np.concatenate([Sl[keep], Sr[keep]])
        if lefts.size > _MAX_PANELS:
            raise NonConvergenceError(
                "quadrature panel budget exhausted",
                best=total + float(np.sum(S)),
            )
    raise NonConvergenceError(
        "quadrature did not reach tolerance within max_iter sweeps",
        best=total + float(np.sum(S)),
    )


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    The steps, tests and evaluation count follow scipy's ``brentq``
    exactly, so the result is the same float: f is evaluated at a and b,
    then once per iteration.  Raises ValueError on a bracket without a
    sign change or a NaN value, RuntimeError after ``maxiter`` iterations.
    """

    def ev(x):
        y = f(x)
        if math.isnan(y):
            raise ValueError(f"the function value at x={x} is NaN")
        return y

    xpre, xcur = a, b
    fpre, fcur = ev(xpre), ev(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = ev(xcur)
    raise RuntimeError(f"Brent did not converge after {maxiter} iterations, value is {xcur}")


def find_root_decreasing(
    h: Callable[[float], float],
    target: float,
    tol: Tolerance = DEFAULT_ROOT_TOL,
) -> float:
    """Solve h(x) = target for strictly decreasing h on [0, inf).

    Brackets by doubling from [0, 1], polishes with Brent, and falls back
    to plain bisection if Brent fails or leaves residual above ``abs_tol``.
    ``h`` is evaluated at most once per abscissa: the values are memoized
    for the length of the call, so Brent starts from the bracket ends the
    doubling already evaluated and its answer is certified with the value
    of its last step.  The root is the same float as without the memo.
    ``tol`` may be a plain number, read as the absolute residual tolerance.
    Raises :class:`NonConvergenceError` when bisection fails too, ``from``
    Brent's exception if Brent raised one.
    """
    if not isinstance(tol, Tolerance):
        tol = Tolerance(abs_tol=float(tol))
    seen = {}

    def f(x: float) -> float:
        y = seen.get(x)
        if y is None:
            y = seen[x] = float(h(x)) - target
        return y

    f0 = f(0.0)
    if not math.isfinite(f0):
        raise ValueError("h(0) is not finite")
    if not f0 > 0.0:
        raise ValueError("no positive root: h(0) <= target")
    lo = 0.0
    hi = 1.0
    n = 0
    while f(hi) > 0.0:
        lo = hi
        hi *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise NonConvergenceError("no sign change found while doubling", best=hi)
    if f(hi) == 0.0:
        return hi

    try:
        x = _brent(f, lo, hi, xtol=1e-15 * max(1.0, hi), rtol=1e-15, maxiter=max(tol.max_iter, 100))
    except (ValueError, RuntimeError) as e:  # _brent's failures; NonConvergenceError is a RuntimeError
        return _bisect(f, lo, hi, tol, f"Brent failed: {e}", e)
    if abs(f(x)) <= tol.abs_tol:
        return x
    return _bisect(f, lo, hi, tol, f"Brent's root {x!r} left residual {abs(f(x))!r}", None)


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: Tolerance, why: str, cause) -> float:
    """Plain bisection of the bracket [lo, hi] of decreasing ``f`` on the
    residual criterion, the fallback once Brent has failed (``why``; its
    exception is ``cause``, or None if it left too large a residual)."""
    for _ in range(max(tol.max_iter, 200)):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol.abs_tol:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * _EPS * max(1.0, hi):
            break
    best = 0.5 * (lo + hi)
    if abs(f(best)) <= tol.abs_tol:
        return best
    raise NonConvergenceError(
        f"root residual tolerance {tol.abs_tol!r} not met: {why}; bisection ended at {best!r}", best=best
    ) from cause


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
    b = mix64(_U64(seed % (1 << 64)) + _GOLD)
    return _U64(mix64(b ^ mix64(_U64(stream_index % (1 << 64)) ^ _K_SEED)))


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
        if seed < 0 or stream_index < 0:
            raise ValueError("seed and stream_index must be non-negative")
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self._base = _stream_base(self.seed, self.stream_index)

    @property
    def base(self) -> np.uint64:
        return self._base

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"
