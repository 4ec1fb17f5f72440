"""Event-driven simulation of size-structured division trees.

Cells grow deterministically (exponentially or linearly) at an individual
rate drawn at birth, divide at a size-dependent hazard, and split their
size between two daughters.  A tree is expanded breadth-first up to a time
horizon; every random draw of a cell is keyed by a hash of the cell's
{0,1}-path, so a tree is a pure function of (config, seed) regardless of
traversal or thread schedule.

Trees of one config can be expanded together as a group: they share one
frontier, so each array pass acts on the cells of every tree, until the
next generation would pass ``_GROUP_FRONTIER`` (2^16) cells; then each
tree continues alone.  Since every draw is keyed per cell, a tree's cells
and measures do not depend on the group, and a single tree is a group of
one.  The measures keep only each generation's living sizes, split by
tree as the generation arrives, and sum a tree's once it is complete.

The division hazard B(x) = (x - x0)^beta may act per unit size (the
accumulated-size accounting) or per unit time; in both cases the division
*size* s of a cell born at size x_b has an explicit survival function and
is sampled by inverse transform, except for the per-unit-time hazard under
exponential growth where the 1/size factor requires thinning.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .age_model import AlphaFamily, Dirac, DiscreteMixture, TruncatedGaussian, UniformLaw
from .numerics import RngStream, cell_base, child_key, open_uniforms_at, uniforms_at

# per-purpose counter domains inside a cell's draw space; attempts within a
# purpose advance the low bits, so one cell's rejections never shift
# another cell's draws
_DOM_RATE = 0
_DOM_SIZE = 1 << 40
_DOM_SPLIT = 2 << 40
_RATE_BUDGET = 10_000
_REDRAW_BUDGET = 129
_THINNING_BUDGET = 100_000
# thinning attempts on a cell's birth-size envelope; past them its envelope
# follows its last candidate
_THINNING_REANCHOR = 10_000
_ROOT_KEY = np.uint64(0x243F6A8885A308D3)
# the trees of a group share one frontier until their next generation
# would hold more cells than this; then each tree continues alone
_GROUP_FRONTIER = 1 << 16


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeDivisionRate:
    """Division hazard B(x) = (x - x0)^beta for x >= x0.

    ``mode`` selects the accounting: 'unit_size' treats B as a hazard per
    unit of accumulated size, 'unit_time' as a hazard per unit time.
    """

    x0: float = 1.0
    beta: float = 2.0
    mode: str = "unit_size"

    def __post_init__(self):
        if not (self.x0 >= 0.0 and math.isfinite(self.x0)):
            raise ValueError("x0 must be non-negative and finite")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be non-negative and finite")
        if self.mode not in ("unit_size", "unit_time"):
            raise ValueError("mode must be 'unit_size' or 'unit_time'")

    def cumulative(self, x):
        """integral of B from x0 to x, zero below x0."""
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.x0, 0.0)
        return t ** (self.beta + 1.0) / (self.beta + 1.0)

    def inverse_cumulative(self, c):
        """size at which the cumulative hazard from x0 reaches c."""
        c = np.asarray(c, dtype=float)
        return self.x0 + ((self.beta + 1.0) * c) ** (1.0 / (self.beta + 1.0))


@dataclass(frozen=True)
class Exponential:
    """Size x(t) = xi * exp(tau (t - b))."""

    def size_at(self, xi, tau, dt):
        return np.asarray(xi) * np.exp(np.asarray(tau) * np.asarray(dt))


@dataclass(frozen=True)
class Linear:
    """Size x(t) = xi + tau (t - b)."""

    def size_at(self, xi, tau, dt):
        return np.asarray(xi) + np.asarray(tau) * np.asarray(dt)


@dataclass(frozen=True)
class Symmetric:
    """Each daughter receives exactly half the division size."""


@dataclass(frozen=True)
class UniformAsymmetric:
    """Split fraction drawn uniformly on [eps, 1 - eps]."""

    eps: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.eps < 0.5):
            raise ValueError("eps must lie in [0, 0.5)")


@dataclass(frozen=True)
class Memoryless:
    """Daughter rate drawn fresh from ``law``, independent of the parent."""

    law: object


@dataclass(frozen=True)
class AutoRegressive:
    """Daughter rate = theta * parent + (1 - theta) * fresh draw from ``law``,
    clipped to the law's support."""

    law: object
    theta: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class FixedRate:
    """Root cell rate pinned to a value."""

    value: float = 1.0

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError("rate must be positive and finite")


@dataclass(frozen=True)
class DrawnFromKernel:
    """Root cell rate drawn from the heredity kernel like any daughter."""


_PIECES = {"division": (SizeDivisionRate,), "growth": (Exponential, Linear), "split": (Symmetric, UniformAsymmetric),
           "kernel": (Memoryless, AutoRegressive), "root_rate": (FixedRate, DrawnFromKernel)}
_LAWS = (Dirac, UniformLaw, DiscreteMixture, TruncatedGaussian)


def _check_piece(name: str, value, kinds: tuple) -> None:
    if not isinstance(value, kinds):
        raise TypeError(f"{name} must be one of {', '.join(k.__name__ for k in kinds)}; got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one branching-tree experiment.

    An :class:`AlphaFamily` kernel law is resolved to its contracted law
    on construction.  A piece, or the resolved ``kernel.law``, of a type the
    simulator does not run (``_PIECES``, ``_LAWS``) raises ``TypeError``,
    as does a ``horizon``, ``root_size`` or ``max_cells`` that is not a
    real number or is a ``bool``.
    """

    division: SizeDivisionRate
    growth: object = field(default_factory=Exponential)
    split: object = field(default_factory=Symmetric)
    kernel: object = field(default_factory=lambda: Memoryless(Dirac(1.0)))
    horizon: float = 10.0
    root_size: float = 2.0
    root_rate: object = field(default_factory=FixedRate)
    max_cells: int = 10_000_000

    def __post_init__(self):
        for name, kinds in _PIECES.items():
            _check_piece(name, getattr(self, name), kinds)
        for name in ("horizon", "root_size", "max_cells"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number; got {value!r}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if not (self.root_size > 0.0 and math.isfinite(self.root_size)):
            raise ValueError("root_size must be positive and finite")
        if not self.max_cells >= 1:  # NaN fails it too, and would turn the budget off
            raise ValueError("max_cells must be positive")
        if isinstance(self.kernel.law, AlphaFamily):
            object.__setattr__(self, "kernel", replace(self.kernel, law=self.kernel.law.law()))
        _check_piece("kernel.law", self.kernel.law, _LAWS)

    @property
    def digest(self) -> str:
        """Hash of :func:`_describe` of the config: configs equal under
        ``==`` share one digest, and every field of every piece counts."""
        return hashlib.sha256(_describe(self).encode()).hexdigest()[:16]


def _describe(x) -> str:
    """Type name and fields of a config piece, recursively.

    A number is written as ``float(x) + 0.0``, so int, float, np.float64
    and -0.0 of one value agree as they do under ``==``; an int beyond
    float precision keeps its digits.
    """
    if dataclasses.is_dataclass(x):
        fields = ",".join(f"{f.name}={_describe(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    if isinstance(x, tuple):
        return "(" + ",".join(map(_describe, x)) + ")"
    if isinstance(x, str):
        return repr(str(x))
    if isinstance(x, numbers.Integral) and float(x) != x:
        return repr(int(x))
    if isinstance(x, numbers.Real):
        return repr(float(x) + 0.0)
    raise TypeError(f"cannot describe a {type(x).__name__} in a config digest")


def _check_time(t: float, horizon: float) -> None:
    if not 0.0 <= t <= horizon:  # NaN fails it too
        raise ValueError("t must lie in [0, horizon]; the tree is incomplete beyond")


class TreeResult:
    """Immutable record of all cells born before the horizon.

    Cells are stored as parallel arrays in breadth-first order; ``parent``
    is -1 for the root and ``bit`` the {0,1} label of the edge from the
    parent.  A cell is a leaf iff its division time is >= the horizon.
    The tree is read through these columns and :meth:`paths` alone.
    """

    __slots__ = ("config", "parent", "bit", "b", "zeta", "xi", "tau", "d", "division_size")

    def __init__(self, config, parent, bit, b, zeta, xi, tau, d, division_size):
        self.config = config
        self.parent = parent
        self.bit = bit
        self.b = b
        self.zeta = zeta
        self.xi = xi
        self.tau = tau
        self.d = d
        self.division_size = division_size
        for arr in (parent, bit, b, zeta, xi, tau, d, division_size):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.b.size

    @property
    def horizon(self) -> float:
        return self.config.horizon

    def living_mask(self, t: float) -> np.ndarray:
        _check_time(t, self.horizon)
        return (self.b <= t) & (t < self.d)

    def living_count(self, t: float) -> int:
        return int(np.count_nonzero(self.living_mask(t)))

    def sizes_at(self, t: float) -> np.ndarray:
        mask = self.living_mask(t)
        return self.config.growth.size_at(self.xi[mask], self.tau[mask], t - self.b[mask])

    def paths(self) -> np.ndarray:
        """Every cell's {0,1}-path from the root, as fixed-width bytes
        (the root's is b"")."""
        parent = self.parent
        n = parent.size
        # depth by pointer jumping: depth[i] stays the hops from i to up[i]
        up = np.where(parent < 0, np.arange(n), parent)  # the root points to itself
        depth = (parent >= 0).astype(np.int64)
        while np.any(up[up] != up):
            depth, up = depth + depth[up], up[up]
        width = int(depth[-1])  # breadth-first order: depth never decreases
        chars = np.zeros((n, max(width, 1)), dtype=np.uint8)
        starts = np.searchsorted(depth, np.arange(1, width + 2))
        for g in range(1, width + 1):
            rows = slice(starts[g - 1], starts[g])
            block = chars[parent[rows]]
            block[:, g - 1] = ord("0") + self.bit[rows]
            chars[rows] = block
        return chars.view(f"S{chars.shape[1]}").ravel()

    cells = None  # no reader builds per-cell records; bench/tracing.py wraps this name alone


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _redraw(draw, ok, bases: np.ndarray, dom: int, budget: int):
    """First accepted draw of every cell, by rejection.

    Attempt 0 runs on the whole frontier with one broadcast counter.  Each
    later pass draws the next K attempts (counters ``dom + k`` ..
    ``dom + k + K - 1``) of every cell rejected so far, as a block of K
    rows over those cells, and keeps each cell's first accepted one.  K <=
    n / alive as in thinning, and K <= tried / accepted of the previous
    pass, about the attempts one cell needs at the observed acceptance, so
    a likely acceptance draws few spare attempts.  Attempt k of a cell is
    a pure function of (cell base, k), so a block gives the same bits as K
    single attempts.  Returns the draws and the indices of the cells still
    rejected after ``budget`` attempts.
    """
    n = bases.size
    x = draw(bases, np.uint64(dom))
    redo = np.flatnonzero(~ok(x))
    tried, accepted = n, n - redo.size
    k = 1
    while redo.size and k < budget:
        K = min(64, n // redo.size, budget - k)
        if accepted:
            K = min(K, -(-tried // accepted))
        y = draw(bases[redo], np.arange(dom + k, dom + k + K, dtype=np.uint64)[:, None])
        good = ok(y)
        tried, accepted = good.size, int(np.count_nonzero(good))
        hit, first = _first_accepted(good, y)
        x[redo[hit]] = first
        redo = redo[~hit]
        k += K
    return x, redo


def _first_accepted(accept: np.ndarray, values: np.ndarray) -> tuple:
    """Which cells (columns) of an attempt-major block of K <= 64 rows
    accepted an attempt, and in order the value of each one's first
    acceptance, found as K minus a maximum of ranks down the rows: a
    per-column ``argmax`` costs ~10 ns a cell on short columns."""
    K, m = accept.shape
    rank = (accept * np.arange(K, 0, -1, dtype=np.uint8)[:, None]).max(axis=0)
    hit = rank.astype(bool)
    pos = np.flatnonzero(hit)
    pos += (K - rank[pos].astype(np.intp)) * m
    return hit, values.reshape(-1)[pos]


def _draw_rates(law, bases: np.ndarray) -> np.ndarray:
    """Vectorized per-cell rate draws from a law of ``_LAWS``; rejection for the Gaussian window."""
    n = bases.size
    lo, hi = law.support
    if law.is_degenerate or lo == hi:
        return np.full(n, law.mean)
    if isinstance(law, UniformLaw):
        u = uniforms_at(bases, np.uint64(_DOM_RATE))
        return lo + u * (hi - lo)
    if isinstance(law, DiscreteMixture):
        u = uniforms_at(bases, np.uint64(_DOM_RATE))
        atoms = [(v, w) for v, w in law.atoms if w > 0.0]
        vs = np.asarray([v for v, _ in atoms])
        # the boundaries between atoms only: the weights' sum may round
        # below 1, and a u past it takes the last atom of positive weight
        inner = np.cumsum([w for _, w in atoms])[:-1]
        return vs[np.searchsorted(inner, u, side="right")]
    # a TruncatedGaussian; imported here, so that only its draws load scipy.special
    from scipy.special import ndtri

    v, redo = _redraw(
        lambda b, c: law.mean + law.sigma_eta * ndtri(open_uniforms_at(b, c)),
        lambda v: (v >= lo) & (v <= hi),
        bases, _DOM_RATE, _RATE_BUDGET,
    )
    if redo.size:
        raise RuntimeError(
            f"rate rejection budget exhausted for {redo.size} cells; window [{lo}, {hi}] too improbable"
        )
    return v


def _inverse_from(division: SizeDivisionRate, x_b, E):
    """Solve cumulative(s) - cumulative(x_b) = E for s (E >= 0), over
    arrays of at least one dimension: s = x0 + ((beta+1) E +
    (x_b - x0)_+^{beta+1})^{1/(beta+1)}, the per-unit-size hazard's inverse
    transform with E = -ln(1-u).

    The head (x_b - x0)_+^{beta+1} is raised to the power only where
    x_b > x0 (or is NaN, which propagates): pow takes about twice as long
    on a zero base as on a positive one, and gives exactly 0 there.
    """
    bp1 = division.beta + 1.0
    t = x_b - division.x0
    head = np.zeros(t.shape)
    flat, t = head.reshape(-1), t.reshape(-1)
    rise = np.flatnonzero(~(t <= 0.0))
    flat[rise] = t[rise] ** bp1
    return division.x0 + (bp1 * E + head) ** (1.0 / bp1)


def _lifetime(growth, x_b: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Time to grow from birth size x_b to division size s at rate v (Exponential
    or Linear growth), over the arrays the sampler made (s >= x_b > 0, v > 0)."""
    if isinstance(growth, Exponential):
        return np.log(s / x_b) / v
    return (s - x_b) / v


# ---------------------------------------------------------------------------
# tree expansion
# ---------------------------------------------------------------------------


def _division_sizes(config: SimConfig, bases: np.ndarray, x_b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized division sizes, dispatching on hazard accounting and growth.

    Inverse transform (:func:`_inverse_from`) for the per-unit-size
    hazard and, with E scaled, for the per-unit-time hazard under linear
    growth; thinning for the per-unit-time hazard under exponential growth.
    """
    div = config.division
    if div.mode == "unit_time" and not isinstance(config.growth, Linear):
        return _division_sizes_thinning(div, bases, x_b, v)
    # a zero draw would mean dividing at birth size; redrawn
    u, redo = _redraw(uniforms_at, lambda u: u > 0.0, bases, _DOM_SIZE, _REDRAW_BUDGET)
    if redo.size:
        raise RuntimeError("division-size resampling budget exhausted")
    E = -np.log1p(-u)
    if div.mode == "unit_time":
        E *= v  # linear growth: the hazard per unit size is B/v, so E scales by v
    return _inverse_from(div, x_b, E)


def _division_sizes_thinning(div: SizeDivisionRate, bases: np.ndarray, x_b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-unit-time hazard with exponential growth: B(s)/(v s) per unit size.

    Envelope freezes the 1/s factor at the birth size; candidates advance by
    the envelope's closed-form inverse and are accepted with probability
    x_b/s, the exact hazard ratio.

    Each pass draws the next K attempts of every cell not yet accepted, as
    a block of K rows over those cells, with K <= n / alive so the block
    never outgrows the frontier; K = 1 while more than half the frontier
    is alive.  Attempt k of a cell is a pure function of (cell base, k), so
    a block gives the same bits as K single attempts; draws past a cell's
    first acceptance are discarded.  The walk is built in place: ``step *
    E``, with ``cum`` added to the first row, then summed down the rows by
    one ``np.cumsum``, which adds in the same order as one attempt at a
    time.  The cells still alive are compacted through one index, taken by
    all five state arrays.

    Under beta = 0 the acceptance x_b/s decays like 1/k while the candidate
    s grows linearly with the attempts k, so about k^(-1/v) of cells
    outlast k attempts.  A cell still alive after ``_THINNING_REANCHOR``
    attempts freezes the 1/s factor at its last candidate instead, before
    each further single attempt: that envelope still bounds the hazard
    beyond the candidate, and its acceptance no longer decays.  A cell
    accepted earlier never sees it.
    """
    n = bases.size
    out = np.empty(n)
    idx = np.arange(n)  # cells not yet accepted, and their state:
    b, xb, step = bases, x_b, v * x_b
    cum = div.cumulative(x_b)  # envelope state, in cumulative-B coordinates
    k = 0
    while idx.size:
        if k == _THINNING_BUDGET:
            raise RuntimeError(
                f"thinning budget exhausted for {idx.size} cells (birth sizes near {x_b[idx][:3]}, rates near {v[idx][:3]})"
            )
        K = min(64, n // idx.size, _THINNING_BUDGET - k, max(1, _THINNING_REANCHOR - k))
        if k >= _THINNING_REANCHOR:
            xb = div.inverse_cumulative(cum)
            step = v[idx] * xb
        cnt = np.arange(_DOM_SIZE + 2 * k, _DOM_SIZE + 2 * (k + K), 2, dtype=np.uint64)[:, None]
        walk = -np.log(open_uniforms_at(b, cnt))
        walk *= step
        walk[0] += cum
        np.cumsum(walk, axis=0, out=walk)
        cand = div.inverse_cumulative(walk)
        hit, first = _first_accepted(uniforms_at(b, cnt + np.uint64(1)) * cand < xb, cand)
        out[idx[hit]] = first
        keep = np.flatnonzero(~hit)
        idx, b, xb, step, cum = idx[keep], b[keep], xb[keep], step[keep], walk[-1][keep]
        k += K
    return out


def _daughter_sizes(split, bases: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Birth sizes of the daughters of cells with draw bases ``bases`` that
    divide at sizes ``s``: every first daughter, then every second."""
    if isinstance(split, Symmetric):
        # the product and difference below at frac = 0.5: 0.5 * s is
        # exact, and so is s - 0.5 * s (Sterbenz)
        half = 0.5 * s
        return np.concatenate([half, half])
    frac = split.eps + (1.0 - 2.0 * split.eps) * uniforms_at(bases, np.uint64(_DOM_SPLIT))
    # compute the larger piece by product and the smaller by subtraction:
    # with big in [s/2, s] the subtraction is exact (Sterbenz), so the
    # two birth sizes sum to the division size bit-for-bit
    big = np.maximum(frac, 1.0 - frac) * s
    small = s - big
    first_is_big = frac >= 0.5
    return np.concatenate([np.where(first_is_big, big, small), np.where(first_is_big, small, big)])


def _child_rates(kernel, bases: np.ndarray, parent_rates) -> np.ndarray:
    """Daughter rates: a fresh draw from ``kernel.law``, pulled toward the
    parent rate and clipped to the law's support under AutoRegressive.
    A Memoryless kernel ignores ``parent_rates``, which may be None."""
    fresh = _draw_rates(kernel.law, bases)
    if isinstance(kernel, AutoRegressive):
        lo, hi = kernel.law.support
        return np.clip(kernel.theta * parent_rates + (1.0 - kernel.theta) * fresh, lo, hi)
    return fresh


def _generations(config: SimConfig, stream_bases) -> Iterator[tuple]:
    """Expand a group of division trees, one per stream base, breadth-first
    up to the horizon, one generation at a time.

    Every cell with division time before the horizon gets exactly two
    children; cells dividing at or after it are leaves and not expanded.
    Yields each generation's trees and its (b, zeta, xi, tau, d,
    division_size) arrays, columns of :class:`TreeResult`.  A generation
    lists the first daughters of the previous generation's dividing cells
    (those with d < horizon), in order, then their second daughters.
    Restricted to one tree, that is the order in which the tree expands
    alone, so each tree's cells are a subsequence of the group's, in its
    own order, and its genealogy follows from its ``d`` columns alone.
    Only the current generation is held.  All draws are keyed by the
    cell's path hash under its tree's stream base, so a tree's cells do
    not depend on the group it grows in.

    The trees share one frontier, and a generation's trees are the index
    (into ``stream_bases``) of each cell's tree, until the next generation
    would hold more than ``_GROUP_FRONTIER`` cells.  The group then hands
    each tree its own dividing cells, and the trees continue alone, in
    index order; a generation's trees are then the one index of its tree.
    A group of one tree is alone from its root.
    """
    stream_bases = np.asarray(stream_bases, dtype=np.uint64)
    m = stream_bases.size
    if not m:
        return
    keys = np.full(m, _ROOT_KEY)
    bases = cell_base(stream_bases, keys)
    if isinstance(config.root_rate, FixedRate):
        tau = np.full(m, config.root_rate.value)
    else:
        tau = _draw_rates(config.kernel.law, bases)
    trees = np.arange(m, dtype=np.min_scalar_type(m - 1)) if m > 1 else 0  # one byte a cell up to 256 trees
    roots = (trees, keys, bases, np.zeros(m), np.full(m, float(config.root_size)), tau)
    yield from _expand(config, stream_bases, np.zeros(m, dtype=np.int64), roots)


def _expand(config: SimConfig, stream_bases: np.ndarray, totals: np.ndarray, frontier: tuple) -> Iterator[tuple]:
    """The generations of :func:`_generations` from ``frontier`` (trees,
    and key, draw base, b, xi and tau of each cell) on; ``totals`` counts
    the cells of each tree so far."""
    T = config.horizon
    tree, keys, bases, b, xi, tau = frontier
    del frontier  # its arrays go as the generations move on
    shared = np.ndim(tree) > 0
    regress = isinstance(config.kernel, AutoRegressive)
    while True:
        if shared:
            totals += np.bincount(tree, minlength=totals.size)
        else:
            totals[tree] += b.size
        if totals.max() > config.max_cells:
            raise RuntimeError(
                f"horizon too large: more than {config.max_cells} cells before t = {T}"
            )
        s = _division_sizes(config, bases, xi, tau)
        zeta = _lifetime(config.growth, xi, s, tau)
        d = b + zeta
        yield tree, b, zeta, xi, tau, d, s

        div = np.flatnonzero(d < T)
        if not div.size:
            return
        # a Memoryless daughter ignores its mother's rate
        parents = [tree[div] if shared else tree, keys[div], bases[div], d[div], s[div], tau[div] if regress else None]
        if shared and 2 * div.size > _GROUP_FRONTIER:
            break
        tree, keys, bases, b, xi, tau = _children(config, stream_bases, *parents)
        del parents  # not held while the next generation is drawn
    # the group splits: its arrays go, each tree takes its own dividing
    # cells, in order, and drops them when it resumes
    del tree, keys, bases, b, xi, tau, s, zeta, d, div
    order = np.argsort(parents[0], kind="stable")
    ends = np.cumsum(np.bincount(parents[0], minlength=totals.size))
    held = [[a if a is None else a[order[lo:hi]] for a in parents[1:]] for lo, hi in zip([0, *ends[:-1]], ends)]
    del parents, order
    for i in range(len(held)):
        if held[i][0].size:
            # only the generator holds the tree's first generation
            alone = _expand(config, stream_bases, totals, _children(config, stream_bases, i, *held[i]))
            held[i] = None
            yield from alone


def _children(config: SimConfig, stream_bases: np.ndarray, tree, keys, bases, d, s, tau) -> tuple:
    """The frontier (as :func:`_expand` takes it) of the daughters of the
    dividing cells with these columns: every first daughter, then every
    second.  ``tau`` may be None under a Memoryless kernel."""
    xi = _daughter_sizes(config.split, bases, s)
    parent_rates = None if tau is None else np.concatenate([tau, tau])
    if np.ndim(tree):
        tree = np.concatenate([tree, tree])
    keys = np.concatenate([child_key(keys, 0), child_key(keys, 1)])
    bases = cell_base(stream_bases[tree], keys)
    return tree, keys, bases, np.concatenate([d, d]), xi, _child_rates(config.kernel, bases, parent_rates)


def simulate_tree(config: SimConfig, rng: RngStream) -> TreeResult:
    """The whole division tree up to the horizon, every cell stored."""
    generations = [g[1:] for g in _generations(config, [rng.base])]
    # the dividing cells of a generation are, in order, the parents of the
    # next generation's first daughters and then of its second daughters
    parent, bit = [np.asarray([-1], dtype=np.int64)], [np.asarray([-1], dtype=np.int8)]
    first = 0
    for *_, d, _ in generations[:-1]:
        p_idx = first + np.flatnonzero(d < config.horizon)
        parent.append(np.concatenate([p_idx, p_idx]))
        bit.append(np.repeat(np.asarray([0, 1], dtype=np.int8), p_idx.size))
        first += d.size
    columns = [np.concatenate(c) for c in zip(*generations)]
    return TreeResult(config, np.concatenate(parent), np.concatenate(bit), *columns)


def group_measures(config: SimConfig, streams, times) -> list:
    """(biomass, living count) at each of ``times`` for the tree that
    :func:`simulate_tree` would return on each of ``streams``, without
    storing it; the trees are expanded together as one group
    (:func:`_generations`), and one stream gives one tree alone.

    Each generation is masked as :meth:`TreeResult.living_mask` does and
    only its living sizes are kept, split by tree as the generation
    arrives: a stable sort on the tree index keeps each tree's own
    breadth-first order.  A tree's sizes are summed once, when a
    generation holds only trees past its index, after which no generation
    holds its cells; so its values equal :func:`biomass_at` and
    :meth:`TreeResult.living_count` of the tree alone bit for bit.  A
    generation born wholly after t holds no cell living at t and is
    skipped; at the horizon the mask is ``t < d`` alone, since every
    stored cell is born before it.
    """
    times = [float(t) for t in times]
    for t in times:
        _check_time(t, config.horizon)
    m = len(streams)
    biomass = np.zeros((m, len(times)))
    counts = np.zeros((m, len(times)), dtype=np.int64)
    # per tree and per time, the tree's living sizes, one piece a generation;
    # None once the tree is summed
    held = [[[] for _ in times] for _ in range(m)]
    done = 0  # the trees below this index are summed

    def finish(hi):
        for i in range(done, hi):
            biomass[i] = [np.sum(np.concatenate(p)) for p in held[i]]
            held[i] = None

    for tree, b, _, xi, tau, d, _ in _generations(config, [s.base for s in streams]):
        shared = np.ndim(tree) > 0
        first = int(tree.min()) if shared else tree
        if first > done:
            # no later generation holds a cell of these trees
            finish(first)
            done = first
        born = b.min()
        for j, t in enumerate(times):
            if born > t:
                continue
            living = np.flatnonzero((t < d) if t == config.horizon else (b <= t) & (t < d))
            sizes = config.growth.size_at(xi[living], tau[living], t - b[living])
            if shared:
                owner = tree[living]
                n = np.bincount(owner, minlength=m)
                counts[:, j] += n
                sizes = sizes[np.argsort(owner, kind="stable")]
                ends = [0, *np.cumsum(n).tolist()]
                for i in range(done, m):
                    held[i][j].append(sizes[ends[i]:ends[i + 1]])
            else:
                counts[tree, j] += living.size
                held[tree][j].append(sizes)
    finish(m)
    return [[(float(z), int(c)) for z, c in zip(zs, cs)] for zs, cs in zip(biomass, counts)]


def biomass_at(tree: TreeResult, t: float) -> float:
    """Total size of the living population at time t."""
    return float(np.sum(tree.sizes_at(t)))
