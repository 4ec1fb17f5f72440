"""Event-driven simulation of size-structured division trees.

Cells grow deterministically (exponentially or linearly) at an individual
rate drawn at birth, divide at a size-dependent hazard, and split their
size between two daughters.  A tree is expanded breadth-first up to a time
horizon; every random draw of a cell is keyed by a hash of the cell's
{0,1}-path, so a tree is a pure function of (config, seed) regardless of
traversal or thread schedule.

The division hazard B(x) = (x - x0)^beta may act per unit size (the
accumulated-size accounting) or per unit time; in both cases the division
*size* s of a cell born at size x_b has an explicit survival function and
is sampled by inverse transform, except for the per-unit-time hazard under
exponential growth where the 1/size factor requires thinning.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np
from scipy.special import ndtri

from .age_model import AlphaFamily, Dirac, DiscreteMixture, TruncatedGaussian, UniformLaw
from .numerics import RngStream, cell_base, child_key, open_uniforms_at, uniforms_at

__all__ = [
    "SizeDivisionRate",
    "Exponential",
    "Linear",
    "Symmetric",
    "UniformAsymmetric",
    "Memoryless",
    "AutoRegressive",
    "FixedRate",
    "DrawnFromKernel",
    "SimConfig",
    "CellRecord",
    "TreeResult",
    "sample_division_size",
    "lifetime",
    "simulate_tree",
    "tree_measures",
    "biomass_at",
]

# per-purpose counter domains inside a cell's draw space; attempts within a
# purpose advance the low bits, so one cell's rejections never shift
# another cell's draws
_DOM_RATE = 0
_DOM_SIZE = 1 << 40
_DOM_SPLIT = 2 << 40
_RATE_BUDGET = 10_000
_REDRAW_BUDGET = 129
_THINNING_BUDGET = 100_000
_ROOT_KEY = np.uint64(0x243F6A8885A308D3)


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

    def hazard(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.x0, 0.0)
        if self.beta == 0.0:
            return np.where(x >= self.x0, 1.0, 0.0)
        return t ** self.beta

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

    name = "exp"

    def size_at(self, xi, tau, dt):
        return np.asarray(xi) * np.exp(np.asarray(tau) * np.asarray(dt))


@dataclass(frozen=True)
class Linear:
    """Size x(t) = xi + tau (t - b)."""

    name = "linear"

    def size_at(self, xi, tau, dt):
        return np.asarray(xi) + np.asarray(tau) * np.asarray(dt)


@dataclass(frozen=True)
class Symmetric:
    """Each daughter receives exactly half the division size."""

    eps = 0.5  # degenerate split fraction


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


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one branching-tree experiment.

    An :class:`AlphaFamily` kernel law is resolved to its contracted law
    on construction, so ``kernel.law`` is always a samplable rate law.
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
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if not (self.root_size > 0.0 and math.isfinite(self.root_size)):
            raise ValueError("root_size must be positive and finite")
        if self.max_cells < 1:
            raise ValueError("max_cells must be positive")
        if isinstance(self.kernel.law, AlphaFamily):
            object.__setattr__(self, "kernel", replace(self.kernel, law=self.kernel.law.law()))

    def canonical(self) -> str:
        """Flat key=value description; the digest hashes exactly this text."""
        div = self.division
        lines = [
            f"division.mode={div.mode}",
            f"division.x0={div.x0!r}",
            f"division.beta={div.beta!r}",
            f"growth={self.growth.name}",
        ]
        if isinstance(self.split, UniformAsymmetric):
            lines.append(f"split=asym:{self.split.eps!r}")
        else:
            lines.append("split=sym")
        if isinstance(self.kernel, AutoRegressive):
            lines.append(f"kernel=ar:{self.kernel.theta!r}")
            lines.append(f"kernel.law={_law_tag(self.kernel.law)}")
        else:
            lines.append("kernel=memoryless")
            lines.append(f"kernel.law={_law_tag(self.kernel.law)}")
        if isinstance(self.root_rate, FixedRate):
            lines.append(f"root_rate=fixed:{self.root_rate.value!r}")
        else:
            lines.append("root_rate=kernel")
        lines.append(f"horizon={self.horizon!r}")
        lines.append(f"root_size={self.root_size!r}")
        return "\n".join(lines)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _law_tag(law) -> str:
    name = type(law).__name__
    fields = getattr(law, "__dataclass_fields__", {})
    parts = [f"{k}={getattr(law, k)!r}" for k in fields]
    return f"{name}({','.join(parts)})"


@dataclass(frozen=True)
class CellRecord:
    """One node of the genealogical tree."""

    path: str  # {0,1}-word from the root; root is ""
    parent_path: Optional[str]
    b: float  # birth time
    zeta: float  # lifetime
    xi: float  # birth size
    tau: float  # growth rate
    d: float  # division time = b + zeta


def _check_time(t: float, horizon: float) -> None:
    if t < 0.0 or t > horizon:
        raise ValueError("t must lie in [0, horizon]; the tree is incomplete beyond")


class TreeResult:
    """Immutable record of all cells born before the horizon.

    Cells are stored as parallel arrays in breadth-first order; ``parent``
    is -1 for the root and ``bit`` the {0,1} label of the edge from the
    parent.  A cell is a leaf iff its division time is >= the horizon.
    """

    __slots__ = (
        "config", "seed", "stream_index",
        "parent", "bit", "b", "zeta", "xi", "tau", "d", "division_size",
    )

    def __init__(self, config, seed, stream_index, parent, bit, b, zeta, xi, tau, d, division_size):
        self.config = config
        self.seed = seed
        self.stream_index = stream_index
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

    def sizes_at(self, t: float, mask: Optional[np.ndarray] = None) -> np.ndarray:
        if mask is None:
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

    def cells(self) -> Iterator[CellRecord]:
        paths = np.char.decode(self.paths(), "ascii").tolist()
        columns = zip(self.b.tolist(), self.zeta.tolist(), self.xi.tolist(), self.tau.tolist(), self.d.tolist())
        for path, p, (b, zeta, xi, tau, d) in zip(paths, self.parent.tolist(), columns):
            yield CellRecord(path, paths[p] if p >= 0 else None, b, zeta, xi, tau, d)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _redraw(draw, ok, bases: np.ndarray, dom: int, budget: int):
    """First accepted draw of every cell, by rejection.

    Attempt 0 runs on the whole frontier with one broadcast counter.  Each
    later pass draws the next K attempts (counters ``dom + k`` ..
    ``dom + k + K - 1``) of every cell rejected so far and keeps each
    cell's first accepted one.  K <= n / alive as in thinning, and K <=
    tried / accepted of the previous pass, about the attempts one cell
    needs at the observed acceptance, so a likely acceptance draws few
    spare attempts.  Attempt k of a cell is a pure function of (cell base,
    k), so a block gives the same bits as K single attempts.  Returns the
    draws and the indices of the cells still rejected after ``budget``
    attempts.
    """
    n = bases.size
    x = draw(bases, np.uint64(dom))
    good = ok(x)
    redo = np.flatnonzero(~good)
    tried, accepted = n, n - redo.size
    k = 1
    while redo.size and k < budget:
        K = min(64, n // redo.size, budget - k)
        if accepted:
            K = min(K, -(-tried // accepted))
        y = draw(bases[redo, None], np.arange(dom + k, dom + k + K, dtype=np.uint64))
        good = ok(y)
        tried, accepted = good.size, int(np.count_nonzero(good))
        hit = good.any(axis=1)
        x[redo[hit]] = y[hit, good[hit].argmax(axis=1)]
        redo = redo[~hit]
        k += K
    return x, redo


def _draw_rates(law, bases: np.ndarray) -> np.ndarray:
    """Vectorized per-cell rate draws; rejection for the Gaussian window."""
    n = bases.size
    lo, hi = law.support
    if law.is_degenerate or lo == hi:
        return np.full(n, law.mean)
    if isinstance(law, UniformLaw):
        u = uniforms_at(bases, np.uint64(_DOM_RATE))
        return lo + u * (hi - lo)
    if isinstance(law, DiscreteMixture):
        u = uniforms_at(bases, np.uint64(_DOM_RATE))
        vs = np.asarray([v for v, _ in law.atoms])
        cw = np.cumsum([w for _, w in law.atoms])
        return vs[np.searchsorted(cw, u, side="right")]
    if isinstance(law, TruncatedGaussian):
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
    raise TypeError(f"cannot sample from rate law {type(law).__name__}")


def sample_division_size(division: SizeDivisionRate, birth_size, u):
    """Division size for a per-unit-size hazard, by inverse transform.

    With E = -ln(1-u), the size s solves cumulative(s) - cumulative(birth)
    = E, giving s = x0 + ((beta+1) E + (birth - x0)_+^{beta+1})^{1/(beta+1)}.
    Accepts scalars or arrays (broadcast).
    """
    if division.mode != "unit_size":
        raise ValueError("sample_division_size applies to the per-unit-size hazard")
    x_b = np.asarray(birth_size, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(x_b <= 0.0):
        raise ValueError("birth size must be positive")
    if np.any((u < 0.0) | (u >= 1.0)):
        raise ValueError("u must lie in [0, 1)")
    s = _inverse_from(division, x_b, -np.log1p(-u))
    if s.shape == ():
        return float(s)
    return s


def _inverse_from(division: SizeDivisionRate, x_b, E):
    """Solve cumulative(s) - cumulative(x_b) = E for s (E >= 0).

    Over an array, the head (x_b - x0)_+^{beta+1} is raised to the power
    only where x_b > x0 (or is NaN, which propagates): pow takes about
    twice as long on a zero base as on a positive one, and gives exactly
    0 there.  A scalar keeps scalar pow, whose last bit can differ from
    the array loop's.
    """
    bp1 = division.beta + 1.0
    t = np.asarray(x_b, dtype=float) - division.x0
    if np.ndim(t) == 0:
        head = np.maximum(t, 0.0) ** bp1
    else:
        head = np.zeros(t.shape)
        flat, t = head.reshape(-1), t.reshape(-1)
        rise = np.flatnonzero(~(t <= 0.0))
        flat[rise] = t[rise] ** bp1
    return division.x0 + (bp1 * np.asarray(E, dtype=float) + head) ** (1.0 / bp1)


def lifetime(growth, birth_size, division_size, v):
    """Time to grow from birth_size to division_size at rate v."""
    x_b = np.asarray(birth_size, dtype=float)
    s = np.asarray(division_size, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(s < x_b):
        raise ValueError("division size below birth size violates monotone growth")
    if np.any(v <= 0.0):
        raise ValueError("rate must be positive")
    out = _lifetime(growth, x_b, s, v)
    if out.shape == ():
        return float(out)
    return out


def _lifetime(growth, x_b: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`lifetime` without its checks, for arrays the sampler made."""
    if isinstance(growth, Exponential):
        return np.log(s / x_b) / v
    if isinstance(growth, Linear):
        return (s - x_b) / v
    raise TypeError("unknown growth law")


# ---------------------------------------------------------------------------
# tree expansion
# ---------------------------------------------------------------------------


def _division_sizes(config: SimConfig, bases: np.ndarray, x_b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized division sizes, dispatching on hazard accounting and growth.

    Inverse transform (:func:`sample_division_size`) for the per-unit-size
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

    Each pass draws the next K attempts of every cell not yet accepted, with
    K <= n / alive so the block never outgrows the frontier.  Attempt k of a
    cell is a pure function of (cell base, k), and the envelope walk is one
    sequential ``np.add.accumulate`` along the block, so a block gives the
    same bits as K single attempts; draws past a cell's first acceptance
    are discarded.
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
        K = min(64, n // idx.size, _THINNING_BUDGET - k)
        cnt = np.arange(_DOM_SIZE + 2 * k, _DOM_SIZE + 2 * (k + K), 2, dtype=np.uint64)
        E = -np.log(open_uniforms_at(b[:, None], cnt))
        walk = np.add.accumulate(np.column_stack([cum, step[:, None] * E]), axis=1)
        cand = div.inverse_cumulative(walk[:, 1:])
        accept = uniforms_at(b[:, None], cnt + np.uint64(1)) * cand < xb[:, None]
        hit = accept.any(axis=1)
        out[idx[hit]] = cand[hit, accept[hit].argmax(axis=1)]
        miss = ~hit
        idx, b, xb, step, cum = idx[miss], b[miss], xb[miss], step[miss], walk[miss, -1]
        k += K
    return out


def _daughter_sizes(split, bases: np.ndarray, s: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Birth sizes of the daughters of the frontier cells ``div``, which
    divide at sizes ``s[div]``: every first daughter, then every second."""
    s = s[div]
    if isinstance(split, Symmetric):
        # the product and difference below at frac = 0.5: 0.5 * s is
        # exact, and so is s - 0.5 * s (Sterbenz)
        half = 0.5 * s
        return np.concatenate([half, half])
    frac = split.eps + (1.0 - 2.0 * split.eps) * uniforms_at(bases[div], np.uint64(_DOM_SPLIT))
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


def _generations(config: SimConfig, rng: RngStream) -> Iterator[tuple]:
    """Expand one division tree breadth-first up to the horizon, one
    generation at a time.

    Every cell with division time before the horizon gets exactly two
    children; cells dividing at or after it are leaves and not expanded.
    Yields each generation's (b, zeta, xi, tau, d, division_size) arrays,
    columns of :class:`TreeResult`.  A generation lists the first
    daughters of the previous generation's dividing cells (those with
    d < horizon), in order, then their second daughters, so the genealogy
    follows from the ``d`` columns alone.  Only the current generation is
    held.  All draws are keyed by the cell's path hash, so the stream is
    deterministic for a given (config, seed, stream_index).
    """
    T = config.horizon
    stream_base = rng.base

    # frontier state
    keys = np.asarray([_ROOT_KEY])
    f_b = np.zeros(1)
    f_xi = np.asarray([float(config.root_size)])
    bases = cell_base(stream_base, keys)
    if isinstance(config.root_rate, FixedRate):
        f_tau = np.asarray([config.root_rate.value])
    else:
        f_tau = _draw_rates(config.kernel.law, bases)

    total = 0
    while True:
        total += f_b.size
        if total > config.max_cells:
            raise RuntimeError(
                f"horizon too large: more than {config.max_cells} cells before t = {T}"
            )
        s = _division_sizes(config, bases, f_xi, f_tau)
        zeta = _lifetime(config.growth, f_xi, s, f_tau)
        d = f_b + zeta
        yield f_b, zeta, f_xi, f_tau, d, s

        div = np.flatnonzero(d < T)
        if not div.size:
            break
        p_keys = keys[div]
        p_d = d[div]
        parent_rates = None  # a Memoryless daughter ignores its mother's rate
        if isinstance(config.kernel, AutoRegressive):
            p_tau = f_tau[div]
            parent_rates = np.concatenate([p_tau, p_tau])
        f_xi = _daughter_sizes(config.split, bases, s, div)
        keys = np.concatenate([child_key(p_keys, 0), child_key(p_keys, 1)])
        f_b = np.concatenate([p_d, p_d])
        bases = cell_base(stream_base, keys)
        f_tau = _child_rates(config.kernel, bases, parent_rates)


def simulate_tree(config: SimConfig, rng: RngStream) -> TreeResult:
    """The whole division tree up to the horizon, every cell stored."""
    generations = list(_generations(config, rng))
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
    return TreeResult(config, rng.seed, rng.stream_index, np.concatenate(parent), np.concatenate(bit), *columns)


def tree_measures(config: SimConfig, rng: RngStream, times) -> list:
    """(biomass, living count) at each of ``times``, for the tree that
    :func:`simulate_tree` would return, without storing it.

    Each generation is masked as :meth:`TreeResult.living_mask` does and
    only its living sizes are kept; they are summed once, in the stored
    tree's breadth-first order, so the values equal :func:`biomass_at` and
    :meth:`TreeResult.living_count` bit for bit.  A generation born wholly
    after t holds no cell living at t and is skipped; at the horizon the
    mask is ``t < d`` alone, since every stored cell is born before it.
    """
    times = [float(t) for t in times]
    for t in times:
        _check_time(t, config.horizon)
    sizes = [[] for _ in times]
    counts = [0] * len(times)
    for b, _, xi, tau, d, _ in _generations(config, rng):
        born = b.min()
        for j, t in enumerate(times):
            if born > t:
                continue
            living = np.flatnonzero((t < d) if t == config.horizon else (b <= t) & (t < d))
            counts[j] += living.size
            sizes[j].append(config.growth.size_at(xi[living], tau[living], t - b[living]))
    return [(float(np.sum(np.concatenate(z))), c) for z, c in zip(sizes, counts)]


def biomass_at(tree: TreeResult, t: float) -> float:
    """Total size of the living population at time t."""
    return float(np.sum(tree.sizes_at(t)))
