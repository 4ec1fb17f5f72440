"""Age-structured cell populations with individual aging-rate variability.

A cell ages at an individual rate v drawn at birth from a law with mean
``v_bar``; at physiological age a it divides with hazard B(a) per unit age.
Writing f_B(a) = B(a) exp(-int_0^a B) for the division-age density, the
population growth exponent lambda solves

    2 * iint exp(-lambda a / v) f_B(a) rho(v) dv da = 1.

Every age integral uses the 16-point Gauss-Legendre rule on geometrically
graded panels.  Integrals against the division-age law go through one
table, built once per division rate and kept on it: panels graded toward 0
and toward the onset of the support and cut at the kinks of B, weighted by
f_B (terminal atom included) and refined until it holds the law's exact
mass; a small cell that the kinks cut from a graded panel takes a rule of
8 or 4 points.  One evaluator sums
exp(-lambda a / v) over its nodes and a set of rates v: the nodes of rho
for the resolvent and its slope, and others for the alpha-derivatives.
Its exponent table is rate-node-major, the table nodes contiguous along
each rate, and its sums over the table nodes are pairwise.
Integrals over the rates take one Gauss-Legendre rule on the window of
rho, of 12 to 64 nodes sized by the law itself: by how far the window
sits from the pole of exp(-lambda a / v) at v = 0 and, for a truncated
Gaussian, by its width (:func:`_window_rule`).  The closed forms of the
constant rate are test oracles only.  Integrals up to each node (the
accumulated hazard of the general form) come from the rule's
antiderivative matrix, and the eigenvector tails from a table cut at the
user's grid ages, built per call.

The module provides the division-rate variants, the rate laws together
with their mean-preserving contraction family (same mean, CV scaled by
alpha), eigenvalue solvers including the general hazard/speed form with
its explicit eigenvectors, a monotonicity classifier for f_B, and the
first/second perturbation derivatives of lambda in alpha.  Every root
solve runs :func:`find_root_decreasing` at ``DEFAULT_ROOT_TOL``,
|H - 1| <= 1e-10; no solver takes one of its own.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from .numerics import TAIL_EPS, find_root_decreasing

# no solver integrates adaptively; bench/tracing.py wraps this name alone
integrate = None

_GL_NODES = 64  # most nodes of a rate window's Gauss rule; all on a window touching v = 0
_GL_FLOOR = 12  # fewest nodes of a rate window's Gauss rule
_LN_EPS = -math.log(np.finfo(np.float64).eps)  # ln(1/eps): a rate rule aims at float64 precision
_SIGN_SAMPLES = 4096  # midpoints at which sign_condition reads B' - B^2
_BLOCK = 1 << 16  # elements of the resolvent's scratch block of f_B-table rows
_MASS_TOL = 1e-12  # most an f_B table's mass may miss 1 - S(end) by
_MAX_HALVINGS = 40  # most rounds of panel halving that an f_B table may take

# Sums over quadrature tables use np.einsum, never `@`: OpenBLAS runs every
# product above a few thousand elements on all cores, and between the many
# small products of a root solve its worker threads spin, so a solve holds
# every core and slows down whenever another process needs one.


# ---------------------------------------------------------------------------
# division rates B(a)
# ---------------------------------------------------------------------------


class _DivisionRate:
    """What every division rate B shares: S = exp(-int_0^a B), f_B = B S,
    and by default support [0, inf) with no terminal atom and no kinks.

    What a solve needs of the rate alone is built on first use and kept on
    it, read-only: the kept rows of its f_B table (``_fb``) and the
    resolvent's row weights over them (``_resolvent_rows``).  Nothing is
    built when the rate is made, so making one costs no quadrature."""

    support_start = 0.0
    support_end = math.inf
    atom_mass = 0.0
    kinks = ()

    def survival(self, a):
        return np.exp(-self.cumulative(a))

    def density(self, a):
        return self.hazard(a) * self.survival(a)

    @functools.cached_property
    def _fb(self) -> tuple:
        """(a, w) of the rows of the f_B table (:func:`_fb_table`) that every
        sum over it keeps (:func:`_kept_rows`): built on first use and kept
        on the rate, read-only, for every later solve and derivative."""
        a, w = _fb_table(self)
        keep = _kept_rows(w)
        return _read_only(a[keep], w[keep])

    @functools.cached_property
    def _resolvent_rows(self) -> np.ndarray:
        """The row weights 2 w and 2 w a of the resolvent and its slope
        over the kept f_B table, stacked (:func:`_exp_sums`); kept on the
        rate, read-only, for every solve on it, whatever the law."""
        a, w = self._fb
        rows = np.asarray((2.0 * w, 2.0 * w * a))
        rows.setflags(write=False)
        return rows


def _read_only(*arrays) -> tuple:
    """The arrays, flagged read-only: they are kept and shared."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class ConstantRate(_DivisionRate):
    """B(a) = b: exponentially distributed division age."""

    b: float

    def __post_init__(self):
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError("b must be positive and finite")

    def hazard(self, a):
        a = np.asarray(a, dtype=float)
        return np.full_like(a, self.b)

    def hazard_derivative(self, a):
        a = np.asarray(a, dtype=float)
        return np.zeros_like(a)

    def cumulative(self, a):
        return self.b * np.asarray(a, dtype=float)

    def cutoff(self, eps: float) -> float:
        return -math.log(eps) / self.b


@dataclass(frozen=True)
class PowerLagRate(_DivisionRate):
    """B(a) = (a - lag)^beta for a >= lag, zero before the lag."""

    beta: float
    lag: float = 0.0

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be non-negative and finite")
        if not (self.lag >= 0.0 and math.isfinite(self.lag)):
            raise ValueError("lag must be non-negative and finite")

    @property
    def support_start(self) -> float:
        return self.lag

    @property
    def kinks(self) -> tuple:
        return (self.lag,) if self.lag > 0.0 else ()

    def hazard(self, a):
        """B(a), exactly 0 up to the lag, NaN at a NaN age.  The power is
        taken only past the lag: but for beta 0.5, 1 and 2, pow costs about
        three times as much on a zero base as on a positive one, and gives
        exactly 0 there."""
        a = np.asarray(a, dtype=float)
        if self.beta == 0.0:
            return np.where(a >= self.lag, 1.0, 0.0)
        t = a - self.lag
        if t.min(initial=math.inf) > 0.0:  # NaN fails it
            return t ** self.beta
        live = ~(t <= 0.0)
        out = np.zeros(t.shape)
        out[live] = t[live] ** self.beta
        return out[()]

    def hazard_derivative(self, a):
        a = np.asarray(a, dtype=float)
        if self.beta == 0.0:
            return np.zeros_like(a)
        t = np.maximum(a - self.lag, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = self.beta * t ** (self.beta - 1.0)
        return np.where(a > self.lag, d, 0.0)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        t = np.maximum(a - self.lag, 0.0)
        return t ** (self.beta + 1.0) / (self.beta + 1.0)

    def cutoff(self, eps: float) -> float:
        return self.lag + ((self.beta + 1.0) * (-math.log(eps))) ** (1.0 / (self.beta + 1.0))


@dataclass(frozen=True)
class TabulatedRate(_DivisionRate):
    """B given on a grid, linearly interpolated; support ends at the last age.

    The cumulative hazard is the exact integral of the interpolant
    (trapezoid on the nodes).  Survival left at the end of the grid is
    treated as an atom dividing exactly at ``support_end``, which keeps the
    division-age law a probability measure.
    """

    ages: tuple
    values: tuple

    def __init__(self, ages: Sequence[float], values: Sequence[float]):
        ages_t = tuple(float(x) for x in ages)
        values_t = tuple(float(x) for x in values)
        if len(ages_t) != len(values_t) or len(ages_t) < 2:
            raise ValueError("need matching grids with at least two nodes")
        if ages_t[0] != 0.0:
            raise ValueError("age grid must start at 0")
        if any(b <= a for a, b in zip(ages_t, ages_t[1:])):
            raise ValueError("age grid must be strictly increasing")
        if not all(map(math.isfinite, ages_t + values_t)):
            raise ValueError("ages and rate values must be finite")
        if any(v < 0.0 for v in values_t):
            raise ValueError("rate values must be non-negative")
        object.__setattr__(self, "ages", ages_t)
        object.__setattr__(self, "values", values_t)
        a = np.asarray(ages_t)
        v = np.asarray(values_t)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(a))])
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_cum", cum)

    @property
    def support_end(self) -> float:
        return self.ages[-1]

    @property
    def atom_mass(self) -> float:
        return float(np.exp(-self._cum[-1]))

    @property
    def kinks(self) -> tuple:
        return self.ages[1:-1]

    def hazard(self, a):
        a = np.asarray(a, dtype=float)
        return np.where(a <= self.support_end, np.interp(a, self._a, self._v), 0.0)

    def hazard_derivative(self, a):
        # slope of the interpolant, piecewise constant
        a = np.asarray(a, dtype=float)
        idx = np.clip(np.searchsorted(self._a, a, side="right") - 1, 0, len(self._a) - 2)
        slope = (self._v[idx + 1] - self._v[idx]) / (self._a[idx + 1] - self._a[idx])
        return np.where((a >= 0.0) & (a <= self.support_end), slope, 0.0)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        ac = np.minimum(a, self.support_end)
        idx = np.clip(np.searchsorted(self._a, ac, side="right") - 1, 0, len(self._a) - 2)
        a0 = self._a[idx]
        b0 = self._v[idx]
        ba = np.interp(ac, self._a, self._v)
        return self._cum[idx] + 0.5 * (b0 + ba) * (ac - a0)

    def survival(self, a):
        # the survival left at the end divides there, so f_B = B S is 0 past it
        a = np.asarray(a, dtype=float)
        s = np.exp(-self.cumulative(a))
        return np.where(a >= self.support_end, 0.0, s)

    def cutoff(self, eps: float) -> float:
        return self.support_end


# ---------------------------------------------------------------------------
# aging-rate laws rho(v)
# ---------------------------------------------------------------------------


class _RateLaw:
    """What every aging-rate law shares: the CV and the mean-preserving
    contraction v_bar + alpha (V - v_bar), alpha in [0, 1], whose alpha = 0
    end is the Dirac at the mean.  A degenerate law has no contraction at
    alpha > 0 and raises ``ValueError``; every other law contracts itself
    in ``_contract``."""

    @property
    def cv(self) -> float:
        return math.sqrt(self.variance) / self.mean

    def contract(self, alpha: float):
        alpha = float(alpha)
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if alpha == 0.0:
            return Dirac(self.mean)
        if self.is_degenerate:
            raise ValueError("alpha > 0 requires a non-degenerate baseline")
        return self._contract(alpha)


@dataclass(frozen=True)
class Dirac(_RateLaw):
    """All cells share the rate v_bar."""

    v_bar: float

    def __post_init__(self):
        if not (self.v_bar > 0.0 and math.isfinite(self.v_bar)):
            raise ValueError("v_bar must be positive and finite")

    @property
    def mean(self) -> float:
        return self.v_bar

    variance = 0.0
    is_degenerate = True

    @property
    def support(self) -> tuple:
        return (self.v_bar, self.v_bar)

    def quadrature(self):
        return np.asarray([self.v_bar]), np.asarray([1.0])


@functools.lru_cache(maxsize=128)
def _legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use and shared read-only; the cache holds every size the panels and
    the rate windows (12 to 64 nodes) use."""
    return _read_only(*leggauss(n))


def _gl_on(a, b, n: int = 16):
    """n-point Gauss-Legendre nodes and weights on [a, b]; with arrays of
    ends (a column each) one row per interval.  The age model's only rule."""
    x, w = _legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _window_rule(lo: float, hi: float, least: int = _GL_FLOOR):
    """Gauss-Legendre nodes and weights on a rate window [lo, hi], with as
    many nodes as its pole term asks, at least ``least`` and at most
    _GL_NODES.

    Every integrand over the rates is analytic but for v = 0: exp(-K / v),
    K = lambda a >= 0, times 1/v, (a / v) or a density.  In reference
    coordinates v = 0 sits at x0 = (hi + lo) / (hi - lo), and the Bernstein
    ellipse through it has rho0 = x0 + sqrt(x0^2 - 1), so ln rho0 =
    2 atanh(sqrt(lo / hi)).  Inside it Re v > 0, so |exp(-K / v)| <= 1 for
    every K, and an n-point rule errs by O(rho0^(-2n)) (Trefethen, SIAM
    Review 50, 2008) at every lambda and every age at once: the pole term
    is the n with rho0^(-2n) <= eps.  A window touching 0 has no such
    ellipse and keeps _GL_NODES."""
    q = math.sqrt(lo / hi)
    if q == 0.0:
        return _gl_on(lo, hi, _GL_NODES)
    pole = math.ceil(_LN_EPS / (4.0 * math.atanh(q)))
    return _gl_on(lo, hi, min(_GL_NODES, max(least, pole)))


@dataclass(frozen=True)
class _Window(_RateLaw):
    """A law with a density on the finite window [v_min, v_max], symmetric
    about its midpoint, the mean; contraction shrinks the window about it."""

    v_min: float
    v_max: float

    def __post_init__(self):
        if not (0.0 <= self.v_min < self.v_max < math.inf):
            raise ValueError("need 0 <= v_min < v_max < inf")

    @property
    def mean(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    is_degenerate = False

    @property
    def support(self) -> tuple:
        return (self.v_min, self.v_max)

    def _contract(self, alpha: float):
        m = self.mean
        return self._on_window(m - alpha * (m - self.v_min), m + alpha * (self.v_max - m), alpha)


@dataclass(frozen=True)
class TruncatedGaussian(_Window):
    """Gaussian with sd sigma_eta restricted to [v_min, v_max], centered at
    the midpoint v_bar = (v_min + v_max) / 2 so the mean is exact."""

    sigma_eta: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.sigma_eta > 0.0 and math.isfinite(self.sigma_eta)):
            raise ValueError("sigma_eta must be positive and finite")
        if (self.v_max - self.v_min) / self.sigma_eta < 1e-3:
            # the symmetric-moment formulas cancel catastrophically here;
            # a flat law should be UniformLaw instead
            raise ValueError("window too narrow relative to sigma_eta; use UniformLaw")
        if not self.mean + self.sigma_eta > self.mean:
            # the rate rule's window, the mean +- 8.5 sigma, would be empty
            raise ValueError("sigma_eta below the resolution of the mean; use Dirac")

    @property
    def _beta(self) -> float:
        return (self.v_max - self.mean) / self.sigma_eta

    @property
    def _mass(self) -> float:
        # Phi(beta) - Phi(-beta), stable for small beta
        return math.erf(self._beta / math.sqrt(2.0))

    @property
    def variance(self) -> float:
        b = self._beta
        phi_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        return self.sigma_eta ** 2 * (1.0 - 2.0 * b * phi_b / self._mass)

    def density(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= self.v_min) & (v <= self.v_max), self._pdf(v), 0.0)

    def _pdf(self, v: np.ndarray) -> np.ndarray:
        """The density at v inside the window: no mask, as every rule node
        lies inside it."""
        z = (v - self.mean) / self.sigma_eta
        return np.exp(-0.5 * z * z) / (self.sigma_eta * math.sqrt(2.0 * math.pi) * self._mass)

    def quadrature(self):
        """Rate nodes and weights: :func:`_window_rule` on the window, cut
        to mean +- sqrt(2 ln(1/eps)) sigma (~8.5 sigma) where it is wider,
        as the density falls below eps of its peak there.  The width term
        is the n at which the density's first term past the rule's exact
        degree, its Chebyshev coefficient of degree 2n, about
        exp(-1/(4 s^2)) (8 s^2)^-n / n! with s = sigma / half-window, is
        below eps (Stirling: n ln(8 n s^2 / e) + 1/(4 s^2) >= ln(1/eps));
        the cut keeps s >= 1/8.5, so it asks at most 39 nodes."""
        cut = math.sqrt(2.0 * _LN_EPS) * self.sigma_eta
        lo, hi = max(self.v_min, self.mean - cut), min(self.v_max, self.mean + cut)
        s2 = (2.0 * self.sigma_eta / (hi - lo)) ** 2
        width = next(
            n for n in itertools.count(_GL_FLOOR) if n * math.log(8.0 * n * s2 / math.e) + 0.25 / s2 >= _LN_EPS
        )
        x, w = _window_rule(lo, hi, width)
        return x, w * self._pdf(x)

    def _on_window(self, lo: float, hi: float, alpha: float) -> "TruncatedGaussian":
        return TruncatedGaussian(lo, hi, alpha * self.sigma_eta)


@dataclass(frozen=True)
class UniformLaw(_Window):
    """Flat density on [v_min, v_max]."""

    @property
    def variance(self) -> float:
        return (self.v_max - self.v_min) ** 2 / 12.0

    def density(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(
            (v >= self.v_min) & (v <= self.v_max),
            1.0 / (self.v_max - self.v_min),
            0.0,
        )

    def quadrature(self):
        """Rate nodes and weights: :func:`_window_rule` on the window."""
        x, w = _window_rule(self.v_min, self.v_max)
        return x, w / (self.v_max - self.v_min)

    def _on_window(self, lo: float, hi: float, alpha: float) -> "UniformLaw":
        return UniformLaw(lo, hi)


@dataclass(frozen=True)
class DiscreteMixture(_RateLaw):
    """Finite mixture of rate atoms; weights must sum to one."""

    atoms: tuple  # ((v, weight), ...)

    def __init__(self, atoms: Iterable[tuple]):
        atoms_t = tuple((float(v), float(w)) for v, w in atoms)
        if not atoms_t:
            raise ValueError("need at least one atom")
        if not all(0.0 < v < math.inf and 0.0 <= w < math.inf for v, w in atoms_t):
            raise ValueError("atoms need positive finite locations and non-negative finite weights")
        if abs(sum(w for _, w in atoms_t) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms_t)

    @property
    def mean(self) -> float:
        return sum(v * w for v, w in self.atoms)

    @property
    def variance(self) -> float:
        m = self.mean
        return sum(w * (v - m) ** 2 for v, w in self.atoms)

    @property
    def is_degenerate(self) -> bool:
        return self.variance == 0.0

    @property
    def support(self) -> tuple:
        vs = [v for v, _ in self.atoms]
        return (min(vs), max(vs))

    def quadrature(self):
        v = np.asarray([v for v, _ in self.atoms])
        w = np.asarray([w for _, w in self.atoms])
        return v, w

    def _contract(self, alpha: float) -> "DiscreteMixture":
        m = self.mean
        return DiscreteMixture(tuple((m + alpha * (v - m), w) for v, w in self.atoms))


@dataclass(frozen=True)
class AlphaFamily:
    """Mean-preserving contraction of a baseline law: v_bar + alpha (V - v_bar).

    The contracted law keeps the baseline mean while its CV scales linearly
    in alpha; alpha = 1 recovers the baseline and alpha -> 0 tends to the
    Dirac at the mean.  A baseline that is no rate law raises
    ``TypeError``; alpha must lie in (0, 1], and the baseline's
    :meth:`_RateLaw.contract` refuses the rest (alpha > 1, a degenerate
    baseline) with its ``ValueError``.
    """

    baseline: object
    alpha: float

    def __post_init__(self):
        if not isinstance(self.baseline, _RateLaw):
            raise TypeError(f"baseline must be a rate law; got {self.baseline!r}")
        a = float(self.alpha)
        if not a > 0.0:  # NaN fails it too
            raise ValueError("alpha must lie in (0, 1]")
        self.baseline.contract(a)
        object.__setattr__(self, "alpha", a)

    def law(self):
        return self.baseline.contract(self.alpha)

    @property
    def cv(self) -> float:
        return self.alpha * self.baseline.cv


# ---------------------------------------------------------------------------
# eigenvalue solvers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _ladder() -> np.ndarray:
    """The 73 geometric steps 10^(-9 + k/8), k <= 72, of every graded run
    of panels; built on first use, not at import, and shared read-only."""
    geo = np.logspace(-9.0, 0.0, 9 * 8 + 1)
    geo.setflags(write=False)
    return geo


def _panel_edges(end: float, graded: Iterable[float], splits: Iterable[float] = ()) -> np.ndarray:
    """Panel edges on [0, end]: geometric to the right of every point of
    ``graded`` (nine decades, eight panels each, the shared ``_ladder``),
    plain cuts at ``splits``.  Grading toward a point resolves both the
    boundary layers exp(-K (a - g)) of every rate K at once and an onset
    (a - g)^beta."""
    graded = [g for g in graded if 0.0 <= g < end]
    geo = _ladder()
    pieces = [[0.0, end], graded, [k for k in splits if 0.0 < k < end]]
    pieces += [g + (end - g) * geo for g in graded]
    return np.unique(np.concatenate(pieces))


@functools.lru_cache(maxsize=1)
def _antiderivative_matrix() -> np.ndarray:
    """Q[k, j] = int_{-1}^{x_k} l_j for the Lagrange basis l_j on the Gauss
    nodes x, with x_16 = 1 appended: row k of Q @ f(x) integrates the
    interpolant of f from -1 up to x_k, and the last row is the rule itself.
    Built on first use, not at import, and shared read-only.

    l_j = sum_m (m + 1/2) w_j P_m(x_j) P_m, exact because the rule
    integrates degree 31, and the P_m integrate in closed form."""
    x, w = _gl_on(-1.0, 1.0)
    int_p = legval(np.append(x, 1.0), legint(np.eye(x.size), lbnd=-1.0))  # [m, k]
    Q = np.einsum("mk,m,jm,j->kj", int_p, np.arange(x.size) + 0.5, legvander(x, x.size - 1), w)
    Q.setflags(write=False)
    return Q


def _cumulative(f: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """int_0^a f at every Gauss node a on the panels ``edges``, from the
    values f[node, ..., panel] there, node-major.  Q contracts the node axis
    first, so each of its rows weighs 16 contiguous blocks of f; each
    panel's integrals then take on the earlier panels' sum, in place."""
    part = np.einsum("j...,kj->k...", f, _antiderivative_matrix())
    part *= 0.5 * np.diff(edges)
    whole = part[-1]
    part[:-1] += np.cumsum(whole, axis=-1) - whole
    return part[:-1]


def _fb_table(B, ages: Sequence[float] = ()):
    """Quadrature table of the division-age law: nodes a, ascending, and
    weights w with w @ g(a) = int f_B g (terminal atom included), cut at
    B.cutoff(TAIL_EPS).

    Panels are graded toward 0 and toward the onset of the support and cut
    at the kinks of B; between kinks f_B is smooth, so the kinks of a
    tabulated hazard need no grading of their own.  A graded panel takes
    the 16-point Gauss-Legendre rule, and so does a cell that the kinks cut
    from it if the cell keeps more than 1/4 of it; a cell keeping more than
    1/16 takes 8 points, a smaller one 4.  Given grid ``ages``, the table is
    also cut at every age, graded toward the last one and runs to
    B.cutoff(TAIL_EPS * S(ages[-1])), so the tail past the grid keeps the
    same relative accuracy.  Every panel of such a table takes 16 points:
    each age starts a boundary layer exp(-K (s - a)), which a short rule on
    a kink cell right after the age would not resolve.

    The table's mass, atom included, must match 1 - S(end) to _MASS_TOL.
    A hazard so steep that f_B rises and falls within one panel (a power
    beta above about 10) misses it; then every panel whose rule
    misses the panel's own mass S(lo) - S(hi) by more than its share of
    _MASS_TOL is halved, 16 points a half, until the table passes.  One
    that still fails after _MAX_HALVINGS rounds raises ValueError, and so
    does a law holding at most half its mass before the cutoff, as an
    extreme power puts its cutoff at the onset in float64: no lambda > 0
    would solve H(0) = 2 mass <= 1."""
    graded, eps = {0.0, float(B.support_start)}, TAIL_EPS
    if len(ages):
        graded.add(float(ages[-1]))
        eps *= float(B.survival(ages[-1]))
    end = B.cutoff(eps)
    edges = _panel_edges(end, graded, (*B.kinks, *ages))
    lo, hi = edges[:-1], edges[1:]
    if len(ages):
        n = np.full(lo.size, 16)
    else:
        parent = _panel_edges(end, graded)
        share = (hi - lo) / np.diff(parent)[np.searchsorted(parent, lo, side="right") - 1]
        n = np.where(share > 1 / 4, 16, np.where(share > 1 / 16, 8, 4))
    atom, mass = float(B.atom_mass), 1.0 - float(B.survival(end))
    if not mass > 0.5:
        raise ValueError(f"the division-age law of {B!r} holds only {mass!r} of its mass before its cutoff {end!r}")
    for halvings in itertools.count():
        first = np.cumsum(n) - n  # each panel's first row, in panel order
        a, g = np.empty(n.sum()), np.empty(n.sum())
        for k in (16, 8, 4):
            on = n == k
            rows = first[on, None] + np.arange(k)
            a[rows], g[rows] = _gl_on(lo[on, None], hi[on, None], k)
        w = g * B.density(a)
        miss = float(w.sum()) + atom - mass
        if abs(miss) <= _MASS_TOL:
            break
        if halvings == _MAX_HALVINGS:
            raise ValueError(f"the division-age law of {B!r} keeps missing {miss!r} of its mass")
        s = np.exp(-B.cumulative(edges))  # no atom: S(lo) - S(hi) is f_B's mass on a panel
        bad = np.abs(np.add.reduceat(w, first) - (s[:-1] - s[1:])) > _MASS_TOL / n.size
        at = np.flatnonzero(bad) + 1
        n = np.insert(np.where(bad, 16, n), at, 16)
        edges = np.insert(edges, at, 0.5 * (lo + hi)[bad])
        lo, hi = edges[:-1], edges[1:]
    if atom > 0.0:
        a = np.append(a, B.support_end)
        w = np.append(w, atom)
    return a, w


def _kept_rows(w: np.ndarray) -> np.ndarray:
    """Mask of the f_B table rows with weights ``w`` that the rate keeps
    (``_DivisionRate._fb``): all but the lightest, dropped, the massless lag
    before the onset first, as long as their weights sum to at most eps/2
    of the total (eps the float64 machine epsilon).  Row i adds at most
    2 w_i to H, so H moves by at most eps * sum(w) at every lambda >= 0:
    less than one ulp of H(0) = 2 sum(w)."""
    order = np.argsort(w)
    light = np.searchsorted(np.cumsum(w[order]), 0.5 * np.finfo(np.float64).eps * w.sum(), side="right")
    keep = np.ones(w.size, dtype=bool)
    keep[order[:light]] = False
    return keep


def _exp_sums(rows, cols, row_w, col_w) -> Callable[[float], tuple]:
    """lambda -> the K sums  sum_i row_w[k, i] sum_j col_w[k, j]
    exp(lambda rows_i cols_j),  k < K: the module's one sum of exponentials
    over an f_B table (its nodes the ``rows``).  The exponent table is
    built once, rate-node-major: cols x rows, one contiguous run of the
    f_B rows per column.  At lambda = 0 every exponential is 1, and each
    sum is the product of its two weight sums.

    The exponentials are taken a block of rows at a time, in one scratch
    block of about ``_BLOCK`` elements reused by every evaluation: a fresh
    array per evaluation costs more in page faults than the exponentials
    themselves, and a table-sized one as much memory as the exponent table.
    One einsum contracts each block with all K weight columns at once,
    streaming over the rows once per column (a short dot per row took up
    to a quarter longer), and sums each row over the columns in the same
    order as an einsum per column would, bit for bit.  Each row's sums
    over the columns, and the sums over the rows, are taken in the same
    order whatever the block size, so no sum depends on it."""
    row_w, col_w = np.asarray(row_w, dtype=float), np.asarray(col_w, dtype=float)
    at_zero = tuple((row_w.sum(axis=1) * col_w.sum(axis=1)).tolist())
    table = np.multiply.outer(cols, rows)
    m, n = table.shape
    step = max(1, _BLOCK // m)
    blk = np.empty((m, min(step, n)))
    per_row = np.empty(row_w.shape)

    def sums(lam: float) -> tuple:
        if lam == 0.0:
            return at_zero
        for i in range(0, n, step):
            part = blk[:, : min(step, n - i)]
            np.multiply(table[:, i : i + step], lam, out=part)
            np.exp(part, out=part)
            np.einsum("kj,ji->ki", col_w, part, out=per_row[:, i : i + step])
        # a pairwise sum over the rows: an einsum's running sum would leave
        # ~1e-15 of rounding noise in H on a table of 20 000 rows
        np.multiply(per_row, row_w, out=per_row)
        return tuple(per_row.sum(axis=1).tolist())

    return sums


def _resolvent_factory(B, law) -> Callable[[float], tuple]:
    """lambda -> (H(lambda), H'(lambda)) with H(lambda) = 2 iint
    exp(-lambda a / v) f_B(a) rho(v) dv da over the rate's kept f_B table
    and the rate nodes (:func:`_exp_sums`); the slope -2 iint (a / v)
    exp(-lambda a / v) f_B rho sums the same exponentials with the weights
    of rho over v and those of f_B times a.  What the rate alone fixes, its
    table and row weights, is kept on the rate; the law's rule, the
    exponent table and the column weights are built per call."""
    nodes, weights = law.quadrature()
    a, _ = B._fb
    return _exp_sums(a, -1.0 / nodes, B._resolvent_rows, (weights, -weights / nodes))


def malthus_reference(B, v_bar: float) -> float:
    """Growth exponent when every cell ages at exactly v_bar."""
    return find_root_decreasing(_resolvent_factory(B, Dirac(v_bar)), 1.0)


def malthus_with_variability(B, rho) -> float:
    """Growth exponent under an aging-rate law rho (Dirac reduces to the
    reference value)."""
    lo, _ = rho.support
    if lo < 0.0:
        # zero-rate cells never divide and merely dilute the integrand,
        # which the quadrature handles, but negative rates are nonsense
        raise ValueError("rate law must be supported on [0, inf)")
    return find_root_decreasing(_resolvent_factory(B, rho), 1.0)


def malthus_general(
    hazard: Callable,
    inv_speed: Callable,
    rho,
    kink_ages: Sequence[float] = (),
) -> float:
    """Growth exponent for a general age-and-rate hazard.

    ``hazard(a, v)`` is the division hazard per unit age and
    ``inv_speed(a, v)`` the reciprocal aging speed; both must be vectorized
    in ``a``.  Solves

        2 iint hazard * exp(-int_0^a (lambda inv_speed + hazard)) rho dv da = 1,

    which reduces to :func:`malthus_with_variability` when hazard = B(a)
    and inv_speed = 1/v.  Every rate node shares one composite Gauss grid,
    grown one span at a time, [0, 1] and then [end, 2 end], until every
    node's accumulated hazard passes ln(1/TAIL_EPS).  A span carries the
    panels of :func:`_panel_edges` on [0, its end], graded toward 0 and
    toward every age of ``kink_ages`` (where an onset (a - lag)^beta sits),
    that fall inside it, so the hazard is evaluated once per node at the
    points of the final grid and nowhere else.  The inverse speed is then
    evaluated on the same points.  A hazard that is not finite and
    non-negative there, or an inverse speed that is not finite and
    positive, raises ValueError naming the rate node and the age.  Both
    are written once into one node-major block (Gauss node x quantity x
    rate node x panel) and accumulated by :func:`_cumulative`, which
    contracts the node axis first; the leading panels where the hazard is
    0 at every node are left out, and their inverse speed enters only as a
    carried total.  Each resolvent evaluation is then one exponential and
    two weighted sums, for H and its slope, and at lambda = 0 both come
    from the weight sums.
    """
    nodes, weights = rho.quadrature()
    graded = (0.0, *kink_ages)

    def on_grid(fn, t, out):
        # fn(t, v) at every rate node, one row of ``out`` each
        for row, v in zip(out, nodes):
            row[...] = fn(t, float(v))
        return out

    def refuse(name, sign, values, t, ok):
        # names the first rate node, and its first age, where ``ok`` fails
        i, k = np.unravel_index(np.argmin(ok), values.shape)
        raise ValueError(
            f"{name} must be finite and {sign}: {float(values[i, k])!r} at age {float(t[k])!r}"
            f" on rate node v = {float(nodes[i])!r}"
        )

    # per span: edges, Gauss nodes and weights (node x panel), hazard
    # (rate node x node x panel)
    spans = []
    mass = np.zeros(nodes.size)
    start, end = 0.0, 1.0
    for _ in range(64):
        edges = _panel_edges(end, graded)
        edges = np.append(start, edges[edges > start])
        t, w_t = (x.T for x in _gl_on(edges[:-1, None], edges[1:, None]))
        haz = on_grid(hazard, t.ravel(), np.empty((nodes.size, t.size)))
        spans.append((edges, t, w_t, haz.reshape(nodes.size, *t.shape)))
        mass += np.einsum("vi,i->v", haz, w_t.ravel())
        # a NaN or negative hazard fails the min, an infinite one the mass
        if not (haz.min() >= 0.0 and np.isfinite(mass).all()):
            refuse("hazard", "non-negative", haz, t.ravel(), np.isfinite(haz) & (haz >= 0.0))
        if mass.min() >= -math.log(TAIL_EPS):
            break
        start, end = end, 2.0 * end
    else:
        raise ValueError("hazard accumulates no mass")

    edges = np.unique(np.concatenate([span[0] for span in spans]))
    t, w_t, haz = (np.concatenate([span[i] for span in spans], axis=-1) for i in (1, 2, 3))
    del spans
    inv = on_grid(inv_speed, t.ravel(), np.empty((nodes.size, t.size)))
    if not (inv.min() > 0.0 and inv.max() < math.inf):
        refuse("inv_speed", "positive", inv, t.ravel(), np.isfinite(inv) & (inv > 0.0))
    inv = inv.reshape(haz.shape)
    # the panels before the first with hazard at any rate node, the lag
    # before an onset, add nothing to H: only their inverse speed carries on
    lag = int(np.argmax(haz.any(axis=(0, 1))))
    carry = np.einsum("vjp,jp->v", inv[..., :lag], w_t[:, :lag])
    w_t = w_t[:, lag:]
    # node x quantity (hazard, inverse speed) x rate node x panel
    block = np.stack([x[..., lag:].transpose(1, 0, 2) for x in (haz, inv)], axis=1)
    del haz, inv
    wh = (weights[:, None] * w_t[:, None, :] * block[:, 0]).ravel()
    cum = _cumulative(block, edges[lag:])
    del block
    # wh takes the survival exp(-ch) in, so an evaluation is one exponential
    # of -lambda cp and two sums, with weights wh for H and wh cp for -H',
    # all flat and contiguous; -ch becomes the buffer they all reuse.  At
    # lambda = 0 every exponential is 1, and H and H' are the weight sums.
    buf, cp = np.negative(cum[:, 0]).ravel(), (cum[:, 1] + carry[:, None]).ravel()
    del cum
    wh *= np.exp(buf, out=buf)
    whp = wh * cp
    at_zero = (2.0 * float(wh.sum()), -2.0 * float(whp.sum()))

    def H(lam: float) -> tuple:
        if lam == 0.0:
            return at_zero
        np.multiply(cp, -lam, out=buf)
        np.exp(buf, out=buf)
        return 2.0 * float(np.einsum("i,i->", wh, buf)), -2.0 * float(np.einsum("i,i->", whp, buf))

    return find_root_decreasing(H, 1.0)


# ---------------------------------------------------------------------------
# eigenvectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenPair:
    """Stable-distribution and reproductive-value grids for (B, rho).

    N[i, j] is the stable density at (a_nodes[i], v_nodes[j]); phi the
    adjoint eigenvector on the same grid, normalized so that the full
    integrals of N and of N*phi both equal one.
    """

    lam: float
    a_nodes: np.ndarray
    v_nodes: np.ndarray
    N: np.ndarray
    phi: np.ndarray
    kappa: float
    kappa_prime: float


def eigen_pair(B, rho, a_nodes, v_nodes) -> EigenPair:
    """Evaluate the explicit eigenvectors on a user grid.

    The normalizations come from the resolvent at its root lambda:
    kappa = 2 lambda and kappa' = -1 / (lambda H'(lambda)).  Requires a
    rate law with a density, a window law (Dirac and atom mixtures are
    rejected), and a division rate whose age law has no terminal atom.
    """
    if not isinstance(rho, _Window):
        raise ValueError("eigenvectors require a rate law with a density")
    if float(B.atom_mass) > 1e-12:
        raise ValueError("division-age law leaks mass at its endpoint; refine the grid")
    a_nodes = np.asarray(a_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if a_nodes.ndim != 1 or v_nodes.ndim != 1 or a_nodes.size < 2 or v_nodes.size < 2:
        raise ValueError("need 1-d grids with at least two nodes")
    if not (np.all(np.isfinite(a_nodes)) and a_nodes[0] >= 0.0 and np.all(np.diff(a_nodes) >= 0.0)):
        raise ValueError("ages must be finite, non-negative and non-decreasing")
    if not np.all(np.isfinite(v_nodes) & (v_nodes > 0.0)):
        raise ValueError("rates must be positive and finite")
    S_a = B.survival(a_nodes)
    if np.any(S_a < 1e-250):
        raise ValueError("grid extends past representable survival")

    H = _resolvent_factory(B, rho)
    lam = find_root_decreasing(H, 1.0)
    # 1 = kappa iint (rho/v) exp(-lam a/v) S = kappa (1 - H(lam)/2) / lam, as
    # S' = -f_B, and 1 = kappa kappa' iint (rho/v) a exp(-lam a/v) f_B =
    # -kappa kappa' H'(lam) / 2, where H(lam) = 1 at the root
    kappa, kappa_prime = 2.0 * lam, -1.0 / (lam * H(lam)[1])
    ages, inverse = np.unique(a_nodes, return_inverse=True)
    a_tab, w_tab = _fb_table(B, ages)

    expo = np.exp(np.multiply.outer(a_nodes, -lam / v_nodes))
    dens = rho.density(v_nodes)
    N = kappa * (dens / v_nodes)[None, :] * expo * S_a[:, None]

    # shifted tails G(a, v) = int_a^inf exp(-lam (s - a)/v) f_B(s) ds built by
    # backward recurrence; every factor stays in [0, 1], so phi = kappa' G/S
    # never under- or overflows even where exp(-lam a/v) itself would.  The
    # table is cut at every grid age, so the strip from each age to the next
    # (and the tail past the last) is a run of its nodes.
    first = np.searchsorted(a_tab, ages)  # first table node of every strip
    s = a_tab[first[0]:]
    since = s - ages[np.searchsorted(ages, s, side="right") - 1]  # s minus its strip's start
    strips = np.multiply.outer(since, -lam / v_nodes)
    np.exp(strips, out=strips)  # in place: the largest array of the call
    strips *= w_tab[first[0]:, None]
    G = np.add.reduceat(strips, first - first[0], axis=0)
    step = np.exp(np.multiply.outer(np.diff(ages), -lam / v_nodes))
    for i in range(ages.size - 2, -1, -1):
        G[i] += step[i] * G[i + 1]
    phi = kappa_prime * G[inverse] / S_a[:, None]
    return EigenPair(lam, a_nodes, v_nodes, N, phi, kappa, kappa_prime)


# ---------------------------------------------------------------------------
# perturbation derivatives and curve tables
# ---------------------------------------------------------------------------


def dlambda_dalpha(B, fam: AlphaFamily) -> float:
    """d lambda / d alpha along the contraction family, at fam.alpha.

    Ratio of the two mixed moments of the division-age law under the
    contracted rates; tends to 0 as alpha -> 0.
    """
    return _lambda_and_slope(B, fam)[1]


def _lambda_and_slope(B, fam: AlphaFamily) -> tuple:
    """(lambda, d lambda / d alpha) at fam.alpha, from one root solve."""
    if not isinstance(fam, AlphaFamily):
        raise TypeError("fam must be an AlphaFamily")
    lam = malthus_with_variability(B, fam.law())
    nodes, weights = fam.baseline.quadrature()
    m = fam.baseline.mean
    u = fam.alpha * (nodes - m) + m
    a, w = B._fb
    d1, d2 = _exp_sums(a, -1.0 / u, (w * a, w * a), (weights / u, weights * (nodes - m) / (u * u)))(lam)
    return lam, lam * d2 / d1


def d2lambda_at_zero(B, baseline) -> float:
    """Second derivative of alpha -> lambda at alpha = 0 (the first vanishes).

    Equals sigma^2 / v_bar^2 times a ratio of exponential moments of the
    division-age law at the reference exponent (the 1/v_bar^2 comes from
    d^2/dv^2 exp(-lambda a / v) at v = v_bar); for B constant this collapses
    to -sigma^2 * b / v_bar.
    """
    var = float(baseline.variance)
    if var == 0.0:
        return 0.0
    m = baseline.mean
    lam = malthus_reference(B, m)
    a, w = B._fb
    sa = (lam / m) * a
    num, den = _exp_sums(a, [-1.0 / m], (w * sa * (sa - 2.0), w * a / m), [[1.0], [1.0]])(lam)
    return var * (num / den) / (m * m)


def sign_condition(B) -> str:
    """Classify the sign of B' - B^2 on the interior of the support.

    Returns 'decreasing_fB' when B' < B^2 everywhere sampled (division-age
    density decreasing), 'increasing_fB' for the opposite strict sign, and
    'mixed' otherwise.  The lag region where B vanishes is excluded.
    """
    start = float(B.support_start)
    end = float(B.support_end)
    if not math.isfinite(end):
        end = B.cutoff(TAIL_EPS)
    if not end > start:
        raise ValueError("empty support")
    a = start + (np.arange(_SIGN_SAMPLES) + 0.5) * (end - start) / _SIGN_SAMPLES
    diff = B.hazard_derivative(a) - B.hazard(a) ** 2
    if np.all(diff < 0.0):
        return "decreasing_fB"
    if np.all(diff > 0.0):
        return "increasing_fB"
    return "mixed"


@dataclass(frozen=True)
class CurveRow:
    alpha: float
    cv: float
    lam: float
    status: str = "ok"


def cv_curve(B, baseline, alphas: Sequence[float]) -> list:
    """lambda as a function of the contracted CV, sorted by CV.

    Includes the CV = 0 anchor (the reference exponent at the baseline
    mean), which an alpha of 0 names.  Solver failures are recorded per
    row instead of raised.
    """
    if baseline.is_degenerate:
        raise ValueError("baseline must be non-degenerate")
    rows = [CurveRow(0.0, 0.0, malthus_reference(B, baseline.mean))]
    for alpha in alphas:
        alpha = float(alpha)
        if alpha == 0.0:
            continue
        try:
            fam = AlphaFamily(baseline, alpha)
            lam = malthus_with_variability(B, fam.law())
            rows.append(CurveRow(alpha, fam.cv, lam))
        except (ValueError, RuntimeError) as e:  # recorded, not fatal
            rows.append(CurveRow(alpha, alpha * baseline.cv, math.nan, f"error: {type(e).__name__}: {e}"))
    rows.sort(key=lambda r: (math.isnan(r.cv), r.cv))
    return rows
