"""Age-structured cell populations with individual aging-rate variability.

A cell ages at an individual rate v drawn at birth from a law with mean
``v_bar``; at physiological age a it divides with hazard B(a) per unit age.
Writing f_B(a) = B(a) exp(-int_0^a B) for the division-age density, the
population growth exponent lambda solves

    2 * iint exp(-lambda a / v) f_B(a) rho(v) dv da = 1.

Every integral against the division-age law goes through one quadrature
table built per call: composite Gauss-Legendre panels graded toward 0 and
toward the onset of the support and cut at the kinks of B, with one set of
weights for f_B (terminal atom included) and one for the survival S.  The
resolvent is then a single weighted sum over the table nodes and the rate
nodes of rho; the closed forms of the constant rate serve only as test
oracles.

The module provides the division-rate variants, the rate laws together
with their mean-preserving contraction family (same mean, CV scaled by
alpha), eigenvalue solvers including the general hazard/speed form with
its explicit eigenvectors, a monotonicity classifier for f_B, and the
first/second perturbation derivatives of lambda in alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf, roots_legendre

from .numerics import (
    DEFAULT_ROOT_TOL,
    TAIL_EPS,
    Tolerance,
    find_root_decreasing,
    integrate,  # unused here; bench/tracing.py wraps it by this module's name
)

__all__ = [
    "ConstantRate",
    "PowerLagRate",
    "TabulatedRate",
    "Dirac",
    "TruncatedGaussian",
    "UniformLaw",
    "DiscreteMixture",
    "AlphaFamily",
    "EigenPair",
    "CurveRow",
    "malthus_reference",
    "malthus_with_variability",
    "malthus_general",
    "eigen_pair",
    "dlambda_dalpha",
    "d2lambda_at_zero",
    "sign_condition",
    "cv_curve",
]

_GL_NODES = 64

# Sums over quadrature tables use np.einsum, never `@`: OpenBLAS runs every
# product above a few thousand elements on all cores, and between the many
# small products of a root solve its worker threads spin, so a solve holds
# every core and slows down whenever another process needs one.


# ---------------------------------------------------------------------------
# division rates B(a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantRate:
    """B(a) = b: exponentially distributed division age."""

    b: float

    def __post_init__(self):
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError("b must be positive and finite")

    support_start = 0.0
    support_end = math.inf
    atom_mass = 0.0
    kinks: tuple = ()

    def hazard(self, a):
        a = np.asarray(a, dtype=float)
        return np.full_like(a, self.b)

    def hazard_derivative(self, a):
        a = np.asarray(a, dtype=float)
        return np.zeros_like(a)

    def cumulative(self, a):
        return self.b * np.asarray(a, dtype=float)

    def survival(self, a):
        return np.exp(-self.cumulative(a))

    def density(self, a):
        return self.hazard(a) * self.survival(a)

    def cutoff(self, eps: float = TAIL_EPS) -> float:
        return -math.log(eps) / self.b


@dataclass(frozen=True)
class PowerLagRate:
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

    support_end = math.inf
    atom_mass = 0.0

    @property
    def kinks(self) -> tuple:
        return (self.lag,) if self.lag > 0.0 else ()

    def hazard(self, a):
        a = np.asarray(a, dtype=float)
        t = np.maximum(a - self.lag, 0.0)
        out = t ** self.beta
        if self.beta == 0.0:
            out = np.where(a >= self.lag, 1.0, 0.0)
        return out

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

    def survival(self, a):
        return np.exp(-self.cumulative(a))

    def density(self, a):
        return self.hazard(a) * self.survival(a)

    def cutoff(self, eps: float = TAIL_EPS) -> float:
        return self.lag + ((self.beta + 1.0) * (-math.log(eps))) ** (1.0 / (self.beta + 1.0))


@dataclass(frozen=True)
class TabulatedRate:
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

    support_start = 0.0

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
        a = np.asarray(a, dtype=float)
        s = np.exp(-self.cumulative(a))
        return np.where(a >= self.support_end, 0.0, s)

    def density(self, a):
        a = np.asarray(a, dtype=float)
        return np.where(
            a < self.support_end,
            self.hazard(a) * np.exp(-self.cumulative(a)),
            0.0,
        )

    def cutoff(self, eps: float = TAIL_EPS) -> float:
        return self.support_end


# ---------------------------------------------------------------------------
# aging-rate laws rho(v)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dirac:
    """All cells share the rate v_bar."""

    v_bar: float

    def __post_init__(self):
        if not (self.v_bar > 0.0 and math.isfinite(self.v_bar)):
            raise ValueError("v_bar must be positive and finite")

    @property
    def mean(self) -> float:
        return self.v_bar

    variance = 0.0
    cv = 0.0
    is_degenerate = True

    @property
    def support(self) -> tuple:
        return (self.v_bar, self.v_bar)

    def quadrature(self, n: int = _GL_NODES):
        return np.asarray([self.v_bar]), np.asarray([1.0])

    def density(self, v):
        raise ValueError("Dirac law has no density")

    def contract(self, alpha: float) -> "Dirac":
        _check_alpha(alpha)
        return self


def _gl_on(a: float, b: float, n: int):
    x, w = roots_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian with sd sigma_eta restricted to [v_min, v_max], centered at
    the midpoint v_bar = (v_min + v_max) / 2 so the mean is exact."""

    v_min: float
    v_max: float
    sigma_eta: float

    def __post_init__(self):
        if not (self.v_min >= 0.0 and self.v_max > self.v_min):
            raise ValueError("need 0 <= v_min < v_max")
        if not (self.sigma_eta > 0.0 and math.isfinite(self.sigma_eta)):
            raise ValueError("sigma_eta must be positive and finite")
        if (self.v_max - self.v_min) / self.sigma_eta < 1e-3:
            # the symmetric-moment formulas cancel catastrophically here;
            # a flat law should be UniformLaw instead
            raise ValueError("window too narrow relative to sigma_eta; use UniformLaw")

    @property
    def mean(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    @property
    def _beta(self) -> float:
        return (self.v_max - self.mean) / self.sigma_eta

    @property
    def _mass(self) -> float:
        # Phi(beta) - Phi(-beta), stable for small beta
        return float(erf(self._beta / math.sqrt(2.0)))

    @property
    def variance(self) -> float:
        b = self._beta
        phi_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        return self.sigma_eta ** 2 * (1.0 - 2.0 * b * phi_b / self._mass)

    @property
    def cv(self) -> float:
        return math.sqrt(self.variance) / self.mean

    is_degenerate = False

    @property
    def support(self) -> tuple:
        return (self.v_min, self.v_max)

    def density(self, v):
        v = np.asarray(v, dtype=float)
        z = (v - self.mean) / self.sigma_eta
        pdf = np.exp(-0.5 * z * z) / (self.sigma_eta * math.sqrt(2.0 * math.pi) * self._mass)
        return np.where((v >= self.v_min) & (v <= self.v_max), pdf, 0.0)

    def quadrature(self, n: int = _GL_NODES):
        x, w = _gl_on(self.v_min, self.v_max, n)
        return x, w * self.density(x)

    def contract(self, alpha: float) -> "TruncatedGaussian | Dirac":
        alpha = _check_alpha(alpha)
        if alpha == 0.0:
            return Dirac(self.mean)
        m = self.mean
        return TruncatedGaussian(
            m - alpha * (m - self.v_min),
            m + alpha * (self.v_max - m),
            alpha * self.sigma_eta,
        )


@dataclass(frozen=True)
class UniformLaw:
    """Flat density on [v_min, v_max]."""

    v_min: float
    v_max: float

    def __post_init__(self):
        if not (self.v_min >= 0.0 and self.v_max > self.v_min):
            raise ValueError("need 0 <= v_min < v_max")

    @property
    def mean(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    @property
    def variance(self) -> float:
        return (self.v_max - self.v_min) ** 2 / 12.0

    @property
    def cv(self) -> float:
        return math.sqrt(self.variance) / self.mean

    is_degenerate = False

    @property
    def support(self) -> tuple:
        return (self.v_min, self.v_max)

    def density(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(
            (v >= self.v_min) & (v <= self.v_max),
            1.0 / (self.v_max - self.v_min),
            0.0,
        )

    def quadrature(self, n: int = _GL_NODES):
        x, w = _gl_on(self.v_min, self.v_max, n)
        return x, w / (self.v_max - self.v_min)

    def contract(self, alpha: float) -> "UniformLaw | Dirac":
        alpha = _check_alpha(alpha)
        if alpha == 0.0:
            return Dirac(self.mean)
        m = self.mean
        return UniformLaw(m - alpha * (m - self.v_min), m + alpha * (self.v_max - m))


@dataclass(frozen=True)
class DiscreteMixture:
    """Finite mixture of rate atoms; weights must sum to one."""

    atoms: tuple  # ((v, weight), ...)

    def __init__(self, atoms: Iterable[tuple]):
        atoms_t = tuple((float(v), float(w)) for v, w in atoms)
        if not atoms_t:
            raise ValueError("need at least one atom")
        if any(v <= 0.0 or w < 0.0 for v, w in atoms_t):
            raise ValueError("atoms need positive locations and non-negative weights")
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
    def cv(self) -> float:
        return math.sqrt(self.variance) / self.mean

    @property
    def is_degenerate(self) -> bool:
        return self.variance == 0.0

    @property
    def support(self) -> tuple:
        vs = [v for v, _ in self.atoms]
        return (min(vs), max(vs))

    def quadrature(self, n: int = _GL_NODES):
        v = np.asarray([v for v, _ in self.atoms])
        w = np.asarray([w for _, w in self.atoms])
        return v, w

    def density(self, v):
        raise ValueError("discrete mixture has no density")

    def contract(self, alpha: float) -> "DiscreteMixture | Dirac":
        alpha = _check_alpha(alpha)
        m = self.mean
        if alpha == 0.0:
            return Dirac(m)
        return DiscreteMixture(tuple((m + alpha * (v - m), w) for v, w in self.atoms))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    return alpha


@dataclass(frozen=True)
class AlphaFamily:
    """Mean-preserving contraction of a baseline law: v_bar + alpha (V - v_bar).

    The contracted law keeps the baseline mean while its CV scales linearly
    in alpha; alpha = 1 recovers the baseline and alpha -> 0 tends to the
    Dirac at the mean.
    """

    baseline: object
    alpha: float

    def __post_init__(self):
        if self.baseline.is_degenerate:
            raise ValueError("baseline must be non-degenerate")
        a = float(self.alpha)
        if not (0.0 < a <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        object.__setattr__(self, "alpha", a)

    def law(self):
        return self.baseline.contract(self.alpha)

    @property
    def mean(self) -> float:
        return self.baseline.mean

    @property
    def cv(self) -> float:
        return self.alpha * self.baseline.cv


# ---------------------------------------------------------------------------
# eigenvalue solvers
# ---------------------------------------------------------------------------


def _panel_edges(end: float, graded: Iterable[float], splits: Iterable[float] = ()) -> np.ndarray:
    """Panel edges on [0, end]: geometric to the right of every point of
    ``graded`` (nine decades, eight panels each), plain cuts at ``splits``.
    Grading toward a point resolves both the boundary layers
    exp(-K (a - g)) of every rate K at once and an onset (a - g)^beta."""
    graded = [g for g in graded if 0.0 <= g < end]
    geo = np.logspace(-9.0, 0.0, 9 * 8 + 1)
    pieces = [[0.0, end], graded, [k for k in splits if 0.0 < k < end]]
    pieces += [g + (end - g) * geo for g in graded]
    return np.unique(np.concatenate(pieces))


def _gauss_panels(edges: np.ndarray):
    """Nodes and weights of 16-point Gauss-Legendre on every panel of ``edges``."""
    gx, gw = roots_legendre(16)
    half = 0.5 * np.diff(edges)
    nodes = edges[:-1, None] + half[:, None] * (gx[None, :] + 1.0)
    return nodes.ravel(), (half[:, None] * gw[None, :]).ravel()


def _fb_table(B):
    """Quadrature table of the division-age law: nodes a and weights (w, s)
    with  w @ g(a) = int f_B g  (terminal atom included)  and
    s @ g(a) = int_0^inf S g,  both truncated at B.cutoff(TAIL_EPS).

    Panels are graded toward 0 and toward the onset of the support and cut
    at the kinks of B; between kinks f_B is smooth, so the kinks of a
    tabulated hazard need no grading of their own."""
    start = float(B.support_start)
    edges = _panel_edges(B.cutoff(TAIL_EPS), {0.0, start}, B.kinks)
    a, g = _gauss_panels(edges)
    w = g * B.density(a)
    s = g * B.survival(a)
    atom = float(B.atom_mass)
    if atom > 0.0:
        a = np.append(a, B.support_end)
        w = np.append(w, atom)
        s = np.append(s, 0.0)
    return a, w, s


def _fb_integral(B, kernel: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral of f_B(a) * kernel(a) over the support, terminal atom included."""
    a, w, _ = _fb_table(B)
    return float(np.einsum("i,i->", w, kernel(a)))


def _resolvent_factory(B, law) -> Callable[[float], float]:
    """H(lambda) = 2 iint exp(-lambda a / v) f_B(a) rho(v) dv da, one
    weighted sum over the f_B table and the rate nodes per evaluation."""
    nodes, weights = law.quadrature()
    a, w, _ = _fb_table(B)
    keep = w != 0.0  # the lag before the onset carries no division mass
    w = w[keep]
    rate = np.multiply.outer(a[keep], -1.0 / nodes)
    # one buffer reused by every evaluation: a fresh array of this size
    # costs more in page faults than the exponentials themselves
    buf = np.empty_like(rate)

    def H(lam: float) -> float:
        np.multiply(rate, lam, out=buf)
        return 2.0 * float(np.einsum("i,i->", w, np.einsum("ij,j->i", np.exp(buf, out=buf), weights)))

    return H


def malthus_reference(B, v_bar: float, tol: Tolerance = DEFAULT_ROOT_TOL) -> float:
    """Growth exponent when every cell ages at exactly v_bar."""
    if not (v_bar > 0.0 and math.isfinite(v_bar)):
        raise ValueError("v_bar must be positive and finite")
    return find_root_decreasing(_resolvent_factory(B, Dirac(v_bar)), 1.0, tol)


def malthus_with_variability(B, rho, tol: Tolerance = DEFAULT_ROOT_TOL) -> float:
    """Growth exponent under an aging-rate law rho (Dirac reduces to the
    reference value)."""
    lo, _ = rho.support
    if lo < 0.0:
        # zero-rate cells never divide and merely dilute the integrand,
        # which the quadrature handles, but negative rates are nonsense
        raise ValueError("rate law must be supported on [0, inf)")
    return find_root_decreasing(_resolvent_factory(B, rho), 1.0, tol)


def _cum_along(f: Callable, pts: np.ndarray, sx: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``f`` from pts[0] at every point of sorted
    ``pts``, one 8-node Gauss panel per gap (gaps are chosen small and
    kink-free by the caller)."""
    lo, hi = pts[:-1], pts[1:]
    half = 0.5 * (hi - lo)
    xs = lo[:, None] + half[:, None] * (sx[None, :] + 1.0)
    fv = f(xs.ravel()).reshape(xs.shape)
    return np.concatenate([[0.0], np.cumsum(np.einsum("ij,j->i", fv, sw) * half)])


def malthus_general(
    hazard: Callable,
    inv_speed: Callable,
    rho,
    tol: Tolerance = DEFAULT_ROOT_TOL,
    kink_ages: Sequence[float] = (),
) -> float:
    """Growth exponent for a general age-and-rate hazard.

    ``hazard(a, v)`` is the division hazard per unit age and
    ``inv_speed(a, v)`` the reciprocal aging speed; both must be vectorized
    in ``a``.  Solves

        2 iint hazard * exp(-int_0^a (lambda inv_speed + hazard)) rho dv da = 1,

    which reduces to :func:`malthus_with_variability` when hazard = B(a)
    and inv_speed = 1/v.  The accumulated hazard and inverse speed are
    tabulated once per rate node on a composite Gauss grid graded toward 0
    and toward every age of ``kink_ages`` (where an onset (a - lag)^beta
    sits), so each resolvent evaluation is a single weighted sum.
    """
    nodes, weights = rho.quadrature()
    sx, sw = roots_legendre(8)
    graded = (0.0, *kink_ages)
    ln_eps = -math.log(TAIL_EPS)

    wh_all, ch_all, cp_all = [], [], []
    for v, w_v in zip(nodes, weights):
        v = float(v)

        def haz(a, v=v):
            a = np.asarray(a, dtype=float)
            return np.broadcast_to(np.asarray(hazard(a, v), dtype=float), a.shape)

        def isp(a, v=v):
            a = np.asarray(a, dtype=float)
            return np.broadcast_to(np.asarray(inv_speed(a, v), dtype=float), a.shape)

        # grow the domain until the accumulated hazard passes the tail cut
        hi = 1.0
        for _ in range(64):
            edges = _panel_edges(hi, graded)
            cum = _cum_along(haz, edges, sx, sw)
            if cum[-1] >= ln_eps:
                break
            hi *= 2.0
        else:
            raise ValueError("hazard accumulates no mass")
        end = float(edges[max(1, int(np.searchsorted(cum, ln_eps)))])

        panels = _panel_edges(end, graded)
        t, w_t = _gauss_panels(panels)

        brk = np.unique(np.concatenate([panels, t]))
        pos = np.searchsorted(brk, t)
        ch = _cum_along(haz, brk, sx, sw)[pos]
        cp = _cum_along(isp, brk, sx, sw)[pos]
        wh_all.append(w_v * w_t * haz(t))
        ch_all.append(ch)
        cp_all.append(cp)

    wh = np.concatenate(wh_all)
    ch = np.concatenate(ch_all)
    cp = np.concatenate(cp_all)

    def H(lam: float) -> float:
        return 2.0 * float(np.einsum("i,i->", wh, np.exp(-lam * cp - ch)))

    return find_root_decreasing(H, 1.0, tol)


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


def eigen_pair(B, rho, a_nodes, v_nodes, tol: Tolerance = DEFAULT_ROOT_TOL) -> EigenPair:
    """Evaluate the explicit eigenvectors on a user grid.

    Requires a rate law with a density (Dirac and atom mixtures are
    rejected) and a division rate whose age law has no terminal atom.
    """
    try:
        rho.density(np.asarray([rho.mean]))
    except ValueError as e:
        raise ValueError("eigenvectors require a rate law with a density") from e
    if float(B.atom_mass) > 1e-12:
        raise ValueError("division-age law leaks mass at its endpoint; refine the grid")
    a_nodes = np.asarray(a_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if a_nodes.ndim != 1 or v_nodes.ndim != 1 or a_nodes.size < 2 or v_nodes.size < 2:
        raise ValueError("need 1-d grids with at least two nodes")

    lam = malthus_with_variability(B, rho, tol)
    nodes, weights = rho.quadrature()
    end = B.cutoff(TAIL_EPS)

    # kappa:  1 = kappa * int rho(v)/v [int exp(-lam a/v) S(a) da] dv
    # kappa': 1 = kappa kappa' int rho(v)/v [int s exp(-lam s/v) f_B(s) ds] dv
    a_tab, w_tab, s_tab = _fb_table(B)
    ker = np.einsum("ij,j->i", np.exp(np.multiply.outer(a_tab, -lam / nodes)), weights / nodes)
    kappa = 1.0 / float(np.einsum("i,i->", s_tab, ker))
    kappa_prime = 1.0 / (kappa * float(np.einsum("i,i,i->", w_tab, ker, a_tab)))

    S_a = B.survival(a_nodes)
    if np.any(S_a < 1e-250):
        raise ValueError("grid extends past representable survival")
    expo = np.exp(np.multiply.outer(a_nodes, -lam / v_nodes))
    dens = rho.density(v_nodes)
    N = kappa * (dens / v_nodes)[None, :] * expo * S_a[:, None]

    # shifted tails G(a, v) = int_a^inf exp(-lam (s - a)/v) f_B(s) ds built by
    # backward recurrence; every factor stays in [0, 1], so phi = kappa' G/S
    # never under- or overflows even where exp(-lam a/v) itself would.
    # Each inter-node strip is integrated by composite Gauss panels split at
    # the hazard kinks, vectorized over the whole v grid at once.
    gx, gw = roots_legendre(16)

    def strip(x0: float, x1: float) -> np.ndarray:
        # int_{x0}^{x1} f_B(s) exp(-lam (s - x0)/v) ds for every v
        cuts = [x0] + [k for k in B.kinks if x0 < k < x1] + [x1]
        out = np.zeros(v_nodes.size)
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (p1 - p0)
            xs = p0 + half * (gx + 1.0)
            fw = B.density(xs) * (gw * half)
            out += np.einsum("i,ij->j", fw, np.exp(np.multiply.outer(-(lam * (xs - x0)), 1.0 / v_nodes)))
        return out

    G = np.zeros((a_nodes.size, v_nodes.size))
    pts = list(a_nodes)
    acc = np.zeros(v_nodes.size)
    if end > pts[-1]:
        edges = np.linspace(pts[-1], end, 33)
        for j in range(edges.size - 2, -1, -1):
            acc = strip(edges[j], edges[j + 1]) + np.exp(-lam * (edges[j + 1] - edges[j]) / v_nodes) * acc
    G[-1] = acc
    for i in range(a_nodes.size - 2, -1, -1):
        x0, x1 = pts[i], pts[i + 1]
        local = strip(x0, x1) if x1 > x0 else 0.0
        acc = local + np.exp(-lam * (x1 - x0) / v_nodes) * acc
        G[i] = acc
    phi = kappa_prime * G / S_a[:, None]
    return EigenPair(lam, a_nodes, v_nodes, N, phi, kappa, kappa_prime)


# ---------------------------------------------------------------------------
# perturbation derivatives and curve tables
# ---------------------------------------------------------------------------


def dlambda_dalpha(B, fam: AlphaFamily, tol: Tolerance = DEFAULT_ROOT_TOL) -> float:
    """d lambda / d alpha along the contraction family, at fam.alpha.

    Ratio of the two mixed moments of the division-age law under the
    contracted rates; tends to 0 as alpha -> 0.
    """
    if not isinstance(fam, AlphaFamily):
        raise TypeError("fam must be an AlphaFamily")
    lam = malthus_with_variability(B, fam.law(), tol)
    nodes, weights = fam.baseline.quadrature()
    m = fam.baseline.mean
    u = fam.alpha * (nodes - m) + m

    def ker_d1(a):
        a = np.asarray(a, dtype=float)
        return np.einsum("ij,j->i", np.exp(np.multiply.outer(a, -lam / u)), weights / u) * a

    def ker_d2(a):
        a = np.asarray(a, dtype=float)
        w2 = weights * (nodes - m) / (u * u)
        return np.einsum("ij,j->i", np.exp(np.multiply.outer(a, -lam / u)), w2) * a * lam

    d1 = _fb_integral(B, ker_d1)
    d2 = _fb_integral(B, ker_d2)
    return d2 / d1


def d2lambda_at_zero(B, baseline, tol: Tolerance = DEFAULT_ROOT_TOL) -> float:
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
    lam = malthus_reference(B, m, tol)
    s = lam / m

    def ker_den(a):
        a = np.asarray(a, dtype=float)
        return (a / m) * np.exp(-s * a)

    def ker_num(a):
        a = np.asarray(a, dtype=float)
        return (s * a) * (s * a - 2.0) * np.exp(-s * a)

    return var * _fb_integral(B, ker_num) / _fb_integral(B, ker_den) / (m * m)


def sign_condition(B, samples: int = 4096) -> str:
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
    a = start + (np.arange(samples) + 0.5) * (end - start) / samples
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


def cv_curve(B, baseline, alphas: Sequence[float], tol: Tolerance = DEFAULT_ROOT_TOL) -> list:
    """lambda as a function of the contracted CV, sorted by CV.

    Includes the CV = 0 anchor (the reference exponent at the baseline
    mean).  Solver failures are recorded per row instead of raised.
    """
    if baseline.is_degenerate:
        raise ValueError("baseline must be non-degenerate")
    rows = [CurveRow(0.0, 0.0, malthus_reference(B, baseline.mean, tol))]
    for alpha in alphas:
        alpha = float(alpha)
        try:
            fam = AlphaFamily(baseline, alpha)
            lam = malthus_with_variability(B, fam.law(), tol)
            rows.append(CurveRow(alpha, fam.cv, lam))
        except (ValueError, RuntimeError) as e:  # recorded, not fatal
            rows.append(CurveRow(alpha, alpha * baseline.cv, math.nan, f"error: {type(e).__name__}: {e}"))
    rows.sort(key=lambda r: r.cv)
    return rows
