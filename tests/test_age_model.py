"""Division-rate laws, growth-exponent solvers, eigenvectors, perturbation."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import TG_CV, general_resolvent, witness_rate
from malthus import age_model
from malthus.age_model import (
    AlphaFamily,
    ConstantRate,
    Dirac,
    DiscreteMixture,
    PowerLagRate,
    TabulatedRate,
    TruncatedGaussian,
    UniformLaw,
    cv_curve,
    d2lambda_at_zero,
    dlambda_dalpha,
    eigen_pair,
    malthus_general,
    malthus_reference,
    malthus_with_variability,
    sign_condition,
)
from malthus.numerics import find_root_decreasing

TWOPOINT = DiscreteMixture([(0.5, 0.5), (1.5, 0.5)])


# --- rate-law moments ---------------------------------------------------------


def test_truncated_gaussian_moments(tg):
    assert tg.mean == 1.0
    assert abs(tg.cv - TG_CV) < 1e-14
    assert abs(tg.variance - TG_CV**2) < 1e-14


def test_contraction_scales_cv_linearly(tg):
    for alpha in (0.25, 0.5, 0.9):
        fam = AlphaFamily(tg, alpha)
        law = fam.law()
        assert abs(law.mean - 1.0) < 1e-15
        assert abs(fam.cv - alpha * TG_CV) < 1e-14
        assert abs(law.cv - alpha * TG_CV) < 1e-14
    for law in (tg, UniformLaw(0.4, 1.6), TWOPOINT):
        assert law.contract(0.0) == Dirac(law.mean)


def test_constant_rate_has_one_field():
    # support, atom and kinks are class-wide defaults, not fields to override
    assert [f.name for f in dataclasses.fields(ConstantRate)] == ["b"]


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiscreteMixture([(NAN, 0.5), (1.0, 0.5)]),
        lambda: DiscreteMixture([(INF, 0.5), (1.0, 0.5)]),
        lambda: DiscreteMixture([(0.5, NAN), (1.0, 0.5)]),
        lambda: TruncatedGaussian(0.0, INF, 0.7),
        lambda: TruncatedGaussian(NAN, 2.0, 0.7),
        lambda: UniformLaw(0.0, INF),
        lambda: UniformLaw(0.0, NAN),
        lambda: TabulatedRate([0.0, NAN], [1.0, 1.0]),
        lambda: TabulatedRate([0.0, INF], [1.0, 1.0]),
        lambda: TabulatedRate([0.0, 1.0], [1.0, NAN]),
        lambda: TabulatedRate([0.0, 1.0], [1.0, INF]),
    ],
    ids=["mix-nan-v", "mix-inf-v", "mix-nan-w", "tg-inf", "tg-nan", "uniform-inf", "uniform-nan",
         "tab-nan-age", "tab-inf-age", "tab-nan-value", "tab-inf-value"],
)
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ValueError, match="finite|inf"):
        build()


def test_contraction_rejects_bad_alpha(tg):
    for alpha in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            tg.contract(alpha)


def test_density_normalization(tg):
    for law in (tg, UniformLaw(0.7, 1.3), AlphaFamily(tg, 0.4).law()):
        x, w = law.quadrature()
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(x @ w - law.mean) < 1e-12


# --- reference and variability solvers -----------------------------------------


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
@settings(deadline=None, max_examples=60)
def test_constant_rate_closed_form(b, v_bar):
    lam = malthus_reference(ConstantRate(b), v_bar)
    assert abs(lam - b * v_bar) < 1e-10 * max(1.0, b * v_bar)


@given(st.floats(0.1, 5.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
@settings(deadline=None, max_examples=60)
def test_two_point_closed_form(b, v1, v2):
    rho = DiscreteMixture([(v1, 0.5), (v2, 0.5)])
    lam = malthus_with_variability(ConstantRate(b), rho)
    assert abs(lam - b * math.sqrt(v1 * v2)) < 1e-9 * max(1.0, b)


def test_power_lag_reference_value():
    # frozen against an independent quadrature + bisection implementation
    lam = malthus_reference(PowerLagRate(2.0, 1.0), 1.0)
    assert abs(lam - 0.307449812433598) < 1e-10


def test_constant_gaussian_value(tg):
    lam = malthus_with_variability(ConstantRate(1.0), tg)
    assert abs(lam - 0.8505615139113734) < 1e-8
    assert lam < 1.0  # strictly below the reference exponent


def test_dirac_reduces_to_reference():
    rates = [
        ConstantRate(0.8),
        PowerLagRate(0.0, 1.0),
        PowerLagRate(1.0, 0.0),
        PowerLagRate(2.0, 1.0),
        witness_rate(),
    ]
    for B in rates:
        for v in (0.6, 1.0, 1.7):
            assert abs(malthus_with_variability(B, Dirac(v)) - malthus_reference(B, v)) < 1e-12


def test_exponent_linear_in_rate_scale():
    # the root depends on lambda only through lambda/v, so scaling every
    # rate by c scales the exponent by c
    B = PowerLagRate(2.0, 1.0)
    lam1 = malthus_reference(B, 1.0)
    for c in (0.5, 2.0, 3.7):
        assert abs(malthus_reference(B, c) - c * lam1) < 1e-9
    tg = TruncatedGaussian(0.0, 2.0, 0.7)
    scaled = TruncatedGaussian(0.0, 4.0, 1.4)
    assert abs(malthus_with_variability(B, scaled) - 2.0 * malthus_with_variability(B, tg)) < 1e-8


def test_general_solver_reduces_to_variability(tg):
    B = PowerLagRate(2.0, 1.0)
    lam_gen = malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, tg, kink_ages=(1.0,))
    assert abs(lam_gen - malthus_with_variability(B, tg)) < 1e-9


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_general_solver_resolves_fractional_onset(tg, beta):
    # the (a - lag)^beta onset must be graded toward like 0 is
    B = PowerLagRate(beta, 1.0)
    law = AlphaFamily(tg, 0.5).law()
    lam_gen = malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, law, kink_ages=B.kinks)
    assert abs(lam_gen - malthus_with_variability(B, law)) <= 1e-10


def test_fractional_power_lag_matches_adaptive_quadrature():
    # independent oracle: QUADPACK resolvent and brentq, with the lag
    # substituted out so the (a - 1)^0.25 onset sits at an interval end
    beta = 0.25
    B = PowerLagRate(beta, 1.0)

    def f_B(t):
        return t**beta * math.exp(-(t ** (beta + 1.0)) / (beta + 1.0))

    def H(lam, atoms):
        total = 0.0
        for v, p in atoms:
            def g(t):
                return math.exp(-lam * (1.0 + t) / v) * f_B(t)

            for lo, hi in ((0.0, 1.0), (1.0, math.inf)):
                total += p * quad(g, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        return 2.0 * total

    def oracle(atoms):
        return brentq(lambda lam: H(lam, atoms) - 1.0, 0.0, 2.0, xtol=1e-14)

    assert abs(malthus_with_variability(B, TWOPOINT) - oracle(TWOPOINT.atoms)) <= 1e-10
    assert abs(malthus_reference(B, 1.0) - oracle([(1.0, 1.0)])) <= 1e-10


@pytest.mark.parametrize("law", [AlphaFamily(TruncatedGaussian(0.0, 2.0, 0.7), 0.5).law(), TWOPOINT], ids=["tg", "twopoint"])
@pytest.mark.parametrize(
    "B",
    [*(PowerLagRate(beta, 1.0) for beta in (0.0, 0.25, 2.0, 7.0)), ConstantRate(1.0), witness_rate()],
    ids=["beta0", "beta0.25", "beta2", "beta7", "const", "witness"],
)
def test_resolvent_pruning_moves_h_by_at_most_eps(B, law):
    # the unpruned resolvent, every row of the f_B table, against the rows
    # the resolvent keeps; the dropped rows' share of H is summed exactly
    a, w, _ = age_model._fb_table(B)
    nodes, weights = law.quadrature()
    rate = np.multiply.outer(a, -1.0 / nodes)

    def H_full(lam):
        # summed as the resolvent sums its kept rows
        e = np.exp(rate * lam)
        return (2.0 * float(np.sum(w * np.einsum("ij,j->i", e, weights))),
                2.0 * float(np.sum(w * a * np.einsum("ij,j->i", e, -weights / nodes))))

    lam = malthus_with_variability(B, law)
    dropped = ~age_model._kept_rows(w)
    bound = np.finfo(np.float64).eps * w.sum()
    for x in (0.0, lam / 2.0, lam, 2.0 * lam):
        terms = 2.0 * w[dropped] * np.einsum("ij,j->i", np.exp(rate[dropped] * x), weights)
        assert math.fsum(terms) <= bound
    full = find_root_decreasing(H_full, 1.0)
    assert abs(lam - full) <= 4.0 * math.ulp(full)


def blockwise_pair(B, law, lams):
    """(H, H') of the kept rows at each of ``lams``, each summed in one
    pass over the rows: the exponentials weighted by rho, and by rho / v
    for the slope, then the rows by w and by w a, in a pairwise sum."""
    nodes, weights = law.quadrature()
    a, w, _ = age_model._fb_table(B)
    keep = age_model._kept_rows(w)
    a, w = a[keep], w[keep]
    rate = np.multiply.outer(a, -1.0 / nodes)
    out = []
    for x in lams:
        e = np.exp(rate * x)
        out.append((2.0 * float(np.sum(w * np.einsum("ij,j->i", e, weights))),
                    2.0 * float(np.sum(w * a * np.einsum("ij,j->i", e, -weights / nodes)))))
    return out


def test_resolvent_row_blocks_leave_h_unchanged(tg, monkeypatch):
    # blocks of 64 rows of 64 rate nodes (4096 rows of one Dirac node):
    # every table below spans many of them
    law = AlphaFamily(tg, 0.5).law()
    cases = [(witness_rate(), law), (PowerLagRate(0.25, 1.0), law), (witness_rate(), Dirac(1.0))]
    lams = [0.0, 0.5, 1.0, 2.0]
    for B, law_ in cases:
        assert age_model._kept_rows(age_model._fb_table(B)[1]).sum() > 4 * 4096 // law_.quadrature()[0].size

    def solves():
        H = [[age_model._resolvent_factory(B, law)(x) for x in lams] for B, law in cases]
        roots = [malthus_with_variability(B, law) for B, law in cases[:2]]
        return H, roots + [malthus_reference(witness_rate(), 1.0)]

    default = solves()
    for got, (B, law_) in zip(default[0], cases):
        # lambda > 0: the single-pass sums bit for bit; lambda = 0, answered
        # from the weight sums, within 1e-14 of them
        assert got[1:] == blockwise_pair(B, law_, lams[1:])
        for v, ref in zip(got[0], blockwise_pair(B, law_, [0.0])[0]):
            assert abs(v - ref) <= 1e-14 * abs(ref)
    monkeypatch.setattr(age_model, "_BLOCK", 64 * 64)
    assert solves() == default


def test_resolvent_slopes_match_the_constant_rate_closed_form():
    # B = b and every cell at v_bar: H = 2 b v / (b v + lambda) and
    # H' = -2 b v / (b v + lambda)^2, in both closures
    b, v = 1.3, 0.8
    closures = {
        "resolvent": age_model._resolvent_factory(ConstantRate(b), Dirac(v)),
        "general": general_resolvent(lambda a, u: np.full_like(a, b), lambda a, u: 1.0 / u, Dirac(v)),
    }
    for name, H in closures.items():
        for lam in (0.0, 0.3, b * v, 2.5):
            y, dy = H(lam)
            # at lambda = 0 the table's cut at TAIL_EPS shows: it drops 1e-13
            # of the mass and 3e-12 of the mean age, which exp(-lambda a / v)
            # hides at every lambda > 0
            tol_h, tol_slope = (2e-13, 5e-12) if lam == 0.0 and name == "resolvent" else (1e-14, 1e-14)
            assert abs(y / (2.0 * b * v / (b * v + lam)) - 1.0) <= tol_h, (name, lam)
            assert abs(dy / (-2.0 * b * v / (b * v + lam) ** 2) - 1.0) <= tol_slope, (name, lam)


def test_resolvent_slopes_match_a_centered_difference(tg):
    B = PowerLagRate(0.25, 1.0)
    law = AlphaFamily(tg, 0.5).law()
    closures = [
        age_model._resolvent_factory(B, law),
        general_resolvent(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, law, kink_ages=B.kinks),
    ]
    step = 1e-5
    for H in closures:
        for lam in (0.2, 0.6):
            diff = (H(lam + step)[0] - H(lam - step)[0]) / (2.0 * step)
            assert abs(H(lam)[1] / diff - 1.0) <= 1e-9


def test_roots_take_few_resolvent_evaluations(tg, monkeypatch):
    # the beta grid of scripts/run_exponent_curves.py, as in the benchmark's
    # age-sweep: a reference, four contracted laws and malthus_general per
    # beta, the closed forms and the tabulated witness
    counts = []
    solve = age_model.find_root_decreasing

    def counted(h, *rest):
        counts.append(0)

        def h_counted(x):
            counts[-1] += 1
            return h(x)

        return solve(h_counted, *rest)

    monkeypatch.setattr(age_model, "find_root_decreasing", counted)
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
        B = PowerLagRate(beta, 1.0)
        malthus_reference(B, tg.mean)
        for alpha in (0.125, 0.375, 0.625, 0.875):
            malthus_with_variability(B, AlphaFamily(tg, alpha).law())
        malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, AlphaFamily(tg, 0.5).law(), kink_ages=B.kinks)
    malthus_reference(ConstantRate(1.3), 0.8)
    malthus_with_variability(ConstantRate(1.3), DiscreteMixture([(0.4, 0.5), (1.2, 0.5)]))
    malthus_reference(witness_rate(), tg.mean)
    malthus_with_variability(witness_rate(), AlphaFamily(tg, 0.5).law())
    assert len(counts) == 70
    assert sum(counts) / len(counts) < 6.0 and max(counts) <= 10


@pytest.mark.parametrize("n, weight_rel", [(16, 2e-13), (64, 4e-12)])
def test_gauss_rule_matches_scipy(n, weight_rel):
    # measured: nodes within 1.2e-16, weights within 8.4e-14 (n = 16) and
    # 2.3e-12 (n = 64) relative
    from scipy.special import roots_legendre

    x, w = age_model._legendre(n)
    x_ref, w_ref = roots_legendre(n)
    assert np.max(np.abs(x - x_ref)) <= 2e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= weight_rel
    assert not (x.flags.writeable or w.flags.writeable)
    assert age_model._legendre(n)[0] is x
    # exact for every polynomial of degree at most 2n - 1
    for k in range(2 * n):
        exact = (1.0 + (-1.0) ** k) / (k + 1.0)
        assert abs(float(np.einsum("i,i->", w, x**k)) - exact) <= 1e-14


def test_truncated_gaussian_mass_matches_scipy_erf():
    # the window's Gaussian mass erf(beta / sqrt 2), beta its half-width in
    # sds, over every beta the constructor accepts up to where it is 1
    from scipy.special import erf

    for beta in np.geomspace(5e-4, 40.0, 4000):
        law = TruncatedGaussian(0.0, 2.0, 1.0 / beta)
        ref = float(erf(law._beta / math.sqrt(2.0)))
        assert abs(law._mass - ref) <= 3.0 * math.ulp(ref)


def test_general_solver_evaluates_the_hazard_once_per_grid_point(tg):
    # the hazard is evaluated on the final grid only, where the inverse speed is
    law = AlphaFamily(tg, 0.5).law()
    for B in (PowerLagRate(0.0, 1.0), PowerLagRate(0.25, 1.0), PowerLagRate(7.0, 1.0)):
        points = {"hazard": 0, "inv_speed": 0}

        def counted(name, fn):
            def wrapped(a, v):
                points[name] += np.size(a)
                return fn(a, v)

            return wrapped

        hazard = counted("hazard", lambda a, v: B.hazard(a))
        inv_speed = counted("inv_speed", lambda a, v: 1.0 / v)
        lam = malthus_general(hazard, inv_speed, law, kink_ages=B.kinks)
        assert points["hazard"] == points["inv_speed"] > 0
        assert abs(lam - malthus_with_variability(B, law)) <= 1e-10


def test_solvers_use_no_adaptive_quadrature(tg, monkeypatch):
    # one quadrature path: every integral against f_B uses the Gauss table
    def refuse(*args, **kwargs):
        raise AssertionError("age_model called numerics.integrate")

    monkeypatch.setattr(age_model, "integrate", refuse)
    law = AlphaFamily(tg, 0.5).law()
    B = PowerLagRate(0.5, 1.0)
    malthus_reference(B, 1.0)
    for rate in (B, ConstantRate(1.0), witness_rate()):
        malthus_with_variability(rate, law)
    malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, law, kink_ages=B.kinks)
    eigen_pair(B, law, np.linspace(0.0, 4.0, 9), np.linspace(0.1, 1.9, 7))
    dlambda_dalpha(B, AlphaFamily(tg, 0.5))
    d2lambda_at_zero(B, tg)


def test_general_solver_non_constant_inverse_speed():
    # inv_speed = 1/(v (1 + a)) accumulates to ln(1 + a)/v, so the resolvent
    # is 2 sum_v p_v int f_B(a) (1 + a)^(-lam/v) da; 1/v alone would be
    # integrated exactly by any rule
    B = PowerLagRate(2.0, 1.0)

    def H(lam):
        total = 0.0
        for v, p in TWOPOINT.atoms:
            def g(a):
                return (1.0 + a) ** (-lam / v) * B.density(a)

            for lo, hi in ((1.0, 3.0), (3.0, math.inf)):
                total += p * quad(g, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        return 2.0 * total

    oracle = brentq(lambda lam: H(lam) - 1.0, 0.01, 5.0, xtol=1e-14)
    lam = malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / (v * (1.0 + a)), TWOPOINT, kink_ages=B.kinks)
    assert abs(lam - oracle) <= 1e-10


def test_constant_time_hazard_invariance(tg):
    # division hazard c per unit *time* gives exponent c for any rate law
    c = 0.8
    for rho in (tg, UniformLaw(0.5, 1.5), TWOPOINT):
        lam = malthus_general(lambda a, v: c / v, lambda a, v: 1.0 / v, rho)
        assert abs(lam - c) < 1e-9


def test_witness_matches_independent_oracle():
    # grid-tabulated hazard of the density 2a on [0,1]; oracle values from
    # exact integrals of that density (agreement limited by tabulation)
    W = witness_rate()
    assert abs(malthus_reference(W, 1.0) - 1.0915788744964903) < 1e-4
    assert abs(malthus_with_variability(W, TWOPOINT) - 0.9135442159670786) < 1e-4
    assert abs(malthus_with_variability(W, UniformLaw(0.9, 1.1)) - 1.089337825158778) < 1e-4


def test_sign_condition_classification(tg):
    assert sign_condition(ConstantRate(1.0)) == "decreasing_fB"
    # classification compares tabulated chord slopes against the squared
    # interpolant, so the grid's relative spacing must stay below the
    # margin-to-slope ratio (about 1 - a here); stop well before the blow-up
    a = np.unique(1.0 - np.geomspace(1.0, 1e-2, 2401))
    coarse_witness = TabulatedRate(a, 2.0 * a / (1.0 - a * a))
    assert sign_condition(coarse_witness) == "increasing_fB"
    assert sign_condition(PowerLagRate(2.0, 1.0)) == "mixed"


# --- perturbation in the contraction amount ------------------------------------


def test_second_derivative_closed_form():
    d2 = d2lambda_at_zero(ConstantRate(1.0), TWOPOINT)
    assert abs(d2 + 0.25) < 1e-6  # -sigma^2 b / vbar with sigma^2 = 1/4
    d2b = d2lambda_at_zero(ConstantRate(2.0), DiscreteMixture([(0.8, 0.5), (1.2, 0.5)]))
    assert abs(d2b + 0.04 * 2.0) < 1e-6
    # vbar = 2, sigma^2 = 1: lambda(alpha) = 1.5 * 2 * sqrt(1 - alpha^2 / 4)
    d2c = d2lambda_at_zero(ConstantRate(1.5), DiscreteMixture([(1.0, 0.5), (3.0, 0.5)]))
    assert abs(d2c + 0.75) < 1e-6


def test_quadratic_residual_shrinks_quartically(tg):
    B = ConstantRate(1.0)
    lam0 = malthus_reference(B, 1.0)
    d2 = d2lambda_at_zero(B, tg)
    prev = None
    for alpha in (0.2, 0.1, 0.05, 0.025):
        lam = malthus_with_variability(B, AlphaFamily(tg, alpha).law())
        r = abs(lam - lam0 - 0.5 * d2 * alpha * alpha) / alpha**2
        if prev is not None:
            assert r < prev
        prev = r
    assert prev < 2e-5  # |residual| ~ alpha^4 by symmetry of the window


def test_dlambda_matches_central_difference(tg):
    cases = [
        (ConstantRate(1.0), tg, 0.5),
        (PowerLagRate(2.0, 1.0), tg, 0.3),
        (ConstantRate(1.0), TWOPOINT, 0.8),
    ]
    h = 1e-3
    for B, base, alpha in cases:
        d = dlambda_dalpha(B, AlphaFamily(base, alpha))
        lp = malthus_with_variability(B, AlphaFamily(base, alpha + h).law())
        lm = malthus_with_variability(B, AlphaFamily(base, alpha - h).law())
        assert abs(d - (lp - lm) / (2.0 * h)) < 1e-5


def test_dlambda_vanishes_as_alpha_to_zero(tg):
    d = dlambda_dalpha(ConstantRate(1.0), AlphaFamily(tg, 1e-4))
    assert abs(d) < 1e-3


# --- eigenvectors ---------------------------------------------------------------


_EIG_B = PowerLagRate(2.0, 1.0)
_EIG_TG = TruncatedGaussian(0.0, 2.0, 0.7)


def test_eigen_normalizations():
    # the a-grid must resolve the exp(-lam a/v) layer of the slowest v
    # node, so it refines geometrically toward 0
    cut = _EIG_B.cutoff(1e-13)
    a = np.concatenate([[0.0], np.geomspace(1e-4, cut, 900)])
    v = np.linspace(1e-3, 2.0 - 1e-3, 300)
    pair = eigen_pair(_EIG_B, _EIG_TG, a, v)
    da = np.gradient(pair.a_nodes)
    dv = np.gradient(pair.v_nodes)
    assert abs(float(da @ pair.N @ dv) - 1.0) < 5e-3
    assert abs(float(da @ (pair.N * pair.phi) @ dv) - 1.0) < 5e-3
    assert np.all(pair.N >= 0.0) and np.all(pair.phi >= 0.0)


def test_eigen_newborn_weight_is_half_kappa_prime():
    # integrating the adjoint eigenvector over newborn states gives kappa'/2,
    # the balance that makes the renewal consistent with binary division
    a = np.linspace(0.0, _EIG_B.cutoff(1e-8), 200)
    v = np.linspace(1e-3, 2.0 - 1e-3, 240)
    pair = eigen_pair(_EIG_B, _EIG_TG, a, v)
    psi = np.trapezoid(pair.phi[0, :] * _EIG_TG.density(v), v)
    assert abs(psi / (0.5 * pair.kappa_prime) - 1.0) < 1e-3


def test_eigen_adjoint_ode_residual_shrinks():
    # v dphi/da + v B(a) (kappa' - phi(a,v)) = lambda phi(a,v); the grid
    # stops at survival 1e-8 so the tail truncated past the hazard cutoff
    # (survival 1e-13) stays negligible relative to phi's denominator
    def residual(n_a):
        a = np.linspace(0.0, _EIG_B.cutoff(1e-8), n_a)
        v = np.linspace(0.3, 1.9, 64)
        pair = eigen_pair(_EIG_B, _EIG_TG, a, v)
        dphi = np.gradient(pair.phi, a, axis=0, edge_order=2)
        haz = _EIG_B.hazard(a)[:, None]
        res = v[None, :] * dphi + v[None, :] * haz * (pair.kappa_prime - pair.phi) - pair.lam * pair.phi
        scale = np.abs(pair.lam * pair.phi).max()
        return np.abs(res[2:-2, :]).max() / scale

    r_coarse = residual(300)
    r_fine = residual(600)
    assert r_fine < r_coarse / 2.5
    assert r_fine < 1e-3


def test_eigen_rejects_degenerate_laws():
    B = PowerLagRate(2.0, 1.0)
    a = np.linspace(0.0, 5.0, 50)
    with pytest.raises(ValueError, match="density"):
        eigen_pair(B, Dirac(1.0), a, np.linspace(0.5, 1.5, 20))
    with pytest.raises(ValueError, match="density"):
        eigen_pair(B, TWOPOINT, a, np.linspace(0.5, 1.5, 20))


@pytest.mark.parametrize(
    "B, a_nodes, v_nodes, a_idx, v_idx",
    [
        (PowerLagRate(0.5, 1.0), np.linspace(0.0, 4.0, 9), np.linspace(0.1, 1.9, 7), range(9), range(7)),
        # the README call, including its last age node
        (PowerLagRate(2.0, 1.0), np.linspace(0.0, 6.0, 400), np.linspace(1e-3, 1.999, 200),
         (0, 66, 200, 333, 398, 399), (0, 1, 100, 199)),
    ],
    ids=["beta0.5", "readme"],
)
def test_eigen_phi_matches_adaptive_quadrature(B, a_nodes, v_nodes, a_idx, v_idx):
    # phi = kappa' G / S with G(a, v) / S(a) =
    # int_0^inf exp(-lam t / v) B(a + t) exp(Lambda(a) - Lambda(a + t)) dt,
    # the onset substituted to an interval end (QUADPACK oracle)
    pair = eigen_pair(B, _EIG_TG, a_nodes, v_nodes)
    for i in a_idx:
        a = a_nodes[i]
        lo = max(0.0, B.lag - a)
        for j in v_idx:
            def g(t):
                decay = pair.lam * t / v_nodes[j] + B.cumulative(a + t) - B.cumulative(a)
                return math.exp(-decay) * B.hazard(a + t)

            pieces = ((lo, lo + 1.0), (lo + 1.0, math.inf))
            tail = sum(quad(g, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0] for x0, x1 in pieces)
            assert abs(pair.phi[i, j] / pair.kappa_prime / tail - 1.0) <= 1e-10, (a, v_nodes[j])


def test_eigen_rejects_malformed_grids():
    a = np.linspace(0.0, 4.0, 9)
    v = np.linspace(0.1, 1.9, 7)
    bad = [
        (np.stack([a, a]), v),  # not 1-d
        (a[:1], v),  # fewer than two nodes
        (a, v[:1]),
        (a[::-1], v),  # decreasing
        (np.append(a, np.nan), v),
        (np.append(a, np.inf), v),
        (a - 1.0, v),  # negative
        (a, np.append(v, np.nan)),
        (a, np.append(v, np.inf)),
        (a, np.append(v, 0.0)),
        (a, -v),
    ]
    for a_nodes, v_nodes in bad:
        with pytest.raises(ValueError):
            eigen_pair(_EIG_B, _EIG_TG, a_nodes, v_nodes)


# --- curve table ----------------------------------------------------------------


def test_cv_curve_has_anchor_and_is_sorted(tg):
    rows = cv_curve(PowerLagRate(1.0, 1.0), tg, [0.9, 0.3, 0.6])
    assert rows[0].alpha == 0.0 and rows[0].cv == 0.0
    assert [r.status for r in rows] == ["ok"] * 4
    cvs = [r.cv for r in rows]
    assert cvs == sorted(cvs)
    lams = [r.lam for r in rows]
    assert all(l2 < l1 for l1, l2 in zip(lams, lams[1:]))


def test_cv_curve_records_row_failures(tg):
    rows = cv_curve(ConstantRate(1.0), tg, [0.5, 1.5, 7.0])
    bad = [r for r in rows if r.status != "ok"]
    assert [r.alpha for r in bad] == [1.5, 7.0]
    for r in bad:
        assert math.isnan(r.lam) and r.status.startswith("error: ValueError:")


def test_cv_curve_rejects_degenerate_baseline():
    with pytest.raises(ValueError):
        cv_curve(ConstantRate(1.0), Dirac(1.0), [0.5])
