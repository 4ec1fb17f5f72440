"""Division-rate laws, growth-exponent solvers, eigenvectors, perturbation."""
import dataclasses
import math
import re
import tracemalloc

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
from malthus.numerics import TAIL_EPS, find_root_decreasing

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


@pytest.mark.parametrize("lag", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0, 3.0, 7.0])
def test_power_lag_hazard_is_the_clipped_power(beta, lag):
    # pow is left out up to the lag, where it gives exactly 0; the values
    # are those of the plain clipped power, bit for bit
    B = PowerLagRate(beta, lag)
    a = np.append(np.linspace(lag - 1.0, lag + 2.0, 301), [lag, np.nextafter(lag, -1.0), np.nextafter(lag, 2.0), math.nan])
    ref = np.maximum(a - lag, 0.0) ** beta
    got = B.hazard(a)
    assert got.tobytes() == ref.tobytes()
    assert np.all(got[a <= lag] == 0.0) and math.isnan(got[-1])
    assert B.hazard(a.reshape(5, 61)).tobytes() == ref.tobytes()
    assert B.hazard(a[a > lag]).tobytes() == ref[a > lag].tobytes()
    assert B.hazard(np.empty((0, 3))).shape == (0, 3)
    for x in (lag - 0.5, lag, lag + 0.5, math.nan):
        one = B.hazard(x)
        assert type(one) is np.float64 and one.tobytes() == (np.maximum(np.float64(x) - lag, 0.0) ** beta).tobytes()


@pytest.mark.parametrize("lag", [0.0, 1.0])
def test_power_lag_hazard_at_beta_zero_is_the_onset_step(lag):
    a = np.array([lag - 0.5, lag, lag + 0.5, math.nan])
    assert PowerLagRate(0.0, lag).hazard(a).tobytes() == np.array([0.0, 1.0, 1.0, 0.0]).tobytes()
    one = PowerLagRate(0.0, lag).hazard(lag + 0.5)
    assert isinstance(one, np.ndarray) and one.shape == () and one == 1.0


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


@pytest.mark.parametrize(
    "build, field, value",
    [
        (Dirac, "v_bar", "1"),
        (Dirac, "v_bar", True),
        (lambda v: UniformLaw(v, 1.5), "v_min", "0.5"),
        (lambda v: UniformLaw(0.5, v), "v_max", np.bool_(True)),
        (lambda v: TruncatedGaussian(0.0, v, 0.7), "v_max", None),
        (lambda v: TruncatedGaussian(0.0, 2.0, v), "sigma_eta", "0.7"),
        (lambda v: PowerLagRate(v, 1.0), "beta", "2"),
        (lambda v: PowerLagRate(2.0, v), "lag", True),
        (ConstantRate, "b", True),
        (lambda v: DiscreteMixture([(v, 0.5), (1.5, 0.5)]), "an atom's location", "0.5"),
        (lambda v: DiscreteMixture([(0.5, v), (1.5, 0.5)]), "an atom's weight", False),
    ],
    ids=["v_bar-str", "v_bar-bool", "v_min-str", "v_max-np-bool", "tg-v_max-none", "sigma_eta-str",
         "beta-str", "lag-bool", "b-bool", "atom-str", "weight-bool"],
)
def test_laws_and_rates_reject_a_number_of_another_type_naming_the_field(build, field, value):
    with pytest.raises(TypeError, match=rf"^{re.escape(field)} must be a real number; got {re.escape(repr(value))}$"):
        build(value)


def test_contraction_rejects_bad_alpha(tg):
    for alpha in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            tg.contract(alpha)


@pytest.mark.parametrize("law", [Dirac(1.0), DiscreteMixture([(1.0, 1.0)])], ids=["dirac", "one-atom"])
def test_degenerate_law_has_no_contraction_above_zero(law):
    assert law.contract(0.0) == Dirac(1.0)
    with pytest.raises(ValueError, match="^alpha > 0 requires a non-degenerate baseline$"):
        law.contract(0.5)
    with pytest.raises(ValueError, match="^alpha > 0 requires a non-degenerate baseline$"):
        AlphaFamily(law, 0.5)


def test_alpha_family_names_a_baseline_that_is_no_rate_law(tg):
    with pytest.raises(TypeError, match=r"^baseline must be a rate law; got 1\.0$"):
        AlphaFamily(1.0, 0.5)
    for alpha in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]$"):
            AlphaFamily(tg, alpha)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]$"):
        AlphaFamily(tg, 1.5)


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


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.0, 1.0, 2.0, 3.0, 7.0])
def test_general_solver_resolves_fractional_onset(tg, beta):
    # the (a - lag)^beta onset must be graded toward like 0 is; the two
    # solvers' quadratures differ, and agree to 3.7e-14 at worst (beta = 7)
    B = PowerLagRate(beta, 1.0)
    for alpha in (0.25, 0.5, 1.0):
        law = AlphaFamily(tg, alpha).law()
        lam_gen = malthus_general(lambda a, v: B.hazard(a), lambda a, v: 1.0 / v, law, kink_ages=B.kinks)
        assert abs(lam_gen - malthus_with_variability(B, law)) <= 1e-13, alpha


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
    a, w = age_model._fb_table(B)
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
    pass over the rows: the exponentials, one row per rate node, weighted
    by rho, and by rho / v for the slope, then the rows by w and by w a,
    in a pairwise sum."""
    nodes, weights = law.quadrature()
    a, w = age_model._fb_table(B)
    keep = age_model._kept_rows(w)
    a, w = a[keep], w[keep]
    rate = np.multiply.outer(-1.0 / nodes, a)
    out = []
    for x in lams:
        e = np.exp(rate * x)
        out.append((2.0 * float(np.sum(w * np.einsum("j,ji->i", weights, e))),
                    2.0 * float(np.sum(w * a * np.einsum("j,ji->i", -weights / nodes, e)))))
    return out


def test_resolvent_row_blocks_leave_h_unchanged(tg, monkeypatch):
    # blocks of 1024 // n rows of a law's n rate nodes (73 rows of the 14
    # of this law, 1024 rows of one Dirac node): every table below spans
    # more than four of them
    law = AlphaFamily(tg, 0.5).law()
    cases = [(witness_rate(), law), (PowerLagRate(0.25, 1.0), law), (witness_rate(), Dirac(1.0))]
    lams = [0.0, 0.5, 1.0, 2.0]
    for B, law_ in cases:
        assert age_model._kept_rows(age_model._fb_table(B)[1]).sum() > 4 * 1024 // law_.quadrature()[0].size

    def solves():
        # every caller of the one evaluator, on fresh rates
        H = [[age_model._resolvent_factory(B, law)(x) for x in lams] for B, law in cases]
        roots = [malthus_with_variability(B, law) for B, law in cases[:2]]
        rates = [witness_rate(), PowerLagRate(0.25, 1.0)]
        derivatives = [(dlambda_dalpha(B, AlphaFamily(tg, 0.5)), d2lambda_at_zero(B, tg)) for B in rates]
        pair = eigen_pair(PowerLagRate(0.25, 1.0), law, np.linspace(0.0, 4.0, 9), np.linspace(0.1, 1.9, 7))
        return H, roots + [malthus_reference(witness_rate(), 1.0)], derivatives, (pair.kappa, pair.kappa_prime)

    default = solves()
    for got, (B, law_) in zip(default[0], cases):
        # lambda > 0: the single-pass sums bit for bit; lambda = 0, answered
        # from the weight sums, within 1e-14 of them
        assert got[1:] == blockwise_pair(B, law_, lams[1:])
        for v, ref in zip(got[0], blockwise_pair(B, law_, [0.0])[0]):
            assert abs(v - ref) <= 1e-14 * abs(ref)
    monkeypatch.setattr(age_model, "_BLOCK", 32 * 32)
    assert solves() == default


def test_f_b_table_is_built_once_per_rate(tg, monkeypatch):
    # a curve, lambda''(0) and dlambda/dalpha on one rate: eight solves and
    # two derivatives, which rebuilt the table ten times when each call
    # built its own
    builds = []
    build = age_model._fb_table
    monkeypatch.setattr(age_model, "_fb_table", lambda B, ages=(): builds.append(B) or build(B, ages))
    B = PowerLagRate(2.0, 1.0)
    cv_curve(B, tg, [0.1, 0.3, 0.5, 0.7, 0.9])
    d2lambda_at_zero(B, tg)
    dlambda_dalpha(B, AlphaFamily(tg, 0.5))
    assert builds == [B]


def test_kept_tables_and_ladder_are_read_only(tg):
    B = witness_rate()
    malthus_with_variability(B, tg)
    kept = [*B._fb, B._resolvent_rows, age_model._ladder()]
    assert len(kept) == 4
    for x in kept:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0


@pytest.mark.parametrize("make", [lambda: PowerLagRate(0.25, 1.0), lambda: ConstantRate(1.3), witness_rate],
                         ids=["beta0.25", "const", "witness"])
def test_warm_rate_solves_as_a_fresh_equal_rate(tg, make):
    # the kept table neither changes a value nor the rate's identity
    law = AlphaFamily(tg, 0.5).law()
    warm = make()
    d2lambda_at_zero(warm, tg)
    dlambda_dalpha(warm, AlphaFamily(tg, 0.25))
    fresh = make()
    assert warm == fresh and hash(warm) == hash(fresh)
    assert malthus_with_variability(warm, law) == malthus_with_variability(fresh, law)
    assert malthus_reference(warm, 0.8) == malthus_reference(make(), 0.8)
    assert dlambda_dalpha(warm, AlphaFamily(tg, 0.5)) == dlambda_dalpha(make(), AlphaFamily(tg, 0.5))


def test_one_contraction_per_block_sums_as_one_column_at_a_time(tg):
    # the witness under the 64-node baseline rule: 5939 x 64 elements, six
    # blocks of 1024 rows
    B = witness_rate()
    nodes, weights = tg.quadrature()
    a, _ = B._fb
    rows = B._resolvent_rows
    assert nodes.size == 64 and a.size * nodes.size > 2 * age_model._BLOCK
    cols, col_w = -1.0 / nodes, np.asarray((weights, -weights / nodes))
    table = np.multiply.outer(cols, a)
    step = age_model._BLOCK // nodes.size
    sums_of = age_model._exp_sums(a, cols, rows, col_w)
    # one row's weight alone reads that row's column sums bit for bit,
    # which a sum over all rows would round away
    picked = np.unique(np.r_[0, step - 1, step, np.linspace(0, a.size - 1, 20).astype(int), a.size - 1])
    for lam in (0.3, 1.0, 2.5):
        per_row = np.empty(rows.shape)
        for i in range(0, a.size, step):
            part = np.exp(table[:, i : i + step] * lam)
            for out, w in zip(per_row, col_w):
                np.einsum("j,ji->i", w, part, out=out[i : i + step])
        assert sums_of(lam) == tuple((per_row * rows).sum(axis=1).tolist())
        for r in picked:
            one = np.zeros(rows.shape)
            one[:, r] = 1.0
            assert age_model._exp_sums(a, cols, one, col_w)(lam) == tuple(per_row[:, r].tolist())


def every_panel_sixteen_nodes(B, ages=()):
    """The f_B table with the 16-point rule on every panel, kink cells
    included: the panels and weights of :func:`age_model._fb_table`."""
    graded, eps = {0.0, float(B.support_start)}, TAIL_EPS
    if len(ages):
        graded.add(float(ages[-1]))
        eps *= float(B.survival(ages[-1]))
    edges = age_model._panel_edges(B.cutoff(eps), graded, (*B.kinks, *ages))
    a, g = (x.ravel() for x in age_model._gl_on(edges[:-1, None], edges[1:, None]))
    w = g * B.density(a)
    if B.atom_mass > 0.0:
        a, w = np.append(a, B.support_end), np.append(w, B.atom_mass)
    return a, w


def tabulated_power_lag(n):
    # (a - 1)^2 past a lag of 1 at n equally spaced ages on [0, 8]; survival
    # e^-114 at the end
    a = np.linspace(0.0, 8.0, n)
    return TabulatedRate(a, np.maximum(a - 1.0, 0.0) ** 2)


def tabulated_sine():
    a = np.linspace(0.0, 40.0, 120)
    return TabulatedRate(a, 1.0 + 0.5 * np.sin(3.0 * a))


def tabulated_root():
    a = np.append(0.0, np.geomspace(1e-6, 4.0, 60))
    return TabulatedRate(a, 3.0 * np.sqrt(a))


@pytest.mark.parametrize(
    "make, ulps, rel",
    [(witness_rate, 8, 0.0),
     *((lambda n=n: tabulated_power_lag(n), 0, 1e-15) for n in (5, 10, 20, 50, 200, 2000)),
     (tabulated_sine, 0, 1e-15), (tabulated_root, 0, 1e-15)],
    ids=["witness", *(f"power-lag{n}" for n in (5, 10, 20, 50, 200, 2000)), "sine", "root"],
)
def test_short_rules_on_kink_cells_keep_lambda(tg, monkeypatch, make, ulps, rel):
    # 8 or 4 Gauss nodes on the cells that a tabulated hazard's kinks cut
    # small, against 16 on every panel; measured: <= 2 ulps, <= 4.4e-16
    laws = [Dirac(1.0), *(AlphaFamily(tg, alpha).law() for alpha in (0.2, 0.5, 0.9, 1.0))]
    B = make()
    a, w = age_model._fb_table(B)
    assert np.all(np.diff(a) > 0.0) and a.size < every_panel_sixteen_nodes(B)[0].size
    short = [malthus_with_variability(make(), law) for law in laws]
    monkeypatch.setattr(age_model, "_fb_table", every_panel_sixteen_nodes)
    for law, got in zip(laws, short):
        ref = malthus_with_variability(make(), law)
        assert abs(got - ref) <= max(ulps * math.ulp(ref), rel * ref), law


@pytest.mark.parametrize("B", [*(PowerLagRate(beta, lag) for beta in (0.0, 0.25, 2.0, 7.0) for lag in (0.0, 1.0)),
                               ConstantRate(1.3)], ids=repr)
def test_graded_panels_keep_sixteen_nodes(B):
    # no kink cuts a graded panel of a closed-form rate: its table, and the
    # one eigen_pair cuts at grid ages, are unchanged bit for bit
    for ages in ((), np.linspace(0.0, 2.0, 41)):
        for got, ref in zip(age_model._fb_table(B, ages), every_panel_sixteen_nodes(B, ages)):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("lag", [0.0, 1.0])
@pytest.mark.parametrize("beta", [15.0, 50.0, 200.0])
def test_steep_power_hazard_matches_quadpack(beta, lag):
    # f_B rises and falls within ~1/beta of its mode, inside one graded
    # panel, and the table halves panels until it holds the law's mass.
    # The oracle runs in u = int_0^a B, where f_B da = exp(-u) du has no
    # spike; measured at the parent: 1.2e-10, 4e-5 and "no positive root"
    k = 1.0 / (beta + 1.0)

    def H(lam):
        def g(u):
            return math.exp(-u - lam * (lag + ((beta + 1.0) * u) ** k))

        return 2.0 * sum(quad(g, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for lo, hi in ((0.0, 1.0), (1.0, math.inf)))

    oracle = brentq(lambda lam: H(lam) - 1.0, 0.01, 5.0, xtol=1e-14)
    B = PowerLagRate(beta, lag)
    a, w = age_model._fb_table(B)
    assert np.all(np.diff(a) > 0.0)
    assert abs(w.sum() - (1.0 - B.survival(B.cutoff(TAIL_EPS)))) <= 1e-12
    assert abs(malthus_reference(B, 1.0) - oracle) <= 1e-10


def test_hazard_too_steep_to_tabulate_raises_naming_the_rate():
    # f_B within ~3e-14 of age 1: halving a panel 40 times cannot reach it
    B = PowerLagRate(1e15, 0.0)
    with pytest.raises(ValueError, match=re.escape(repr(B))):
        malthus_reference(B, 1.0)


@pytest.mark.parametrize("lag", [0.0, 1.0])
def test_hazard_whose_cutoff_rounds_to_the_onset_raises_naming_the_rate(lag):
    # ((beta + 1) ln(1/eps))^(1/(beta + 1)) rounds to 1: S is still 1 at the
    # cutoff, and the table would hold no mass at all
    B = PowerLagRate(1e300, lag)
    assert B.cutoff(TAIL_EPS) == lag + 1.0 and B.survival(B.cutoff(TAIL_EPS)) == 1.0
    with pytest.raises(ValueError, match=re.escape(repr(B))):
        malthus_reference(B, 1.0)


@pytest.mark.parametrize("n", [5, 50, 2000])
def test_tables_cut_at_grid_ages_keep_sixteen_nodes(n):
    B = tabulated_power_lag(n)
    for ages in (np.linspace(0.0, 4.0, 41), np.linspace(0.0, 6.0, 400)):
        for got, ref in zip(age_model._fb_table(B, ages), every_panel_sixteen_nodes(B, ages)):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_a, n_v", [(41, 39), (400, 200)])
def test_eigen_pair_matches_sixteen_nodes_everywhere(monkeypatch, n_a, n_v):
    # the README's age and rate ranges on a tabulated power-lag: only lambda,
    # from the rate's table, moves; measured: N and phi within 1.6e-15 and
    # 2e-14 relative
    law = AlphaFamily(_EIG_TG, 0.5).law()
    a_nodes, v_nodes = np.linspace(0.0, 6.0, n_a), np.linspace(1e-3, 1.999, n_v)
    short = eigen_pair(tabulated_power_lag(50), law, a_nodes, v_nodes)
    monkeypatch.setattr(age_model, "_fb_table", every_panel_sixteen_nodes)
    ref = eigen_pair(tabulated_power_lag(50), law, a_nodes, v_nodes)
    assert abs(short.lam - ref.lam) <= 8 * math.ulp(ref.lam)
    for got, want in ((short.N, ref.N), (short.phi, ref.phi)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_eigen_phi_of_a_tabulated_rate_matches_adaptive_quadrature():
    # at v = 1e-3 each grid age starts a layer exp(-lam (s - a) / v) some
    # 2e-3 wide, cut by the hazard's kinks; 4 Gauss nodes on the kink cells
    # there put these rows 2.9e-9 to 1.2e-6 off, 16 nodes 7.6e-15 to 1e-10
    B = tabulated_power_lag(50)
    a_nodes, v_nodes = np.linspace(0.0, 6.0, 41), np.linspace(1e-3, 1.999, 39)
    pair = eigen_pair(B, AlphaFamily(_EIG_TG, 0.5).law(), a_nodes, v_nodes)
    for i in (13, 15, 27, 39):
        a = a_nodes[i]
        cuts = [0.0, *(k - a for k in B.ages if k > a)]
        for j in (0, 1, 20, 38):
            def g(t):
                decay = pair.lam * t / v_nodes[j] + B.cumulative(a + t) - B.cumulative(a)
                return math.exp(-decay) * B.hazard(a + t)

            tail = sum(quad(g, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0] for x0, x1 in zip(cuts, cuts[1:]))
            assert abs(pair.phi[i, j] / pair.kappa_prime / tail - 1.0) <= 1e-9, (a, v_nodes[j])


def test_witness_solve_peak_memory(tg):
    # the table and its exponents at 5 939 kept rows: 3.8 MiB traced, 11.4
    # with 16 Gauss nodes on every kink cell (20 203 kept rows)
    B, law = witness_rate(), AlphaFamily(tg, 0.5).law()
    tracemalloc.start()
    try:
        malthus_with_variability(B, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


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


class CompositeRule:
    """A window law's density on ``panels`` equal panels of ``n`` Gauss
    nodes each: the reference for the law's own rule.  One rule of
    hundreds of nodes is a poorer one: it integrates a narrow density only
    to ~1e-14 (2.7e-14 at 400 nodes for sd 1/20 of the half-window)."""

    def __init__(self, law, panels: int, n: int):
        self.support = law.support
        edges = np.linspace(law.v_min, law.v_max, panels + 1)
        x, w = (z.ravel() for z in age_model._gl_on(edges[:-1, None], edges[1:, None], n))
        self.rule = x, w * law.density(x)

    def quadrature(self):
        return self.rule


@pytest.mark.parametrize("baseline", [TruncatedGaussian(0.0, 2.0, 0.7), UniformLaw(0.0, 2.0)], ids=["tg", "uniform"])
def test_rate_rule_matches_a_200_node_rule(baseline):
    # the law's own rule of 12 to 64 nodes against 10 panels of 20 along
    # the contraction family; measured at most 3.7e-15 (malthus_general
    # 3.1e-15), and 5.8e-15 from the former 64-node rule
    rates = [*(PowerLagRate(beta, 1.0) for beta in (0.0, 0.25, 1.0, 2.0, 7.0)), PowerLagRate(0.5, 0.0),
             ConstantRate(0.3), ConstantRate(5.0), witness_rate()]
    for alpha in (0.05, 0.2, 0.4, 0.55, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97):
        law = baseline.contract(alpha)
        ref = CompositeRule(law, 10, 20)
        for B in rates:
            lam = malthus_with_variability(B, law)
            assert abs(lam / malthus_with_variability(B, ref) - 1.0) <= 1e-13, (alpha, B)
        if alpha in (0.2, 0.55, 0.9):
            for B in rates[:6]:
                hazard, inv_speed = (lambda a, v: B.hazard(a)), (lambda a, v: np.full_like(a, 1.0 / v))
                lam = malthus_general(hazard, inv_speed, law, kink_ages=B.kinks)
                ref_lam = malthus_general(hazard, inv_speed, ref, kink_ages=B.kinks)
                assert abs(lam / ref_lam - 1.0) <= 1e-13, (alpha, B)


@pytest.mark.parametrize("sigma, n", [(0.1, 27), (0.05, 39), (0.025, 39), (0.01, 39)])
def test_narrow_truncated_gaussian_is_resolved(sigma, n):
    # measured 3.3e-15, 2.7e-15 and 4.7e-15 at sd 0.05 to 0.01; a 64-node
    # rule on the whole window read 3.1e-15, 5.0e-9 and 11%.  The width
    # term asks 27 nodes at sd 0.1 (s = 0.2); below, the rule cuts the
    # window to the mean +- 8.5 sd and takes 39 nodes there
    law, B = TruncatedGaussian(0.5, 1.5, sigma), PowerLagRate(2.0, 1.0)
    ref = malthus_with_variability(B, CompositeRule(law, 16, 25))
    assert abs(malthus_with_variability(B, law) / ref - 1.0) <= 1e-13
    nodes, weights = law.quadrature()
    assert nodes.size == n and abs(weights.sum() - 1.0) <= 1e-14  # measured 2.0e-15
    assert 1.0 - 8.5 * sigma < nodes[0] < nodes[-1] < 1.0 + 8.5 * sigma


@pytest.mark.parametrize(
    "law",
    [*(TruncatedGaussian(0.0, 2.0, 0.7).contract(alpha) for alpha in (1e-3, 0.3, 1.0)), TruncatedGaussian(0.0, 2.0, 0.05)],
    ids=["alpha1e-3", "alpha0.3", "alpha1", "cut"],
)
def test_gaussian_rule_weighs_its_nodes_by_the_density(law, monkeypatch):
    # every node lies inside the window, so the density weighs it unmasked
    # as masked, bit for bit; the last law's rule is cut to 1 +- 8.5 sd
    rules = []
    rule = age_model._window_rule
    monkeypatch.setattr(age_model, "_window_rule", lambda *args: rules.append(rule(*args)) or rules[-1])
    nodes, weights = law.quadrature()
    [(x, w)] = rules
    assert nodes.tobytes() == x.tobytes() and weights.tobytes() == (w * law.density(x)).tobytes()
    assert law.v_min <= nodes[0] and nodes[-1] <= law.v_max
    if law.sigma_eta == 0.05:
        assert 1.0 - 8.5 * law.sigma_eta < nodes[0] < nodes[-1] < 1.0 + 8.5 * law.sigma_eta


def test_truncated_gaussian_rejects_an_sd_below_the_means_resolution():
    # its rule's window, the mean +- 8.5 sd, would round to the mean alone
    with pytest.raises(ValueError, match="resolution of the mean"):
        TruncatedGaussian(0.5, 1.5, 1e-20)
    assert TruncatedGaussian(0.5, 1.5, 1e-15).quadrature()[0].size == 39


@pytest.mark.parametrize(
    "law",
    [TruncatedGaussian(0.0, 2.0, 0.7), TruncatedGaussian(0.0, 3.0, 0.2), UniformLaw(0.0, 2.0), UniformLaw(0.0, 0.5)],
    ids=["tg", "tg-narrow", "uniform", "uniform-short"],
)
def test_window_touching_zero_keeps_sixty_four_nodes(law):
    # no Bernstein ellipse avoids the pole at v = 0: the rule is the
    # 64-node rule on the whole window, bit for bit
    x, w = age_model._gl_on(law.v_min, law.v_max, 64)
    w = w * law.density(x) if isinstance(law, TruncatedGaussian) else w / (law.v_max - law.v_min)
    nodes, weights = law.quadrature()
    assert nodes.tobytes() == x.tobytes() and weights.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "alpha, n_gauss, n_uniform",
    [(0.05, 13, 12), (0.4, 13, 12), (0.5, 14, 14), (0.55, 15, 15), (0.7, 21, 21), (0.8, 27, 27),
     (0.85, 31, 31), (0.9, 39, 39), (0.95, 56, 56), (0.97, 64, 64), (1.0, 64, 64)],
)
def test_rate_rule_size_along_the_contraction(tg, alpha, n_gauss, n_uniform):
    # the window [1 - alpha, 1 + alpha]: the pole term ln(1/eps) /
    # (4 atanh sqrt((1 - alpha) / (1 + alpha))), at least 12 nodes and at
    # most 64; the Gaussian's width term (sd 0.7 alpha) asks 13
    assert tg.contract(alpha).quadrature()[0].size == n_gauss
    assert UniformLaw(0.0, 2.0).contract(alpha).quadrature()[0].size == n_uniform


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


@pytest.mark.parametrize(
    "hazard, inv_speed, match",
    [(lambda a, v: a - 0.5, lambda a, v: 1.0 / v, "hazard must be finite and non-negative: -0.49"),
     (lambda a, v: np.where(a > 2.0, np.nan, 1.0), lambda a, v: 1.0 / v, "hazard .*: nan at age 2.0"),
     (lambda a, v: np.where(v > 1.2, -1.0, 1.0) + 0.0 * a, lambda a, v: 1.0 / v, "-1.0 at age .* v = {v}$"),
     (lambda a, v: np.where(a > 0.7, np.inf, 1.0), lambda a, v: 1.0 / v, "hazard .*: inf at age 0.75"),
     (lambda a, v: np.ones_like(a), lambda a, v: np.where(a < 0.5, -1.0, 1.0 / v),
      "inv_speed must be finite and positive: -1.0 at age 5.2"),
     (lambda a, v: np.ones_like(a), lambda a, v: np.where(a > 0.5, np.inf, 1.0 / v), "inv_speed .*: inf at age 0.56")],
    ids=["mixed-sign", "nan", "negative-on-one-rate-node", "infinite", "negative-inv-speed", "infinite-inv-speed"],
)
def test_general_solver_rejects_invalid_hazard_and_speed(tg, hazard, inv_speed, match):
    # the error names the quantity, the rate node and the age, before any
    # root solve or the search for the tail; {v} is the first rate node of
    # the law's rule above 1.2, the first node where the hazard is negative
    law = AlphaFamily(tg, 0.5).law()
    nodes = law.quadrature()[0]
    with pytest.raises(ValueError, match=match.format(v=re.escape(repr(float(nodes[nodes > 1.2][0]))))):
        malthus_general(hazard, inv_speed, law)


def test_general_solver_accepts_a_hazard_infinite_only_at_zero():
    # B = 1/sqrt(a), every cell at rate 1: u = sqrt(a) turns the resolvent
    # into 4 int exp(-2u - lam u^2) du; no Gauss node sits at a = 0
    def H(lam):
        return 4.0 * quad(lambda u: math.exp(-2.0 * u - lam * u * u), 0.0, math.inf, epsabs=1e-14, epsrel=1e-14)[0]

    oracle = brentq(lambda lam: H(lam) - 1.0, 0.1, 50.0, xtol=1e-14)
    lam = malthus_general(lambda a, v: 1.0 / np.sqrt(a), lambda a, v: 1.0 / v, Dirac(1.0))
    assert abs(lam / oracle - 1.0) <= 2e-5  # measured 5.3e-6: the a^(-1/2) onset


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
    assert d2lambda_at_zero(PowerLagRate(2.0, 1.0), Dirac(1.0)) == 0.0  # sigma^2 = 0


def test_dlambda_takes_only_an_alpha_family():
    with pytest.raises(TypeError, match="^fam must be an AlphaFamily$"):
        dlambda_dalpha(PowerLagRate(1.0, 1.0), 0.5)


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


@pytest.mark.parametrize("b, v_bar, c, alpha", [(1.0, 1.0, 0.5, 0.8), (2.0, 0.7, 0.3, 0.5), (0.6, 1.5, 0.9, 0.3),
                                                 (1.3, 1.0, 0.5, 1.0)])
def test_dlambda_matches_the_two_point_closed_form(b, v_bar, c, alpha):
    # constant rate b, rates v_bar (1 +- alpha c): lambda(alpha) = b v_bar
    # sqrt(1 - alpha^2 c^2), so dlambda/dalpha = -b v_bar alpha c^2 / sqrt(...)
    base = DiscreteMixture([(v_bar * (1.0 - c), 0.5), (v_bar * (1.0 + c), 0.5)])
    exact = -b * v_bar * alpha * c * c / math.sqrt(1.0 - (alpha * c) ** 2)
    assert abs(dlambda_dalpha(ConstantRate(b), AlphaFamily(base, alpha)) / exact - 1.0) <= 2e-14


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


@pytest.mark.parametrize("b, v1, v2", [(1.0, 0.4, 1.6), (2.5, 0.1, 1.9), (0.5, 0.8, 1.2), (1.3, 0.5, 3.0)])
def test_eigen_normalizations_match_the_uniform_closed_form(b, v1, v2):
    # constant rate b, rates uniform on [v1, v2]: H(lam) = (2 / D) int bv /
    # (bv + lam) dv in closed form, D = v2 - v1; kappa = 2 lam and
    # kappa' = -1 / (lam H'(lam)) at its root
    D = v2 - v1

    def H(lam):
        return 2.0 / D * (D - lam / b * math.log((b * v2 + lam) / (b * v1 + lam)))

    def slope(lam):
        def F(v):
            return math.log(b * v + lam) + lam / (b * v + lam)

        return -2.0 / (b * D) * (F(v2) - F(v1))

    lam = brentq(lambda x: H(x) - 1.0, 0.0, b * v2, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    pair = eigen_pair(ConstantRate(b), UniformLaw(v1, v2), np.linspace(0.0, 4.0, 9), np.linspace(v1, v2, 5))
    assert abs(pair.kappa / (2.0 * lam) - 1.0) <= 1e-14
    assert abs(pair.kappa_prime / (-1.0 / (lam * slope(lam))) - 1.0) <= 1e-14


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


def test_cv_curve_alpha_zero_is_its_anchor(tg):
    rows = cv_curve(PowerLagRate(2.0, 1.0), tg, [0.0, 0.5])
    assert [(r.alpha, r.status) for r in rows] == [(0.0, "ok"), (0.5, "ok")]


def test_cv_curve_puts_a_nan_alpha_last(tg):
    # a NaN CV compares false with every CV, so a plain sort by CV leaves it in place
    rows = cv_curve(PowerLagRate(2.0, 1.0), tg, [0.5, math.nan, 0.2])
    assert [r.alpha for r in rows][:3] == [0.0, 0.2, 0.5] and math.isnan(rows[3].alpha)
    assert [r.status for r in rows[:3]] == ["ok"] * 3
    assert rows[3].status.startswith("error: ValueError")


def test_cv_curve_rejects_degenerate_baseline():
    with pytest.raises(ValueError, match="^alpha > 0 requires a non-degenerate baseline$"):
        cv_curve(ConstantRate(1.0), Dirac(1.0), [0.5])


def test_cv_curve_names_a_baseline_that_is_no_rate_law():
    with pytest.raises(TypeError, match=r"^baseline must be a rate law; got 1\.0$"):
        cv_curve(ConstantRate(1.0), 1.0, [0.5])
