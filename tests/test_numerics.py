"""Root solving and the counter-based random stream."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import general_resolvent, witness_rate
from malthus import numerics
from malthus.age_model import (
    AlphaFamily,
    ConstantRate,
    Dirac,
    DiscreteMixture,
    PowerLagRate,
    TruncatedGaussian,
    _resolvent_factory,
)
from malthus.numerics import (
    DEFAULT_ROOT_TOL,
    NonConvergenceError,
    RngStream,
    Tolerance,
    cell_base,
    child_key,
    find_root_decreasing,
    open_uniforms_at,
    uniforms_at,
)


def exp_pair(c=2.0, d=1.0):
    """x -> (c e^{-d x}, its slope)."""
    return lambda x: (c * math.exp(-d * x), -c * d * math.exp(-d * x))


def test_root_exponential():
    lam = find_root_decreasing(exp_pair(), 1.0)
    assert abs(lam - math.log(2.0)) < 1e-12


def test_root_certificate_brackets_answer():
    H = lambda l: 2.0 / (1.0 + l) ** 2
    lam = find_root_decreasing(lambda l: (H(l), -4.0 / (1.0 + l) ** 3), 1.0)
    assert abs(lam - (math.sqrt(2.0) - 1.0)) < 1e-12
    eps = 1e-6
    assert H(lam - eps) > 1.0 > H(lam + eps)


def test_root_releases_the_resolvent():
    # a resolvent may hold large arrays; nothing may keep it alive after the
    # solve, not even until the next cyclic garbage collection
    class Resolvent:
        def __call__(self, lam):
            return 2.0 * math.exp(-lam), -2.0 * math.exp(-lam)

    h = Resolvent()
    ref = weakref.ref(h)
    gc.disable()
    try:
        find_root_decreasing(h, 1.0)
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_root_never_crossing_raises():
    with pytest.raises(NonConvergenceError) as info:
        find_root_decreasing(lambda l: (1.5 + 1.0 / (1.0 + l), -1.0 / ((1.0 + l) * (1.0 + l))), 1.0)
    assert math.isfinite(info.value.best)


# h(x) = target with h > 0, decreasing and log-convex, and the exact root
CLOSED_FORMS = [
    (exp_pair(), 1.0, math.log(2.0)),
    (lambda x: (2.0 / (1.0 + x) ** 2, -4.0 / (1.0 + x) ** 3), 1.0, math.sqrt(2.0) - 1.0),
    # e^{-x} + e^{-2x} = 1 at e^{-x} = (sqrt 5 - 1) / 2
    (lambda x: (math.exp(-x) + math.exp(-2.0 * x), -math.exp(-x) - 2.0 * math.exp(-2.0 * x)), 1.0,
     math.log((1.0 + math.sqrt(5.0)) / 2.0)),
    # the constant-rate resolvent of the two-point law (0.5, 1.5), b = 1: root sqrt(0.75)
    (lambda x: (1.0 / (1.0 + 2.0 * x) + 1.0 / (1.0 + x / 1.5),
                -2.0 / (1.0 + 2.0 * x) ** 2 - 1.0 / (1.5 * (1.0 + x / 1.5) ** 2)), 1.0, math.sqrt(0.75)),
    (exp_pair(2.0, 50.0), 1.0, math.log(2.0) / 50.0),  # steep
    (exp_pair(2e3), 1e3, math.log(2.0)),  # large values: abs_tol is 1e-13 of them
    # a constant floor just under the target: flat near the root at x = 1
    (lambda x: (0.999 + 0.002 / (1.0 + x), -0.002 / (1.0 + x) ** 2), 1.0, 1.0),
]
CLOSED_IDS = [f"closed-form-{i}" for i in range(len(CLOSED_FORMS))]


TG_HALF = AlphaFamily(TruncatedGaussian(0.0, 2.0, 0.7), 0.5).law()
BETA_QUARTER = PowerLagRate(0.25, 1.0)
RESOLVENTS = {  # the (H, H') closures of the age model, built on first use
    **{str(beta): lambda beta=beta: _resolvent_factory(PowerLagRate(beta, 1.0), TG_HALF) for beta in (0.0, 0.25, 2.0)},
    "witness": lambda: _resolvent_factory(witness_rate(), TG_HALF),
    "const-dirac": lambda: _resolvent_factory(ConstantRate(1.3), Dirac(0.8)),
    "const-twopoint": lambda: _resolvent_factory(ConstantRate(1.0), DiscreteMixture([(0.5, 0.5), (1.5, 0.5)])),
    "general-beta0.25": lambda: general_resolvent(
        lambda a, v: BETA_QUARTER.hazard(a), lambda a, v: 1.0 / v, TG_HALF, kink_ages=BETA_QUARTER.kinks
    ),
}
ROOT_ULPS = 8  # the distance to brentq's root that find_root_decreasing states


# scipy's brentq, Brent's method, is the oracle for the roots below; the
# package never imports it


@pytest.mark.parametrize("case", list(RESOLVENTS))
def test_brent_matches_brentq_on_resolvents(case):
    from scipy.optimize import brentq

    H = RESOLVENTS[case]()
    x = find_root_decreasing(H, 1.0)
    ref = brentq(lambda lam: H(lam)[0] - 1.0, 0.0, 10.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    assert isinstance(x, float) and abs(x - ref) <= ROOT_ULPS * math.ulp(ref)


@pytest.mark.parametrize("case", range(len(CLOSED_FORMS)))
@pytest.mark.parametrize("kw", [dict(xtol=1e-15, rtol=1e-15, maxiter=100), dict(xtol=2e-12, rtol=8.9e-16, maxiter=100),
                                dict(xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)])
def test_brent_matches_brentq_on_closed_forms(case, kw):
    from scipy.optimize import brentq

    # to a few ulps of the root, plus the few ulps of h that its slope
    # turns into a spread of roots (1e-12 for the flat closed-form-6)
    h, target, root = CLOSED_FORMS[case]
    spread = math.ulp(target) / -h(root)[1]
    bound = 4.0 * (math.ulp(root) + spread)
    x = find_root_decreasing(h, target)
    assert abs(x - root) <= bound
    # brentq's root lies within xtol + rtol |x| of a sign change of the
    # rounded h - target, which itself lies within the spread of the root
    ref = brentq(lambda y: h(y)[0] - target, 0.0, 2.0 * root + 1.0, **kw)
    assert abs(x - ref) <= bound + spread + kw["xtol"] + kw["rtol"] * abs(ref)


@pytest.mark.parametrize(
    "h, target",
    [(RESOLVENTS[str(beta)](), 1.0) for beta in (0.0, 0.25, 2.0)] + [c[:2] for c in CLOSED_FORMS],
    ids=[f"resolvent-beta{b:g}" for b in (0.0, 0.25, 2.0)] + CLOSED_IDS,
)
def test_root_evaluates_no_abscissa_twice(h, target):
    seen = []

    def recorded(x):
        seen.append(x)
        return h(x)

    x = find_root_decreasing(recorded, target)
    # the iterates increase strictly, so none repeats
    assert seen[0] == 0.0 and all(a < b for a, b in zip(seen, seen[1:]))
    assert abs(h(x)[0] - target) <= DEFAULT_ROOT_TOL.abs_tol


def test_root_rejects_h0_at_or_below_target():
    for c in (1.0, 0.5):
        with pytest.raises(ValueError, match="h\\(0\\) <= target"):
            find_root_decreasing(exp_pair(c), 1.0)
    for target in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="target must be positive"):
            find_root_decreasing(exp_pair(), target)


def test_root_rejects_non_finite_values():
    # NaN where the first Newton step lands, in the value and in the slope
    value = lambda x: (math.nan if x > 0.5 else 2.0 * math.exp(-x), -2.0 * math.exp(-x))
    slope = lambda x: (2.0 * math.exp(-x), math.nan if x > 0.5 else -2.0 * math.exp(-x))
    for h in (value, slope):
        with pytest.raises(ValueError, match=f"not finite at x={math.log(2.0)!r}"):
            find_root_decreasing(h, 1.0)
    with pytest.raises(ValueError, match="not finite at x=0.0"):
        find_root_decreasing(lambda x: (math.inf, -1.0), 1.0)


def test_root_exhaustion_raises_with_best(monkeypatch):
    # Newton takes five steps on 2 / (1 + x)^2 = 1; two run out
    h, target, root = CLOSED_FORMS[1]
    monkeypatch.setattr(numerics, "DEFAULT_ROOT_TOL", Tolerance(abs_tol=1e-10, max_iter=2))
    with pytest.raises(NonConvergenceError, match="within 2 Newton steps") as info:
        find_root_decreasing(h, target)
    assert 0.4 < info.value.best < root


def test_tolerance_takes_an_integer_step_budget():
    # range() takes only integers: a float budget would fail at the first solve
    assert Tolerance(abs_tol=1e-10, max_iter=np.int64(60)) == Tolerance(abs_tol=1e-10, max_iter=60)
    assert type(Tolerance(abs_tol=1e-10, max_iter=np.int64(60)).max_iter) is int
    for bad in (2.5, math.nan):
        with pytest.raises(TypeError):
            Tolerance(abs_tol=1e-10, max_iter=bad)


def test_root_failure_states_the_residual():
    # h drops by 4 at x = 0.5, past which it never meets the target: the
    # first step lands at ln 2 with residual 0.75
    h = lambda x: ((2.0 if x < 0.5 else 0.5) * math.exp(-x), -(2.0 if x < 0.5 else 0.5) * math.exp(-x))
    with pytest.raises(NonConvergenceError, match=r"residual 0\.75\b") as info:
        find_root_decreasing(h, 1.0)
    assert info.value.best == math.log(2.0)


def test_root_raises_where_the_slope_vanishes_above_the_target():
    with pytest.raises(NonConvergenceError, match="stops decreasing at x=0.0") as info:
        find_root_decreasing(lambda x: (2.0, 0.0), 1.0)
    assert info.value.best == 0.0


mixtures = st.lists(st.tuples(st.floats(1e-3, 1e2), st.floats(1e-3, 1e2)), min_size=1, max_size=6)


def mixture(terms, constant=0.0):
    """x -> (constant + sum c e^{-d x}, its slope), recording every x."""

    def h(x):
        h.seen.append(x)
        e = [c * math.exp(-d * x) for c, d in terms]
        return constant + math.fsum(e), -math.fsum(d * v for (_, d), v in zip(terms, e))

    h.seen = []
    return h


@given(mixtures, st.floats(0.01, 0.99))
@settings(deadline=None, max_examples=200)
def test_root_contract_on_exponential_mixtures(terms, frac):
    h = mixture(terms)
    target = frac * math.fsum(c for c, _ in terms)
    try:
        x = find_root_decreasing(h, target)
    except NonConvergenceError as e:
        assert math.isfinite(e.best)
    else:
        assert abs(h(x)[0] - target) <= DEFAULT_ROOT_TOL.abs_tol
        h.seen.pop()
    assert h.seen[0] == 0.0 and all(a < b for a, b in zip(h.seen, h.seen[1:]))


@given(mixtures, st.floats(0.1, 10.0), st.floats(1e-9, 10.0))
@settings(deadline=None, max_examples=100)
def test_root_never_crossing_mixtures_raise(terms, target, excess):
    # a constant term above the target: h never comes within abs_tol of it
    h = mixture(terms, constant=target * (1.0 + excess))
    with pytest.raises(NonConvergenceError) as info:
        find_root_decreasing(h, target)
    assert math.isfinite(info.value.best)
    assert all(a < b for a, b in zip(h.seen, h.seen[1:]))


# --- random stream -----------------------------------------------------------


def _draws(seed, stream, n):
    return uniforms_at(RngStream(seed, stream).base, np.arange(n, dtype=np.uint64))


def test_stream_reproducible_and_distinct():
    assert np.array_equal(_draws(123, 7, 64), _draws(123, 7, 64))
    assert not np.array_equal(_draws(123, 8, 64), _draws(123, 7, 64))
    assert not np.array_equal(_draws(124, 7, 64), _draws(123, 7, 64))


@given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(deadline=None, max_examples=60)
def test_draws_are_pure_functions_of_position(seed, stream, skip):
    # reading draw k is independent of whether earlier draws were read
    skip %= 257
    tail = uniforms_at(RngStream(seed, stream).base, np.arange(skip, skip + 5, dtype=np.uint64))
    assert np.array_equal(tail, _draws(seed, stream, skip + 5)[skip:])


def test_uniform_ranges():
    u = _draws(5, 0, 10_000)
    assert np.all((0.0 <= u) & (u < 1.0))
    base = RngStream(5, 1).base
    v = open_uniforms_at(base, np.arange(10_000, dtype=np.uint64))
    assert np.all((0.0 < v) & (v < 1.0))
    # mean of that many uniforms should sit near 1/2
    assert abs(u.mean() - 0.5) < 0.02


def test_substream_keys_decorrelate():
    r = RngStream(42, 0)
    k0 = child_key(np.uint64(1), 0)
    k1 = child_key(np.uint64(1), 1)
    assert int(k0) != int(k1)
    counters = np.arange(8, dtype=np.uint64)
    s0 = uniforms_at(cell_base(r.base, k0), counters)
    s1 = uniforms_at(cell_base(r.base, k1), counters)
    assert not np.array_equal(s0, s1)


def test_stream_takes_integers_below_2_64():
    # a wider value would wrap onto a narrower stream, and a float would
    # be truncated to one
    top = RngStream(2**64 - 1, 2**64 - 1)
    assert (top.seed, top.stream_index) == (2**64 - 1, 2**64 - 1)
    assert RngStream(np.int64(5), np.uint64(2)).base == RngStream(5, 2).base
    for bad in (2**64, 2**64 + 1, -1):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            RngStream(bad)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            RngStream(1, bad)
    for bad in (1.5, 1.0):
        with pytest.raises(TypeError):
            RngStream(bad)
        with pytest.raises(TypeError):
            RngStream(1, bad)


def test_counter_indexing_matches_stream():
    # a (cells x counters) block holds each cell's draws at those counters
    bases = cell_base(RngStream(77, 3).base, np.arange(4, dtype=np.uint64))
    counters = np.arange(6, dtype=np.uint64)
    block = uniforms_at(bases[:, None], counters)
    for i, b in enumerate(bases):
        assert np.array_equal(block[i], uniforms_at(b, counters))
        assert block[i, 5] == uniforms_at(b, np.uint64(5))
