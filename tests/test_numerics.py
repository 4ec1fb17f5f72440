"""Quadrature, root solving, and the counter-based random stream."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malthus.numerics import (
    DEFAULT_ROOT_TOL,
    NonConvergenceError,
    RngStream,
    Tolerance,
    child_key,
    find_root_decreasing,
    integrate,
    open_uniforms_at,
    uniforms_at,
)

TIGHT = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=60)


def test_integrate_smooth():
    assert abs(integrate(np.sin, 0.0, math.pi, TIGHT) - 2.0) < 1e-12


def test_integrate_cubic_is_exact():
    # Simpson integrates cubics exactly even at the coarsest refinement
    val = integrate(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, Tolerance(1e-6, 1e-6, 8))
    assert abs(val - 2.0) < 1e-13


def test_integrate_kink_split():
    exact = ((1.0 / 3.0) ** 2 + (2.0 / 3.0) ** 2) / 2.0
    val = integrate(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, TIGHT, kinks=(1.0 / 3.0,))
    assert abs(val - exact) < 1e-14


def test_integrate_rejects_empty_interval():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 1.0, TIGHT)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(deadline=None, max_examples=40)
def test_integrate_linear_in_integrand(c1, c2):
    tol = Tolerance(1e-11, 1e-11, 60)
    lhs = integrate(lambda x: c1 * np.exp(-x) + c2 * np.cos(x), 0.0, 2.0, tol)
    rhs = c1 * integrate(lambda x: np.exp(-x), 0.0, 2.0, tol) + c2 * integrate(np.cos, 0.0, 2.0, tol)
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(c1) + abs(c2))


def test_root_exponential():
    lam = find_root_decreasing(lambda l: 2.0 * math.exp(-l), 1.0, DEFAULT_ROOT_TOL)
    assert abs(lam - math.log(2.0)) < 1e-12


def test_root_certificate_brackets_answer():
    H = lambda l: 2.0 / (1.0 + l) ** 2
    lam = find_root_decreasing(H, 1.0, DEFAULT_ROOT_TOL)
    assert abs(lam - (math.sqrt(2.0) - 1.0)) < 1e-12
    eps = 1e-6
    assert H(lam - eps) > 1.0 > H(lam + eps)


def test_root_releases_the_resolvent():
    # a resolvent may hold large arrays; nothing may keep it alive after the
    # solve, not even until the next cyclic garbage collection
    class Resolvent:
        def __call__(self, lam):
            return 2.0 * math.exp(-lam)

    h = Resolvent()
    ref = weakref.ref(h)
    gc.disable()
    try:
        find_root_decreasing(h, 1.0, DEFAULT_ROOT_TOL)
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_root_never_crossing_raises():
    with pytest.raises(NonConvergenceError):
        find_root_decreasing(lambda l: 1.5 + 1.0 / (1.0 + l), 1.0, DEFAULT_ROOT_TOL)


# --- random stream -----------------------------------------------------------


def test_stream_reproducible_and_distinct():
    assert np.array_equal(RngStream(123, 7).uniforms(64), RngStream(123, 7).uniforms(64))
    assert not np.array_equal(RngStream(123, 8).uniforms(64), RngStream(123, 7).uniforms(64))
    assert not np.array_equal(RngStream(124, 7).uniforms(64), RngStream(123, 7).uniforms(64))


@given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(deadline=None, max_examples=60)
def test_draws_are_pure_functions_of_position(seed, stream, skip):
    # reading draw k is independent of whether earlier draws were consumed
    a = RngStream(seed, stream)
    a.uniforms(skip % 257)
    tail = a.uniforms(5)
    b = RngStream(seed, stream)
    b.uniforms(skip % 257)
    assert np.array_equal(tail, b.uniforms(5))


def test_uniform_ranges():
    r = RngStream(5, 0)
    u = r.uniforms(10_000)
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
    s0 = r.substream(int(k0)).uniforms(8)
    s1 = r.substream(int(k1)).uniforms(8)
    assert not np.array_equal(s0, s1)


def test_counter_indexing_matches_stream():
    r = RngStream(77, 3)
    direct = uniforms_at(r.base, np.arange(6, dtype=np.uint64))
    assert np.array_equal(r.uniforms(6), direct)
