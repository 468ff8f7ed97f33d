import math

import numpy as np
import pytest
from scipy import stats

from ptybench import (NoiseModel, apply_noise, poisson_log_pmf,
                      sample_poisson, sample_speckle, scale_to_budget)


# --- photon budget -----------------------------------------------------------

def test_scale_preserves_stack_already_at_budget():
    stack = np.ones((3, 8, 8))
    out = scale_to_budget(stack, 64.0)
    assert np.allclose(out, stack, atol=1e-14)


def test_scale_linearity():
    stack = np.random.default_rng(0).random((4, 8, 8))
    a = scale_to_budget(stack, 100.0)
    b = scale_to_budget(stack, 200.0)
    assert np.allclose(b, 2 * a, rtol=1e-12)


def test_scaled_mean_pattern_sum_equals_budget():
    stack = np.random.default_rng(1).random((5, 16, 16)) * 7
    out = scale_to_budget(stack, 12345.0)
    assert np.mean([p.sum() for p in out]) == pytest.approx(12345.0,
                                                            rel=1e-10)


def test_all_zero_stack_rejected():
    with pytest.raises(ValueError):
        scale_to_budget(np.zeros((2, 4, 4)), 10.0)


@pytest.mark.parametrize("budget", [0.0, float("nan"), float("inf")])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError, match="photon budget must be positive"):
        scale_to_budget(np.ones((2, 4, 4)), budget)


# --- Poisson sampler ---------------------------------------------------------

def test_poisson_zero_mean_gives_zero():
    out = sample_poisson(np.zeros((2, 16, 16)), seed=0)
    assert np.all(out == 0)


def test_poisson_sample_mean():
    means = np.full((1, 200, 200), 4.0)
    out = sample_poisson(means, seed=42)
    # 3 sigma of the mean estimator: sigma^2 = 4, n = 200^2
    assert abs(out.mean() - 4.0) <= 3 * (2 / 200)


def test_poisson_variance_equals_mean():
    out = sample_poisson(np.full((1, 100000, 1), 4.0), seed=7)
    assert 3.5 <= out.var() <= 4.5


def test_poisson_negative_mean_rejected():
    with pytest.raises(ValueError):
        sample_poisson(np.full((1, 2, 2), -1.0), seed=0)


@pytest.mark.parametrize("sampler, name", [(sample_poisson, "Poisson"),
                                           (sample_speckle, "speckle")])
def test_a_negative_mean_beside_nan_is_refused(sampler, name):
    # NaN first: a check that took the stack's NaN-propagating minimum
    # would pass it
    means = np.zeros((2, 4, 4))
    means[0, 0, 0], means[1, 3, 3] = np.nan, -1.0
    with pytest.raises(ValueError, match=f"{name} means must be nonnegative"):
        sampler(means, seed=0)


def test_poisson_chisquare_gof():
    draws = sample_poisson(np.full((1, 100000, 1), 5.0), seed=3).ravel()
    kmax = 16
    observed = np.bincount(draws.astype(int).clip(0, kmax),
                           minlength=kmax + 1)
    probs = np.array([math.exp(poisson_log_pmf(k, 5.0)) for k in range(kmax)])
    probs = np.append(probs, 1.0 - probs.sum())  # tail bin
    _, p = stats.chisquare(observed, probs * draws.size)
    assert p > 1e-3


# --- speckle sampler ---------------------------------------------------------

def test_speckle_zero_mean_gives_zero():
    out = sample_speckle(np.zeros((2, 8, 8)), seed=0)
    assert np.all(out == 0)


def test_speckle_sample_mean():
    out = sample_speckle(np.ones((1, 100000, 1)), seed=5)
    assert abs(out.mean() - 1.0) <= 3 / math.sqrt(100000)


def test_speckle_variance_is_mean_squared():
    out = sample_speckle(np.full((1, 100000, 1), 2.0), seed=6)
    assert abs(out.var() - 4.0) <= 0.4


def test_speckle_ks_gof():
    draws = sample_speckle(np.ones((1, 100000, 1)), seed=8).ravel()
    _, p = stats.kstest(draws, "expon")
    assert p > 1e-3


# --- stream structure --------------------------------------------------------

def test_sampler_determinism():
    means = np.random.default_rng(2).random((3, 8, 8)) * 10
    assert np.array_equal(sample_poisson(means, 9), sample_poisson(means, 9))
    assert np.array_equal(sample_speckle(means, 9), sample_speckle(means, 9))


def test_pattern_substreams_independent_of_stack_size():
    means = np.random.default_rng(3).random((4, 8, 8)) * 10
    full = sample_poisson(means, seed=11)
    partial = sample_poisson(means[:2], seed=11)
    assert np.array_equal(full[:2], partial)


@pytest.mark.parametrize("model", list(NoiseModel))
def test_apply_noise_into_out_matches_the_returned_draw(model):
    means = np.random.default_rng(4).random((3, 8, 8)) * 10
    # a strided slice of a realization stack, as a grid draws into
    stack = np.full((3, 2, 8, 8), np.nan)
    buf = stack[:, 1]
    assert apply_noise(means, model, 21, out=buf) is buf
    assert np.array_equal(buf, apply_noise(means, model, 21))
    assert np.isnan(stack[:, 0]).all()  # nothing written outside out


@pytest.mark.parametrize("model", list(NoiseModel))
def test_apply_noise_over_its_own_means_matches_the_returned_draw(model):
    # a grid simulates a realization's means into its slice of the pattern
    # stack and draws the noise over them there
    means = np.random.default_rng(5).random((3, 2, 8, 8)) * 10
    want = apply_noise(means[:, 1], model, 21)
    stack = means.copy()
    buf = stack[:, 1]
    assert apply_noise(buf, model, 21, out=buf) is buf
    assert np.array_equal(buf, want)
    assert np.array_equal(stack[:, 0], means[:, 0])  # nothing else written


@pytest.mark.parametrize("model", list(NoiseModel))
def test_apply_noise_returns_a_float_stack_of_its_own(model):
    means = np.arange(3 * 8 * 8).reshape(3, 8, 8)  # integer means
    draw = apply_noise(means, model, 21)
    assert draw.dtype == float and draw.shape == means.shape
    assert not np.shares_memory(draw, means)
    if model is NoiseModel.NOISE_FREE:
        assert np.array_equal(draw, means)


@pytest.mark.parametrize("shape", [(4, 2, 8, 8), (6,)],
                         ids=["stack", "one_value_patterns"])
@pytest.mark.parametrize("sampler", [sample_poisson, sample_speckle],
                         ids=["poisson", "speckle"])
def test_samplers_write_no_input_and_out_gives_the_same_bits(sampler, shape):
    means = np.random.default_rng(6).random(shape) * 10
    means.flat[:2] = [0.0, 5e-324]
    kept = means.tobytes()
    pure = sampler(means, 23)
    assert means.tobytes() == kept
    out = np.full_like(means, np.nan)
    assert sampler(means, 23, out=out) is out
    assert sampler(means, 23, out=means) is means  # over its own means
    assert out.tobytes() == pure.tobytes()
    assert means.tobytes() == pure.tobytes()


@pytest.mark.parametrize("out", [np.empty((3, 8, 7)), np.empty((2, 3, 8, 8)),
                                 np.empty((3, 8, 8), dtype=np.float32)],
                         ids=["shape", "broadcast", "dtype"])
def test_apply_noise_refuses_an_out_that_is_not_the_stack(out):
    for model in NoiseModel:
        with pytest.raises(ValueError, match="out must be a float array"):
            apply_noise(np.ones((3, 8, 8)), model, 0, out=out)


@pytest.mark.parametrize("budget", [1e3, 1e4, 1e5])
def test_noise_level_scales_with_budget(budget):
    # Var(y)/budget for Poisson and Var(y)/budget^2 for speckle are
    # budget-invariant up to Monte-Carlo error
    base = np.full((1, 200, 200), 1.0)
    scaled = scale_to_budget(base, budget)
    pois = sample_poisson(scaled, seed=13)
    spek = sample_speckle(scaled, seed=13)
    m = scaled[0, 0, 0]
    assert pois.var() / m == pytest.approx(1.0, rel=0.05)
    assert spek.var() / m ** 2 == pytest.approx(1.0, rel=0.05)


# --- log pmf -----------------------------------------------------------------

def test_log_pmf_zero_count():
    assert poisson_log_pmf(0, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_log_pmf_formula_value():
    assert poisson_log_pmf(2, 2.0) == pytest.approx(math.log(2) - 2,
                                                    abs=1e-12)


def test_log_pmf_normalization():
    total = sum(math.exp(poisson_log_pmf(y, 3.0)) for y in range(101))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_log_pmf_domain_errors():
    with pytest.raises(ValueError):
        poisson_log_pmf(1, 0.0)
    with pytest.raises(ValueError):
        poisson_log_pmf(-1, 2.0)
