import math

import numpy as np
import pytest

from ptybench import (FUNCTIONAL_NAMES, TRANSFORMS, PoissonLogLikelihood,
                      cost_eval, dft2, functional_by_name,
                      gradient_residual, idft2, modulus_substitute,
                      taylor_gap)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def wirtinger_fd(functional, g, y, h=1e-5):
    """Central finite differences of the cost under real/imaginary
    perturbations of g; independent oracle for the analytic gradient."""

    def L(field):
        return cost_eval(functional, np.abs(dft2(field)) ** 2, y)

    grad = np.zeros(g.shape, dtype=complex)
    for idx in np.ndindex(g.shape):
        for unit in (1.0, 1.0j):
            gp = g.copy()
            gp[idx] += h * unit
            gm = g.copy()
            gm[idx] -= h * unit
            partial = (L(gp) - L(gm)) / (2 * h)
            # dL/dRe = 2 Re(dL/dg*), dL/dIm = 2 Im(dL/dg*)
            grad[idx] += 0.5 * partial * unit
    return grad


# --- transforms --------------------------------------------------------------

def test_anscombe_at_zero():
    assert TRANSFORMS["anscombe"].fwd(0.0) == pytest.approx(
        math.sqrt(3.0 / 8.0), abs=1e-12)


def test_identity_transform():
    t = TRANSFORMS["identity"]
    z = np.array([0.0, 1.5, 100.0])
    assert np.array_equal(t.fwd(z), z)
    assert np.all(t.deriv(z) == 1.0)
    assert np.array_equal(t.inv(z), z)


def test_power_round_trip():
    t = TRANSFORMS["pow_0.7"]
    assert t.inv(t.fwd(5.0)) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transform_inverse_round_trip(name):
    t = TRANSFORMS[name]
    z = np.logspace(-3, 6, 40)
    assert np.allclose(t.inv(t.fwd(z)), z, rtol=1e-10)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transform_monotone(name):
    t = TRANSFORMS[name]
    z = np.logspace(-3, 6, 40)
    assert np.all(t.deriv(z) > 0)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transform_derivative_matches_fd(name):
    t = TRANSFORMS[name]
    z = np.logspace(-2, 4, 20)
    h = 1e-6 * np.maximum(z, 1.0)
    fd = (t.fwd(z + h) - t.fwd(z - h)) / (2 * h)
    assert np.allclose(t.deriv(z), fd, rtol=1e-6)


# --- cost evaluation ---------------------------------------------------------

def test_vst_cost_zero_at_data():
    y = np.random.default_rng(0).random((2, 8, 8)) * 10
    for name in TRANSFORMS:
        assert cost_eval(functional_by_name(name), y, y) == 0.0


def test_amplitude_cost_single_pixel():
    fn = functional_by_name("sqrt")
    assert cost_eval(fn, np.array([[4.0]]), np.array([[1.0]])) == \
        pytest.approx(1.0, abs=1e-14)


def test_loglik_cost_single_pixel():
    fn = PoissonLogLikelihood(1e-300)
    got = cost_eval(fn, np.array([[1.0]]), np.array([[1.0]]))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_cost_shape_mismatch_raises():
    with pytest.raises(ValueError):
        cost_eval(functional_by_name("sqrt"), np.ones((2, 2)),
                  np.ones((3, 3)))


def test_amplitude_reduces_to_eq6_and_identity_to_intensity():
    rng = np.random.default_rng(1)
    z = rng.random((3, 8, 8)) * 20
    y = rng.random((3, 8, 8)) * 20
    amp = cost_eval(functional_by_name("sqrt"), z, y)
    assert amp == pytest.approx(np.sum((np.sqrt(z) - np.sqrt(y)) ** 2),
                                rel=1e-12)
    intensity = cost_eval(functional_by_name("identity"), z, y)
    assert intensity == pytest.approx(np.sum((z - y) ** 2), rel=1e-12)


# --- gradients ---------------------------------------------------------------

def test_vst_residual_vanishes_at_data():
    G = random_field((8, 8), 2)
    y = np.abs(G) ** 2
    for name in TRANSFORMS:
        R = gradient_residual(functional_by_name(name), G, y)
        assert np.allclose(R, 0.0, atol=1e-12)


def test_loglik_residual_small_at_data():
    G = random_field((8, 8), 3)
    y = np.abs(G) ** 2
    fn = PoissonLogLikelihood(1e-12)
    R = gradient_residual(fn, G, y)
    assert np.abs(R).max() < 1e-10


def test_loglik_eps_is_per_pattern_in_a_stack():
    # patterns of very different brightness get their own eps, so a stack
    # gives each pattern's residual and the sum of the pattern costs
    rng = np.random.default_rng(4)
    y = np.stack([rng.poisson(0.01, (8, 8)), rng.poisson(1e4, (8, 8))])
    y = y.astype(float)
    G = random_field((2, 8, 8), 5) * 1e-3
    z = np.abs(G) ** 2
    fn = PoissonLogLikelihood()
    stack = gradient_residual(fn, G, y)
    for k in range(2):
        assert np.array_equal(stack[k], gradient_residual(fn, G[k], y[k]))
    assert cost_eval(fn, z, y) == pytest.approx(
        sum(cost_eval(fn, z[k], y[k]) for k in range(2)), rel=1e-12)
    # a (P, h, w) stack of scan positions likewise gets one eps per position
    assert fn.eps_for(y).shape == (2, 1, 1)


def test_amplitude_gradient_equals_modulus_substitution():
    # dL/dg* for the amplitude cost must equal g - g' with g' the
    # modulus-substituted field, computed through an independent pipeline
    fn = functional_by_name("sqrt")
    for seed in range(20):
        g = random_field((8, 8), seed)
        y = np.random.default_rng(seed + 100).random((8, 8)) * 10
        G = dft2(g)
        grad = idft2(gradient_residual(fn, G, y))
        g_prime = idft2(modulus_substitute(G, np.sqrt(y)))
        assert np.allclose(grad, g - g_prime, atol=1e-10)


@pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
def test_wirtinger_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(hash(name) % (1 << 32))
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    clean = np.abs(dft2(g)) ** 2
    y = rng.poisson(clean * 3).astype(float)
    fn = functional_by_name(name, epsilon=1e-6 if name == "poisson_loglik"
                            else 0.0)
    analytic = idft2(gradient_residual(fn, dft2(g), y))
    numeric = wirtinger_fd(fn, g, y)
    scale = max(np.abs(numeric).max(), 1e-12)
    assert np.abs(analytic - numeric).max() / scale < 1e-6


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_zero_modulus_pixel_convention(name):
    G = random_field((4, 4), 9)
    G[0, 0] = 0.0
    y = np.abs(G) ** 2 + 1.0
    R = gradient_residual(functional_by_name(name), G, y)
    assert R[0, 0] == 0.0
    assert np.all(np.isfinite(R))


def test_gradient_shape_mismatch_raises():
    with pytest.raises(ValueError):
        gradient_residual(functional_by_name("sqrt"),
                          np.ones((4, 4), dtype=complex), np.ones((2, 2)))


# --- Taylor expansion diagnostic ----------------------------------------------

def test_taylor_gap_zero_at_expansion_point():
    assert taylor_gap(3.0, 3.0) == 0.0


def test_taylor_gap_third_order_ratio():
    # halving sqrt(z) - sqrt(y) divides the gap by ~8
    ratio = taylor_gap(1.21, 1.0) / taylor_gap(1.1025, 1.0)
    assert ratio == pytest.approx(8.0, rel=0.2)


def test_taylor_gap_finite_and_sign_consistent():
    y = 10.0
    gaps = [taylor_gap(z, y) for z in np.linspace(0.5 * y, 2.0 * y, 50)
            if not np.isclose(z, y)]
    assert all(np.isfinite(gaps))
    # remainder is cubic in sqrt(z) - sqrt(y) with a negative leading
    # coefficient, so its sign is opposite to z - y
    for z, gap in zip([z for z in np.linspace(0.5 * y, 2.0 * y, 50)
                       if not np.isclose(z, y)], gaps):
        assert (gap > 0) == (z < y)


def test_taylor_gap_domain_errors():
    with pytest.raises(ValueError):
        taylor_gap(0.0, 1.0)
    with pytest.raises(ValueError):
        taylor_gap(1.0, -1.0)
