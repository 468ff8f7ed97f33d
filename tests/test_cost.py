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


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_fwd_deriv_is_fwd_and_deriv_bit_for_bit(name):
    t = TRANSFORMS[name]
    z = np.random.default_rng(5).random(40) * 100
    z[:4] = [0.0, 5e-324, 1e300, np.inf]
    with np.errstate(all="ignore"):
        f, d = t.fwd_deriv(z)
        want_f, want_d = t.fwd(z), t.deriv(z)
    assert f.dtype == want_f.dtype and d.dtype == want_d.dtype
    assert f.tobytes() == want_f.tobytes()
    assert d.tobytes() == want_d.tobytes()
    # residual changes f in place and reads z again
    assert not np.shares_memory(f, z)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_mix_is_the_transformed_convex_combination(name):
    t = TRANSFORMS[name]
    rng = np.random.default_rng(6)
    a, b = rng.random(40) * 100, rng.random(40) * 100
    for mu in (0.0, 0.1, 1.0):
        want = t.inv((1.0 - mu) * t.fwd(a) + mu * t.fwd(b))
        assert t.mix(a, b, mu).tobytes() == want.tobytes()
    assert np.allclose(t.mix(a, b, 1.0), b, rtol=1e-10)


@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transforms_compute_in_arrays_of_their_own(name):
    # fwd, inv, mix and fwd_deriv write no input, and none returns its input
    # or a view of it: the identity's fwd and inv copy, so the callers that
    # work in place on a result never change what they passed
    t = TRANSFORMS[name]
    rng = np.random.default_rng(7)
    a, b = rng.random((2, 6, 6)) * 100, rng.random((2, 6, 6)) * 100
    a.flat[:3] = [0.0, 5e-324, np.inf]
    kept_a, kept_b = a.tobytes(), b.tobytes()
    with np.errstate(all="ignore"):
        results = [t.fwd(a), t.inv(a), t.mix(a, b, 0.1), *t.fwd_deriv(a)]
    for got in results:
        assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
    assert a.tobytes() == kept_a and b.tobytes() == kept_b
    # a result may be changed in place without touching the input
    results[0] += 1.0
    assert a.tobytes() == kept_a


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


def test_unknown_functional_name_raises():
    with pytest.raises(ValueError, match="unknown cost functional 'nope'"):
        functional_by_name("nope")


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


def residual_formula(t, G, y):
    """R of a transform as one expression, evaluated left to right: the
    reference its in-place chain must match byte for byte."""
    z = np.abs(G) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        f, d = t.fwd_deriv(z)
        R = 2.0 * (f - t.fwd(y)) * d * G
    R[z == 0] = 0
    return R


@pytest.mark.parametrize("shape", [(160, 160), (2, 32, 32)])
@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_in_place_residual_is_the_formula_bit_for_bit(name, shape):
    t = TRANSFORMS[name]
    G = random_field(shape, 11)
    y = np.abs(random_field(shape, 12)) ** 2
    # every pairing of special values of G with special values of y
    special_G = [0.0, -0.0, 5e-324, -5e-324j, complex(np.inf, 0.0),
                 complex(1.0, -np.inf), 0.5 - 2.0j]
    special_y = [0.0, -0.0, 5e-324, np.inf, 3.0]
    pairs = [(g, v) for g in special_G for v in special_y]
    G.reshape(-1)[:len(pairs)] = [g for g, _ in pairs]
    y.reshape(-1)[:len(pairs)] = [v for _, v in pairs]
    want = residual_formula(t, G, y)
    kept_G, kept_y = G.copy(), y.copy()
    with np.errstate(invalid="ignore"):  # inf * 0 in the complex product
        R = gradient_residual(t, G, y)
        z = np.abs(G) ** 2
        kept_z = z.copy()
        direct = t.residual(G, z, y)
    assert R.dtype == want.dtype and R.tobytes() == want.tobytes()
    assert direct.tobytes() == want.tobytes()
    # the chain works on its own arrays: no input is written
    for got, kept in ((G, kept_G), (y, kept_y), (z, kept_z)):
        assert got.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name", FUNCTIONAL_NAMES)
def test_residual_into_G_is_the_pure_residual_bit_for_bit(name):
    # out=G is how a rule spends its far field; a pure call writes no input
    fn = functional_by_name(name)
    G = random_field((2, 40, 40), 13)
    y = np.abs(random_field((2, 40, 40), 14)) ** 2
    G.flat[:4] = [0.0, -0.0, complex(np.inf, 0.0), 0.5 - 2.0j]
    y.flat[:4] = [0.0, 3.0, 2.0, np.inf]
    kept_G, kept_y = G.tobytes(), y.tobytes()
    with np.errstate(all="ignore"):
        pure = gradient_residual(fn, G, y)
        assert G.tobytes() == kept_G and y.tobytes() == kept_y
        out = np.full_like(G, np.nan)
        assert gradient_residual(fn, G, y, out=out) is out
        assert gradient_residual(fn, G, y, out=G) is G
    assert out.tobytes() == pure.tobytes()
    assert G.tobytes() == pure.tobytes()
    assert y.tobytes() == kept_y


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
