"""Cost functionals on intensity data and their Wirtinger gradients.

Two families are implemented:

* variance-stabilized squared differences, sum (T(z) - T(y))^2, for a
  registry of monotone transforms T (sqrt, Anscombe, shifted sqrt,
  power laws, shifted logs, identity);
* the negative Poisson log-likelihood, sum z - y log(z + eps), with the
  constant log(y!) term dropped.

Gradients are returned as the Fourier-domain residual R(u) such that
dL/dg*(x) = idft2(R, window) for the window-sized exit wave g: the
inverse of R cropped to the window, since G is the transform of g
zero-padded by the oversampling factor. z = |G|^2 is computed internally.
`gradient_residual` and `residual` write no input; given `out=`, R is
written there, which may be G itself when the caller owns G and needs it
no more: at oversampling 5 that saves one full-size grid per update.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _in_place(r):
    """`out=` for a ufunc that overwrites `r`, an array of the caller's own:
    r itself, or None when r is a scalar, which cannot be written."""
    return r if np.ndim(r) else None


@dataclass(frozen=True)
class Transform:
    """A monotone intensity transform T with its inverse; as a cost
    functional it is the variance-stabilized sum (T(z) - T(y))^2.

    fwd, inv and mix each compute in one array of their own, never their
    input: the identity's fwd and inv copy. fwd_deriv(z) is the one
    definition of the derivative T': it gives (fwd(z), T'(z)) bit for bit,
    sharing the work the two have in common (a shifted square root or a
    shifted sum), as two arrays of its own: `residual` changes them in
    place."""

    name: str
    fwd: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    fwd_deriv: Callable[[np.ndarray], tuple]

    def deriv(self, z: np.ndarray) -> np.ndarray:
        """T'(z)."""
        return self.fwd_deriv(z)[1]

    def mix(self, a: np.ndarray, b: np.ndarray, mu: float) -> np.ndarray:
        """The convex combination of a and b taken in the transformed
        domain, T^-1((1 - mu) T(a) + mu T(b))."""
        # each term is scaled in the array fwd made for it, and the second
        # is dropped before inv makes the result
        v = self.fwd(a)
        v = np.multiply(1.0 - mu, v, out=_in_place(v))
        w = self.fwd(b)
        v += np.multiply(mu, w, out=_in_place(w))
        del w
        return self.inv(v)

    def cost(self, z: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum((self.fwd(z) - self.fwd(y)) ** 2))

    def residual(self, G: np.ndarray, z: np.ndarray, y: np.ndarray,
                 out=None) -> np.ndarray:
        """R = 2 (T(z) - T(y)) T'(z) G, set to 0 where z = 0 (limit
        convention: a dark estimate carries no phase information). R is
        written into `out` when it is given, which may be G."""
        with np.errstate(divide="ignore", invalid="ignore"):
            f, d = self.fwd_deriv(z)
            # 2.0 * (f - T(y)) * d * G in its left-to-right order, in place:
            # the same bits without a temporary per step
            f -= self.fwd(y)
            f *= 2.0
            f *= d
            R = np.multiply(f, G, out=out)
        R[z == 0] = 0
        return R


def _power_transform(alpha: float) -> Transform:
    if not 0 < alpha <= 1:
        raise ValueError(f"power-law exponent must be in (0, 1], got {alpha}")

    def fwd(z):
        return np.power(z, alpha)

    def inv(v):
        r = np.maximum(v, 0.0)
        return np.power(r, 1.0 / alpha, out=_in_place(r))

    def fwd_deriv(z):
        d = np.power(z, alpha - 1)
        return fwd(z), np.multiply(alpha, d, out=_in_place(d))

    return Transform(f"pow_{alpha}", fwd, inv, fwd_deriv)


def _shifted_sqrt(name: str, shift: float) -> Transform:
    def fwd(z):
        r = np.add(z, shift)
        return np.sqrt(r, out=_in_place(r))

    def inv(v):
        r = np.maximum(v, 0.0)
        r = np.square(r, out=_in_place(r))  # the bits of ** 2
        r -= shift
        return r

    def fwd_deriv(z):
        r = fwd(z)
        return r, 0.5 / r

    return Transform(name, fwd, inv, fwd_deriv)


def _shifted_log(name: str, shift: float) -> Transform:
    def fwd(z):
        u = np.add(z, shift)
        return np.log(u, out=_in_place(u))

    def inv(v):
        r = np.exp(v)
        r -= shift
        return r

    def fwd_deriv(z):
        u = np.add(z, shift)
        return np.log(u), np.divide(1.0, u, out=_in_place(u))

    return Transform(name, fwd, inv, fwd_deriv)


def _identity() -> Transform:
    def fwd(z):
        return np.array(z, dtype=float)

    def fwd_deriv(z):
        f = fwd(z)
        return f, np.ones_like(f)

    return Transform("identity", fwd, fwd, fwd_deriv)


TRANSFORMS = {
    "identity": _identity(),
    "sqrt": _shifted_sqrt("sqrt", 0.0),
    "anscombe": _shifted_sqrt("anscombe", 3.0 / 8.0),
    "sqrt_plus_1": _shifted_sqrt("sqrt_plus_1", 1.0),
    "pow_0.7": _power_transform(0.7),
    "pow_0.9": _power_transform(0.9),
    "log_half": _shifted_log("log_half", 0.5),
    "log_1": _shifted_log("log_1", 1.0),
}


@dataclass(frozen=True)
class PoissonLogLikelihood:
    """Negative Poisson log-likelihood: sum of z - y log(z + eps).

    eps regularizes the log and the y/z gradient term, which otherwise
    diverge at dark pixels. eps <= 0 means "derive from the data":
    eps = 1e-8 * mean(y) at evaluation time, the mean taken over each 2D
    pattern on its own, so a stack of patterns gets the eps of each.
    """

    epsilon: float = 0.0

    name = "poisson_loglik"

    def eps_for(self, y: np.ndarray):
        """The eps for y: a float, or an array that broadcasts against y
        with one value per 2D pattern."""
        if self.epsilon > 0:
            return self.epsilon
        return 1e-8 * np.maximum(np.mean(y, axis=(-2, -1), keepdims=True),
                                 1e-300)

    def cost(self, z: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(z - y * np.log(z + self.eps_for(y))))

    def residual(self, G: np.ndarray, z: np.ndarray, y: np.ndarray,
                 out=None) -> np.ndarray:
        """R = (1 - y / (z + eps)) G, written into `out` when it is given,
        which may be G."""
        q = np.add(z, self.eps_for(y))
        q = np.divide(y, q, out=_in_place(q))
        q = np.subtract(1.0, q, out=_in_place(q))
        return np.multiply(q, G, out=out)


def functional_by_name(name: str, epsilon: float = 0.0):
    """Resolve a stable string identifier to a cost functional."""
    if name == "poisson_loglik":
        return PoissonLogLikelihood(epsilon)
    if name in TRANSFORMS:
        return TRANSFORMS[name]
    raise ValueError(f"unknown cost functional {name!r}")


FUNCTIONAL_NAMES = list(TRANSFORMS) + ["poisson_loglik"]


def cost_eval(functional, z: np.ndarray, y: np.ndarray) -> float:
    """Evaluate a cost functional on estimated (z) and measured (y)
    intensities; both may be single grids or stacks. A data-derived
    Poisson eps is taken per 2D pattern, so each scan position of a
    (P, h, w) stack gets its own."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: z {z.shape} vs y {y.shape}")
    return functional.cost(z, y)


def gradient_residual(functional, G: np.ndarray, y: np.ndarray,
                      out=None) -> np.ndarray:
    """Fourier-domain residual R(u) with dL/dg* = idft2(R, window) for
    the window-sized exit wave g, z = |G|^2; the functional's `residual`
    gives its formula. No input is written unless it is `out`:
    R is written there when it is given, and it may be G itself, the far
    field of a caller that owns it and reads it no more."""
    if G.shape != y.shape:
        raise ValueError(f"shape mismatch: G {G.shape} vs y {y.shape}")
    z = np.abs(G)
    z *= z  # |G|^2, the bits of np.abs(G) ** 2
    return functional.residual(G, z, y, out=out)


def taylor_gap(z: float, y: float) -> float:
    """Remainder of the quadratic expansion of z - y log z around z = y:
    (z - y log z) - (y - y log y + 2 (sqrt(z) - sqrt(y))^2).

    Third order in (sqrt(z) - sqrt(y)); used by property tests.
    """
    if z <= 0 or y <= 0:
        raise ValueError("taylor_gap requires positive z and y")
    exact = z - y * math.log(z)
    quadratic = y - y * math.log(y) + 2.0 * (math.sqrt(z) - math.sqrt(y)) ** 2
    return exact - quadratic
