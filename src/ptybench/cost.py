"""Cost functionals on intensity data and their Wirtinger gradients.

Two families are implemented:

* variance-stabilized squared differences, sum (T(z) - T(y))^2, for a
  registry of monotone transforms T (sqrt, Anscombe, shifted sqrt,
  power laws, shifted logs, identity);
* the negative Poisson log-likelihood, sum z - y log(z + eps), with the
  constant log(y!) term dropped.

Gradients are returned as the Fourier-domain residual R(u) such that
dL/dg*(x) = idft2(R), with z = |G|^2 computed internally.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Transform:
    """A monotone intensity transform with derivative and inverse; as a
    cost functional it is the variance-stabilized sum (T(z) - T(y))^2."""

    name: str
    fwd: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]

    def cost(self, z: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum((self.fwd(z) - self.fwd(y)) ** 2))

    def residual(self, G: np.ndarray, z: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """R = 2 (T(z) - T(y)) T'(z) G, set to 0 where z = 0 (limit
        convention: a dark estimate carries no phase information)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            R = 2.0 * (self.fwd(z) - self.fwd(y)) * self.deriv(z) * G
        R[z == 0] = 0
        return R


def _power_transform(alpha: float) -> Transform:
    if not 0 < alpha <= 1:
        raise ValueError(f"power-law exponent must be in (0, 1], got {alpha}")
    return Transform(
        name=f"pow_{alpha}",
        fwd=lambda z: np.power(z, alpha),
        deriv=lambda z: alpha * np.power(z, alpha - 1),
        inv=lambda v: np.power(np.maximum(v, 0.0), 1.0 / alpha),
    )


def _shifted_sqrt(name: str, shift: float) -> Transform:
    return Transform(
        name=name,
        fwd=lambda z: np.sqrt(z + shift),
        deriv=lambda z: 0.5 / np.sqrt(z + shift),
        inv=lambda v: np.maximum(v, 0.0) ** 2 - shift,
    )


def _shifted_log(name: str, shift: float) -> Transform:
    return Transform(
        name=name,
        fwd=lambda z: np.log(z + shift),
        deriv=lambda z: 1.0 / (z + shift),
        inv=lambda v: np.exp(v) - shift,
    )


TRANSFORMS = {
    "identity": Transform("identity", lambda z: np.asarray(z, dtype=float),
                          lambda z: np.ones_like(np.asarray(z, dtype=float)),
                          lambda v: np.asarray(v, dtype=float)),
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

    def residual(self, G: np.ndarray, z: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """R = (1 - y / (z + eps)) G."""
        return (1.0 - y / (z + self.eps_for(y))) * G


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


def gradient_residual(functional, G: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fourier-domain residual R(u) with dL/dg* = idft2(R), z = |G|^2;
    the functional's `residual` gives its formula."""
    if G.shape != y.shape:
        raise ValueError(f"shape mismatch: G {G.shape} vs y {y.shape}")
    return functional.residual(G, np.abs(G) ** 2, y)


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
