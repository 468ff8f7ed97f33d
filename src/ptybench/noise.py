"""Photon-budget scaling and seeded Poisson / speckle noise sampling.

Samplers draw one independent substream per pattern, keyed by
(seed, pattern index), so adding patterns to a stack never changes the
draws of earlier patterns.

This module also owns the photon-budget rule, `check_budget`, which
`budget_scale` and a config's `validate()` apply, and the two rules on
intensity buffers that `forward` and `engine` share: `float_buffer` checks
an `out=` stack, and `require_nonnegative` refuses a negative intensity.
"""

import math
from enum import Enum

import numpy as np


class NoiseModel(Enum):
    NOISE_FREE = "noise_free"
    POISSON = "poisson"
    SPECKLE = "speckle"


def check_budget(photons_per_pattern: float) -> float:
    """The photon budget, refused unless it is positive and finite."""
    if not 0.0 < photons_per_pattern < math.inf:
        raise ValueError(f"photon budget must be positive and finite, "
                         f"got {photons_per_pattern}")
    return photons_per_pattern


def budget_scale(stack, photons_per_pattern: float) -> float:
    """The one global factor that scales a stack of patterns so the mean
    per-pattern total intensity equals the photon budget.

    A single scalar preserves relative brightness across positions.
    """
    check_budget(photons_per_pattern)
    mean_total = np.mean([p.sum() for p in stack])
    if mean_total == 0:
        raise ValueError("cannot scale an all-zero stack to a photon budget")
    return photons_per_pattern / mean_total


def scale_to_budget(stack: np.ndarray, photons_per_pattern: float) -> np.ndarray:
    """The stack scaled by its `budget_scale`."""
    return stack * budget_scale(stack, photons_per_pattern)


def _pattern_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def float_buffer(shape: tuple, out=None) -> np.ndarray:
    """`out`, checked to be a float array of `shape`, or a new such array."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != float:
        raise ValueError(f"out must be a float array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    return out


def require_nonnegative(x: np.ndarray, what: str):
    """Refuse `x` if it holds a negative value. NaN is skipped, as by
    np.any(x < 0), and no boolean array is made."""
    if np.fmin.reduce(x, axis=None, initial=0.0) < 0:
        raise ValueError(f"{what} must be nonnegative")


def sample_poisson(means: np.ndarray, seed: int, out=None) -> np.ndarray:
    """Independent Poisson draws with the given per-pixel means (integer
    counts, float array), written into `out` when it is given."""
    require_nonnegative(means, "Poisson means")
    out = float_buffer(means.shape, out)
    for j in range(len(means)):
        out[j] = _pattern_rng(seed, j).poisson(means[j])
    return out


def sample_speckle(means: np.ndarray, seed: int, out=None) -> np.ndarray:
    """Independent exponential draws with the given per-pixel means
    (fully developed speckle: intensity ~ Exp(mean)), written into `out`
    when it is given."""
    require_nonnegative(means, "speckle means")
    out = float_buffer(means.shape, out)
    u = np.empty(means.shape[1:])  # one pattern's draws, reused
    for j in range(len(means)):
        _pattern_rng(seed, j).random(out=u)  # [0, 1)
        # -means[j] * log1p(-u), mean * Exp(1), computed in u and in
        # pattern j of out, which may be means (a view also for 1-D stacks)
        mean, draw = means[j, ...], out[j, ...]
        np.log1p(np.negative(u, out=u), out=u)
        np.multiply(np.negative(mean, out=draw), u, out=draw)
    return out


def apply_noise(stack: np.ndarray, model: NoiseModel, seed: int,
                out=None) -> np.ndarray:
    """A draw of `model`'s noise on the mean stack, written into `out` (a
    float array of the stack's shape) when it is given, so no second stack
    is allocated; the draw is the same either way."""
    if model is NoiseModel.NOISE_FREE:
        out = float_buffer(stack.shape, out)
        np.copyto(out, stack)
        return out
    if model is NoiseModel.POISSON:
        return sample_poisson(stack, seed, out)
    if model is NoiseModel.SPECKLE:
        return sample_speckle(stack, seed, out)
    raise ValueError(f"unknown noise model {model!r}")


def poisson_log_pmf(y: int, m: float) -> float:
    """log P(y | m) for the Poisson distribution, numerically stable."""
    if m <= 0:
        raise ValueError(f"Poisson mean must be positive, got {m}")
    if y < 0 or y != int(y):
        raise ValueError(f"count must be a nonnegative integer, got {y}")
    return y * math.log(m) - m - math.lgamma(y + 1)
