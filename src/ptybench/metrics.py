"""Reconstruction error, invariant to the global phase and scale
ambiguities inherent to modulus-only data, restricted to the illuminated
region of the object."""

import numpy as np

from .forward import ScanGeometry


class AlignmentUndefined(ValueError, ArithmeticError):
    """Zero estimate on the mask: an arithmetic failure, not a bad input."""


def illumination_mask(probe: np.ndarray, geometry: ScanGeometry,
                      threshold: float = 0.1) -> np.ndarray:
    """Boolean mask of pixels where the accumulated probe intensity
    sum_X |P(x - X)|^2 reaches `threshold` times its maximum."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    coverage = np.zeros(geometry.object_dims)
    wh, ww = probe.shape
    intensity = np.abs(probe) ** 2
    if not 0.0 < intensity.max() < np.inf:
        raise ValueError(f"probe intensity must have a finite positive "
                         f"peak, got {intensity.max()}")
    for (r, c) in geometry.positions:
        coverage[r:r + wh, c:c + ww] += intensity
    mask = coverage >= threshold * coverage.max()
    if not mask.any():
        raise ValueError("illumination mask is empty; lower the threshold")
    return mask


def align_and_error(estimate: np.ndarray, truth: np.ndarray,
                    mask: np.ndarray = None) -> float:
    """Relative L2 error after least-squares global phase/scale alignment.

    c = <truth, estimate> / <estimate, estimate> over the mask, then
    ||c * estimate - truth|| / ||truth||. A truth that is zero on the mask
    has no relative error: it is a bad input, and raises a plain ValueError.
    """
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must share dimensions")
    if mask is None:
        mask = np.ones(truth.shape, dtype=bool)
    e = estimate[mask]
    t = truth[mask]
    norm = np.linalg.norm(t)
    if norm == 0:
        raise ValueError("ground truth is zero on the mask; relative error "
                         "undefined")
    denom = np.vdot(e, e)
    if denom == 0:
        raise AlignmentUndefined("estimate is zero on the mask; alignment "
                                 "undefined")
    c = np.vdot(e, t) / denom
    return float(np.linalg.norm(c * e - t) / norm)
