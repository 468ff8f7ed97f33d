"""Complex 2D field helpers: unitary FFTs, centered padding and cropping.

Grids are numpy arrays whose last two axes are the grid (complex128 for
fields, float64 for intensities): a single 2D grid, or a stack of grids
along leading axes, each of which is transformed, padded or cropped on its
own. All transforms use unitary normalization so Parseval's theorem holds
without bookkeeping: ||dft2(x)|| == ||x||.
"""

import numpy as np


def dft2(field: np.ndarray) -> np.ndarray:
    """2D DFT over the last two axes with unitary normalization, zero
    frequency at index (0, 0)."""
    if field.ndim < 2:
        raise ValueError("dft2 expects an array of at least 2 dimensions")
    return np.fft.fft2(field, norm="ortho")


def idft2(field: np.ndarray) -> np.ndarray:
    """Exact inverse of dft2 (unitary normalization)."""
    if field.ndim < 2:
        raise ValueError("idft2 expects an array of at least 2 dimensions")
    return np.fft.ifft2(field, norm="ortho")


def zero_pad_center(field: np.ndarray, factor: int) -> np.ndarray:
    """Embed the grid(s) of `field` in the centered window of a `factor`
    times larger grid.

    factor = 1 returns a copy. The centered window starts at offset
    floor((big - small) / 2) in each of the last two axes.
    """
    if factor < 1:
        raise ValueError(f"padding factor must be >= 1, got {factor}")
    if factor == 1:
        return field.copy()
    *lead, h, w = field.shape
    out = np.zeros((*lead, factor * h, factor * w), dtype=field.dtype)
    r0 = (factor * h - h) // 2
    c0 = (factor * w - w) // 2
    out[..., r0:r0 + h, c0:c0 + w] = field
    return out


def crop_center(field: np.ndarray, height: int, width: int) -> np.ndarray:
    """Return the centered height x width sub-window of the grid(s) of
    `field`.

    Uses the same floor((big - small) / 2) offset as zero_pad_center, so
    crop_center(zero_pad_center(x, f), *x.shape) == x exactly.
    """
    h, w = field.shape[-2:]
    if height > h or width > w:
        raise ValueError(
            f"crop target {height}x{width} exceeds source {h}x{w}"
        )
    r0 = (h - height) // 2
    c0 = (w - width) // 2
    return field[..., r0:r0 + height, c0:c0 + width].copy()
