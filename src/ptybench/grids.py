"""Complex 2D field helpers: unitary FFTs, centered padding and cropping.

Grids are numpy arrays whose last two axes are the grid (complex128 for
fields, float64 for intensities): a single 2D grid, or a stack of grids
along leading axes, each of which is transformed, padded or cropped on its
own. All transforms use unitary normalization so Parseval's theorem holds
without bookkeeping: ||dft2(x)|| == ||x||.
"""

import numpy as np


# numpy's fft2/ifft2 run a 1-D pass over the last axis, then one over axis
# -2, and with norm="ortho" each pass scales by 1/sqrt(n) on its own; the
# two passes called directly give the same bits without fft2's argument
# handling, the second one in place (out=: numpy >= 2.0).

def dft2(field: np.ndarray) -> np.ndarray:
    """2D DFT over the last two axes with unitary normalization, zero
    frequency at index (0, 0); bit for bit np.fft.fft2(field, norm="ortho")."""
    if field.ndim < 2:
        raise ValueError("dft2 expects an array of at least 2 dimensions")
    out = np.fft.fft(field, axis=-1, norm="ortho")
    return np.fft.fft(out, axis=-2, norm="ortho", out=out)


def idft2(field: np.ndarray) -> np.ndarray:
    """Exact inverse of dft2 (unitary normalization); bit for bit
    np.fft.ifft2(field, norm="ortho")."""
    if field.ndim < 2:
        raise ValueError("idft2 expects an array of at least 2 dimensions")
    out = np.fft.ifft(field, axis=-1, norm="ortho")
    return np.fft.ifft(out, axis=-2, norm="ortho", out=out)


def center_offset(big: int, small: int) -> int:
    """Start of the centered length-`small` window in a length-`big` axis,
    floor((big - small) / 2); every centered pad and crop uses it."""
    return (big - small) // 2


def zero_pad_center(field: np.ndarray, factor: int) -> np.ndarray:
    """Embed the grid(s) of `field` in the centered window of a `factor`
    times larger grid.

    factor = 1 returns a copy. The centered window starts at offset
    floor((big - small) / 2) in each of the last two axes.
    """
    if factor < 1:
        raise ValueError(f"padding factor must be >= 1, got {factor}")
    *lead, h, w = field.shape
    out = np.zeros((*lead, factor * h, factor * w), dtype=field.dtype)
    r0 = center_offset(factor * h, h)
    c0 = center_offset(factor * w, w)
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
    r0 = center_offset(h, height)
    c0 = center_offset(w, width)
    return field[..., r0:r0 + height, c0:c0 + width].copy()
