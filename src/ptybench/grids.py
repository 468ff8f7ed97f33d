"""Complex 2D field helpers: unitary FFTs, centered padding and cropping.

Grids are numpy arrays whose last two axes are the grid (complex128 for
fields, float64 for intensities): a single 2D grid, or a stack of grids
along leading axes, each of which is transformed, padded or cropped on its
own. All transforms use unitary normalization so Parseval's theorem holds
without bookkeeping: ||dft2(x)|| == ||x||. This module owns every unitary
DFT pass: `dft2(x, factor)` is the far field of x zero-padded by the
oversampling factor, and `idft2(F, window)` its inverse cropped back to the
window, the exit wave of a far field.
"""

import numpy as np


# numpy's fft2/ifft2 run a 1-D pass over the last axis, then one over axis
# -2, and with norm="ortho" each pass scales by 1/sqrt(n) on its own; the
# two passes called directly give the same bits without fft2's argument
# handling, the second one in place (out=: numpy >= 2.0). Skipping the
# lines of a pass that are all zero on input or thrown away on output then
# gives the padded and cropped transforms bit for bit (FFT pruning; Markel,
# IEEE Trans. Audio Electroacoust. 19, 305 (1971)).

def dft2(field: np.ndarray, factor: int = 1) -> np.ndarray:
    """2D DFT over the last two axes of `field` zero-padded by `factor`,
    with unitary normalization and zero frequency at index (0, 0); bit for
    bit np.fft.fft2(zero_pad_center(field, factor), norm="ortho").

    Above factor 1 the first (last-axis) pass runs only on the field's own
    rows, since the padding rows transform to zero. Both passes run in the
    padded grid, which is the one full-size array a call allocates.
    """
    if field.ndim < 2:
        raise ValueError("dft2 expects an array of at least 2 dimensions")
    if factor == 1:  # the same bits as the padded path, without its copy
        out = np.fft.fft(field, axis=-1, norm="ortho")
    else:
        out = zero_pad_center(field, factor)
        h = field.shape[-2]
        r0 = center_offset(out.shape[-2], h)
        rows = out[..., r0:r0 + h, :]
        # in place on a complex grid; a real field's rows transform from
        # real input, as np.fft.fft2's would, into a new array
        rows = np.fft.fft(rows, axis=-1, norm="ortho",
                          out=rows if np.iscomplexobj(rows) else None)
        out = out.astype(rows.dtype, copy=False)  # complex, as fft2 gives
        out[..., r0:r0 + h, :] = rows  # no copy when the pass ran in place
    return np.fft.fft(out, axis=-2, norm="ortho", out=out)


def idft2(field: np.ndarray, window: tuple = None) -> np.ndarray:
    """Inverse of dft2 (unitary normalization), cropped to the centered
    `window` (height, width), the whole grid when it is None; bit for bit
    crop_center(np.fft.ifft2(field, norm="ortho"), *window).

    For a window smaller than the grid the second (axis -2) pass runs only
    on the window's own columns, since the others are cropped away.
    """
    if field.ndim < 2:
        raise ValueError("idft2 expects an array of at least 2 dimensions")
    H, W = field.shape[-2:]
    h, w = (H, W) if window is None else window
    out = np.fft.ifft(field, axis=-1, norm="ortho")
    if (h, w) == (H, W):  # the same bits as the crop path, without its copies
        return np.fft.ifft(out, axis=-2, norm="ortho", out=out)
    cols = crop_center(out, H, w)
    np.fft.ifft(cols, axis=-2, norm="ortho", out=cols)
    return crop_center(cols, h, w)


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
