"""Forward models: probes, scan geometries, objects, diffraction stacks.

Two ptychography modes are supported. In real-space mode the probe scans
the object directly. Fourier-space mode is implemented through the duality
with real-space mode: the same pipeline is applied to the Fourier transform
of the object, with the probe acting as the pupil aperture.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import dft2, zero_pad_center


class Mode(Enum):
    REAL_SPACE = "real_space"
    FOURIER_SPACE = "fourier_space"


@dataclass(frozen=True)
class ScanGeometry:
    """Ordered probe positions (row, col offsets of the window's top-left
    corner), the probe window shape, and the object shape."""

    positions: tuple  # tuple of (row, col) int pairs
    window: tuple     # (height, width)
    object_dims: tuple  # (height, width)

    def __post_init__(self):
        wh, ww = self.window
        oh, ow = self.object_dims
        for (r, c) in self.positions:
            if r < 0 or c < 0 or r + wh > oh or c + ww > ow:
                raise ValueError(
                    f"window at ({r}, {c}) leaves the {oh}x{ow} object"
                )


@dataclass
class Dataset:
    """A stack of measured diffraction intensities plus its geometry.

    patterns has shape (n_positions, s*wh, s*ww) with s the oversampling
    factor; a batch of datasets that share the geometry and probe, such as
    several noise realizations, has shape (n_positions, R, s*wh, s*ww), so
    patterns[j] is the stack of the R patterns at position j. probe is the
    window-sized complex illumination.
    """

    mode: Mode
    geometry: ScanGeometry
    oversampling: int
    patterns: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        if len(self.patterns) != len(self.geometry.positions):
            raise ValueError("one pattern per scan position required")
        if np.any(self.patterns < 0):
            raise ValueError("intensity patterns must be nonnegative")


def make_probe(kind: str, radius: float, window: tuple) -> np.ndarray:
    """Build a unit-peak, zero-phase probe on the given window.

    kind "tophat": 1 inside the centered disc of `radius`, 0 outside.
    kind "gaussian": exp(-r^2 / (2 radius^2)), truncated at the window edge.
    """
    wh, ww = window
    if radius > min(wh, ww) / 2:
        raise ValueError(
            f"probe radius {radius} exceeds half the window {window}"
        )
    rows = np.arange(wh) - (wh - 1) / 2
    cols = np.arange(ww) - (ww - 1) / 2
    r2 = rows[:, None] ** 2 + cols[None, :] ** 2
    if kind == "tophat":
        if radius == 0:
            # degenerate disc: single pixel nearest the center
            probe = np.zeros(window)
            probe[wh // 2, ww // 2] = 1.0
        else:
            probe = (r2 <= radius ** 2).astype(float)
    elif kind == "gaussian":
        if radius <= 0:
            raise ValueError("gaussian probe needs radius > 0")
        probe = np.exp(-r2 / (2 * radius ** 2))
        # unit peak even on even-sized windows where the geometric center
        # falls between pixels
        probe = probe / probe.max()
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    return probe.astype(complex)


def raster_positions(object_dims: tuple, window: tuple, step: int,
                     jitter: int = 0, seed: int = 0) -> ScanGeometry:
    """Rectangular raster over the object with optional integer jitter.

    Each nominal position is perturbed by an independent uniform integer
    in [-jitter, +jitter] per axis (seeded) and clamped so the window
    stays inside the object.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if jitter >= step / 2 and jitter > 0:
        raise ValueError("jitter must be < step/2")
    oh, ow = object_dims
    wh, ww = window
    if wh > oh or ww > ow:
        raise ValueError("window larger than object; no valid position")
    rng = np.random.default_rng(seed)
    rows = list(range(0, oh - wh + 1, step))
    cols = list(range(0, ow - ww + 1, step))
    # make sure the far edge is reached
    if rows[-1] != oh - wh:
        rows.append(oh - wh)
    if cols[-1] != ow - ww:
        cols.append(ow - ww)
    positions = []
    for r in rows:
        for c in cols:
            if jitter > 0:
                r_j = r + rng.integers(-jitter, jitter + 1)
                c_j = c + rng.integers(-jitter, jitter + 1)
            else:
                r_j, c_j = r, c
            r_j = int(np.clip(r_j, 0, oh - wh))
            c_j = int(np.clip(c_j, 0, ow - ww))
            positions.append((r_j, c_j))
    return ScanGeometry(tuple(positions), (wh, ww), (oh, ow))


def exit_wave(obj: np.ndarray, probe: np.ndarray, position: tuple) -> np.ndarray:
    """Window-sized product O(x) * P(x - X) at the given position; an
    object stack (..., H, W) gives the stack of its exit waves."""
    r, c = position
    wh, ww = probe.shape
    oh, ow = obj.shape[-2:]
    if r < 0 or c < 0 or r + wh > oh or c + ww > ow:
        raise ValueError(f"probe window at ({r}, {c}) out of bounds")
    return obj[..., r:r + wh, c:c + ww] * probe


def far_field(exit_field: np.ndarray, oversampling: int) -> np.ndarray:
    """Far field F{exit wave zero-padded by the oversampling factor}."""
    return dft2(zero_pad_center(exit_field, oversampling))


def diffract(exit_field: np.ndarray, oversampling: int) -> np.ndarray:
    """Far-field intensity |F{padded exit wave}|^2."""
    return np.abs(far_field(exit_field, oversampling)) ** 2


def simulate_dataset(obj: np.ndarray, probe: np.ndarray,
                     geometry: ScanGeometry, mode: Mode,
                     oversampling: int = 1) -> np.ndarray:
    """Noise-free intensity stack, shape (n_positions, s*wh, s*ww).

    Fourier-space mode runs the identical pipeline on dft2(obj); the probe
    then plays the role of the pupil aperture.
    """
    effective = obj if mode is Mode.REAL_SPACE else dft2(obj)
    wh, ww = geometry.window
    s = oversampling
    stack = np.empty((len(geometry.positions), s * wh, s * ww))
    for j, pos in enumerate(geometry.positions):
        stack[j] = diffract(exit_wave(effective, probe, pos), s)
    return stack


def synthesize_object(kind: str, dims: tuple,
                      amplitude_range: tuple = (0.2, 1.0),
                      phase_range: tuple = (-np.pi / 2, np.pi / 2),
                      seed: int = 0) -> np.ndarray:
    """Generate a complex test object.

    "checkerboard_text": hard-edged piecewise-constant amplitude (two-valued
    checkerboard) with a blocky random phase pattern.
    "smooth_portrait": band-limited smooth random fields for amplitude and
    phase, mimicking natural-image statistics.
    """
    a_lo, a_hi = amplitude_range
    p_lo, p_hi = phase_range
    if not (0 < a_lo <= a_hi <= 1):
        raise ValueError(f"amplitude range must lie in (0, 1], got {amplitude_range}")
    if not (-np.pi <= p_lo <= p_hi <= np.pi):
        raise ValueError(f"phase range must lie in [-pi, pi], got {phase_range}")
    h, w = dims
    rng = np.random.default_rng(seed)
    if kind == "checkerboard_text":
        cell = max(2, min(h, w) // 8)
        rr, cc = np.meshgrid(np.arange(h) // cell, np.arange(w) // cell,
                             indexing="ij")
        amp = np.where((rr + cc) % 2 == 0, a_hi, a_lo)
        # blocky random phase, piecewise constant on larger cells
        pcell = max(2, min(h, w) // 4)
        ph_blocks = rng.uniform(p_lo, p_hi,
                                ((h + pcell - 1) // pcell,
                                 (w + pcell - 1) // pcell))
        phase = ph_blocks[np.arange(h) // pcell][:, np.arange(w) // pcell]
    elif kind == "smooth_portrait":
        amp = _bandlimited_field(rng, dims, a_lo, a_hi)
        phase = _bandlimited_field(rng, dims, p_lo, p_hi)
    else:
        raise ValueError(f"unknown object kind {kind!r}")
    return amp * np.exp(1j * phase)


def _bandlimited_field(rng, dims, lo, hi):
    """Smooth random field rescaled to [lo, hi] (returns constant lo==hi)."""
    h, w = dims
    white = rng.standard_normal(dims)
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    # 1/f^2-style rolloff keeps only low spatial frequencies
    filt = 1.0 / (1.0 + (np.hypot(fy, fx) * min(h, w) / 4) ** 2)
    field = np.fft.ifft2(np.fft.fft2(white) * filt).real
    span = field.max() - field.min()
    if span == 0 or lo == hi:
        return np.full(dims, lo)
    return lo + (hi - lo) * (field - field.min()) / span
