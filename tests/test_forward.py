import numpy as np
import pytest

from ptybench import (Dataset, Mode, ScanGeometry, crop_center, dft2,
                      diffract, exit_wave, idft2, make_probe, raster_positions,
                      simulate_dataset, synthesize_object, zero_pad_center)


def random_object(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- probes ---------------------------------------------------------------

def test_tophat_radius_zero_single_pixel():
    probe = make_probe("tophat", 0, (8, 8))
    assert np.count_nonzero(probe) == 1
    assert probe[4, 4] == 1.0


def test_tophat_pixel_count_matches_enumeration():
    radius, window = 4, (16, 16)
    probe = make_probe("tophat", radius, window)
    # brute-force disc rasterization oracle
    count = 0
    for i in range(16):
        for j in range(16):
            if (i - 7.5) ** 2 + (j - 7.5) ** 2 <= radius ** 2:
                count += 1
    assert np.count_nonzero(probe == 1.0) == count
    assert np.count_nonzero(probe) == count


def test_gaussian_center_and_radius_values():
    # odd window so a pixel sits exactly at the center
    probe = make_probe("gaussian", 4, (17, 17))
    assert probe[8, 8] == pytest.approx(1.0, abs=1e-12)
    assert probe[8, 12].real == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_probe_radius_too_large_raises():
    with pytest.raises(ValueError):
        make_probe("tophat", 10, (16, 16))


@pytest.mark.parametrize("kind", ["tophat", "gaussian"])
@pytest.mark.parametrize("radius", [-4.0, float("nan")])
def test_probe_radius_negative_or_nan_raises(kind, radius):
    with pytest.raises(ValueError, match="probe radius"):
        make_probe(kind, radius, (16, 16))


def test_gaussian_probe_radius_zero_raises():
    with pytest.raises(ValueError, match="gaussian probe needs radius > 0"):
        make_probe("gaussian", 0, (16, 16))


@pytest.mark.parametrize("kind, radius", [("tophat", 0.3),
                                          ("gaussian", 0.01)])
def test_probe_that_lights_no_pixel_raises(kind, radius):
    # the disc holds no pixel centre of the even window, and the gaussian
    # underflows to zero at every pixel
    with pytest.raises(ValueError, match="lights no pixel"):
        make_probe(kind, radius, (16, 16))


# --- scan geometry ---------------------------------------------------------

def test_raster_count_no_jitter():
    geom = raster_positions((64, 64), (32, 32), step=16, jitter=0)
    assert len(geom.positions) == 9


@pytest.mark.parametrize("seed", [0, 7])
def test_raster_without_jitter_is_the_nominal_raster(seed):
    geom = raster_positions((64, 64), (32, 32), step=16, jitter=0, seed=seed)
    assert geom.positions == tuple((r, c) for r in (0, 16, 32)
                                   for c in (0, 16, 32))
    assert all(type(v) is int for p in geom.positions for v in p)


def test_raster_determinism():
    a = raster_positions((64, 64), (32, 32), step=8, jitter=2, seed=7)
    b = raster_positions((64, 64), (32, 32), step=8, jitter=2, seed=7)
    assert a.positions == b.positions


def test_raster_windows_in_bounds_many_configs():
    rng = np.random.default_rng(0)
    for _ in range(500):
        oh = int(rng.integers(16, 100))
        ow = int(rng.integers(16, 100))
        wh = int(rng.integers(4, oh + 1))
        ww = int(rng.integers(4, ow + 1))
        step = int(rng.integers(1, max(2, min(wh, ww))))
        jitter = int(rng.integers(0, max(1, (step + 1) // 2)))
        geom = raster_positions((oh, ow), (wh, ww), step, jitter,
                                seed=int(rng.integers(1 << 31)))
        for (r, c) in geom.positions:
            assert 0 <= r <= oh - wh
            assert 0 <= c <= ow - ww


@pytest.mark.parametrize("step, jitter", [(0, 0), (8, -1), (8, 4)])
def test_raster_rejects_bad_step_or_jitter(step, jitter):
    with pytest.raises(ValueError, match="step"):
        raster_positions((64, 64), (32, 32), step, jitter)


def test_raster_rejects_window_larger_than_object():
    with pytest.raises(ValueError, match="larger than the object"):
        raster_positions((32, 32), (16, 40), 8)


def test_geometry_rejects_out_of_bounds_window():
    with pytest.raises(ValueError):
        ScanGeometry(((40, 0),), (32, 32), (64, 64))


# --- exit waves and diffraction ---------------------------------------------

def test_exit_wave_identity_object():
    probe = make_probe("gaussian", 3, (8, 8))
    obj = np.ones((16, 16), dtype=complex)
    assert np.array_equal(exit_wave(obj, probe, (4, 2)), probe)


def test_exit_wave_identity_probe():
    obj = random_object((16, 16), 0)
    probe = np.ones((8, 8), dtype=complex)
    assert np.array_equal(exit_wave(obj, probe, (3, 5)), obj[3:11, 5:13])


def test_exit_wave_matches_direct_loop():
    obj = random_object((12, 12), 1)
    probe = random_object((8, 8), 2)
    pos = (2, 3)
    got = exit_wave(obj, probe, pos)
    for i in range(8):
        for j in range(8):
            expected = obj[pos[0] + i, pos[1] + j] * probe[i, j]
            # vectorized and scalar complex multiplies may differ in the
            # last ulp
            assert got[i, j] == pytest.approx(expected, rel=1e-14)


def test_exit_wave_out_of_bounds_raises():
    with pytest.raises(ValueError):
        exit_wave(np.ones((8, 8), dtype=complex),
                  np.ones((4, 4), dtype=complex), (6, 0))


def test_diffract_zero_field():
    out = diffract(np.zeros((8, 8), dtype=complex), 2)
    assert out.shape == (16, 16)
    assert np.all(out == 0)


@pytest.mark.parametrize("oversampling", [1, 2, 5])
def test_diffract_energy_conservation(oversampling):
    exit_field = random_object((8, 8), 3)
    total = diffract(exit_field, oversampling).sum()
    assert total == pytest.approx(np.linalg.norm(exit_field) ** 2, rel=1e-10)


def test_diffract_single_pixel_constant():
    exit_field = np.zeros((8, 8), dtype=complex)
    a = 2.5 - 1.5j
    exit_field[3, 3] = a
    out = diffract(exit_field, 2)
    assert np.allclose(out, abs(a) ** 2 / 256, atol=1e-12)


# the pruned transforms rest on numpy's fft2/ifft2 running the last axis
# first, then axis -2, each pass scaled by 1/sqrt(n) on its own
@pytest.mark.parametrize("transform_2d, transform_1d",
                         [(np.fft.fft2, np.fft.fft),
                          (np.fft.ifft2, np.fft.ifft)],
                         ids=["forward", "inverse"])
def test_2d_transform_is_two_ortho_passes_last_axis_first(transform_2d,
                                                          transform_1d):
    x = random_object((4, 31, 29), 10)
    passes = transform_1d(transform_1d(x, axis=-1, norm="ortho"),
                          axis=-2, norm="ortho")
    assert np.array_equal(transform_2d(x, norm="ortho"), passes)


# the far field dft2(g, s) and its back-projection idft2(F, window) against
# numpy's full transforms; the pruning shapes are one 2D window, (R, h, w)
# stacks with R = 1, 4, 20, and an odd window
PRUNING_SHAPES = {"2d": (32, 32), "R1": (1, 32, 32), "R4": (4, 32, 32),
                  "R20": (20, 32, 32), "odd": (31, 29)}


@pytest.mark.parametrize("oversampling", [1, 2, 5])
@pytest.mark.parametrize("shape", PRUNING_SHAPES.values(),
                         ids=PRUNING_SHAPES.keys())
def test_far_field_is_the_padded_transform(shape, oversampling):
    g = random_object(shape, 11)
    assert np.array_equal(dft2(g, oversampling),
                          np.fft.fft2(zero_pad_center(g, oversampling),
                                      norm="ortho"))


# far fields of the pruning shapes, cropped to their own windows, two 8x8
# grids cropped to a shorter 5x8 window and one to a narrower 8x5 window
CROP_CASES = {"grid": ((8, 8), (5, 8)), "stack": ((3, 8, 8), (5, 8)),
              "narrow": ((8, 8), (8, 5)),
              **{key: (shape, shape[-2:])
                 for key, shape in PRUNING_SHAPES.items()}}


@pytest.mark.parametrize("oversampling", [1, 2, 5])
@pytest.mark.parametrize("shape, window", CROP_CASES.values(),
                         ids=CROP_CASES.keys())
def test_back_project_is_the_cropped_inverse(shape, window, oversampling):
    *lead, h, w = shape
    F = random_object((*lead, oversampling * h, oversampling * w), 8)
    assert np.array_equal(idft2(F, window),
                          crop_center(np.fft.ifft2(F, norm="ortho"), *window))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64])
def test_pruned_transforms_keep_the_dtype_of_the_full_ones(dtype):
    x = random_object((3, 31, 29), 12).real.astype(dtype)
    G, want = dft2(x, 5), np.fft.fft2(zero_pad_center(x, 5), norm="ortho")
    assert G.dtype == want.dtype
    assert np.array_equal(G, want)
    F = random_object((3, 155, 145), 13).real.astype(dtype)
    g = idft2(F, (31, 29))
    want = crop_center(np.fft.ifft2(F, norm="ortho"), 31, 29)
    assert g.dtype == want.dtype
    assert np.array_equal(g, want)


@pytest.mark.parametrize("oversampling", [1, 5])
@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.float32])
def test_transforms_and_diffract_write_no_input(dtype, oversampling):
    # the padded dft2 and the cropped idft2 run their passes in place in
    # arrays of their own, and diffract squares its modulus in place
    x = random_object((2, 9, 7), 14)
    x = (x if np.dtype(dtype).kind == "c" else x.real).astype(dtype)
    F = dft2(x, oversampling)
    kept_x, kept_F = x.tobytes(), F.tobytes()
    results = [dft2(x, oversampling), diffract(x, oversampling),
               idft2(F, (9, 7))]
    assert x.tobytes() == kept_x and F.tobytes() == kept_F
    assert not any(np.shares_memory(got, x) or np.shares_memory(got, F)
                   for got in results)
    assert np.array_equal(results[1], np.abs(F) ** 2)


def test_far_field_and_back_project_reject_bad_sizes():
    with pytest.raises(ValueError, match="factor must be >= 1"):
        dft2(np.zeros((8, 8), dtype=complex), 0)
    with pytest.raises(ValueError, match="exceeds"):
        idft2(np.zeros((8, 8), dtype=complex), (9, 8))


@pytest.mark.parametrize("oversampling", [1, 5])
@pytest.mark.parametrize("shape", [(8, 6), (3, 8, 6)], ids=["grid", "stack"])
def test_back_project_inverts_far_field(shape, oversampling):
    g = random_object(shape, 9)
    back = idft2(dft2(g, oversampling), g.shape[-2:])
    assert np.allclose(back, g, rtol=0, atol=1e-12)


# --- dataset simulation ------------------------------------------------------

def test_fourier_mode_duality():
    obj = random_object((32, 32), 4)
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=0)
    fourier = simulate_dataset(obj, probe, geom, Mode.FOURIER_SPACE, 1)
    real_of_spectrum = simulate_dataset(dft2(obj), probe, geom,
                                        Mode.REAL_SPACE, 1)
    assert np.allclose(fourier, real_of_spectrum, atol=1e-10)


def test_stack_length_matches_positions():
    obj = random_object((32, 32), 5)
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=1, seed=3)
    stack = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    assert len(stack) == len(geom.positions)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("oversampling", [1, 5])
def test_object_stack_gives_batched_patterns(mode, oversampling):
    objs = [random_object((32, 32), 6), random_object((32, 32), 7)]
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=1, seed=3)
    stack = simulate_dataset(np.stack(objs), probe, geom, mode, oversampling)
    assert stack.shape == (len(geom.positions), 2, 16 * oversampling,
                           16 * oversampling)
    for k, obj in enumerate(objs):
        assert np.array_equal(stack[:, k], simulate_dataset(
            obj, probe, geom, mode, oversampling))


@pytest.mark.parametrize("oversampling", [1, 5])
def test_simulate_into_out_matches_the_returned_stack(oversampling):
    obj = random_object((32, 32), 9)
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=1, seed=3)
    want = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, oversampling)
    # one realization's strided slice of a pattern stack, as a grid draws
    stack = np.full((len(want), 2) + want.shape[1:], np.nan)
    buf = stack[:, 1]
    assert simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, oversampling,
                            out=buf) is buf
    assert np.array_equal(buf, want)
    assert np.isnan(stack[:, 0]).all()  # nothing written outside out


@pytest.mark.parametrize("out", [
    np.empty((9, 16, 15)), np.empty((2, 9, 16, 16)),
    np.empty((9, 16, 16), dtype=np.float32),
    np.empty((9, 16, 16), dtype=complex)],
    ids=["shape", "broadcast", "float32", "complex"])
def test_simulate_refuses_an_out_that_is_not_the_stack(out):
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=0)
    assert len(geom.positions) == 9
    with pytest.raises(ValueError, match="out must be a float array"):
        simulate_dataset(random_object((32, 32), 9), probe, geom,
                         Mode.REAL_SPACE, 1, out=out)


def test_dataset_reads_its_oversampling_and_refuses_misfit_shapes():
    obj = random_object((32, 32), 8)
    probe = make_probe("tophat", 6, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=0)
    n = len(geom.positions)
    for s in (1, 5):
        for o in (obj, np.stack([obj, obj])):
            patterns = simulate_dataset(o, probe, geom, Mode.REAL_SPACE, s)
            assert Dataset(geom, patterns, probe).oversampling == s
    patterns = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    with pytest.raises(ValueError, match=r"probe shape \(8, 8\) .* "
                                         r"window \(16, 16\)"):
        Dataset(geom, patterns, make_probe("tophat", 3, (8, 8)))
    for shape in ((24, 24), (80, 16), (8, 8)):
        with pytest.raises(ValueError, match=rf"pattern shape \({shape[0]}, "
                                             rf"{shape[1]}\) .* window "
                                             r"\(16, 16\)"):
            Dataset(geom, np.zeros((n,) + shape), probe)
    with pytest.raises(ValueError, match="one pattern per scan position"):
        Dataset(geom, patterns[:-1], probe)
    negative = patterns.copy()
    negative[0, 0, 0] = -1.0
    with pytest.raises(ValueError, match="must be nonnegative"):
        Dataset(geom, negative, probe)
    # NaN first: a NaN-propagating minimum would pass it
    negative[0, 0, 0], negative[-1, -1, -1] = np.nan, -1.0
    with pytest.raises(ValueError, match="must be nonnegative"):
        Dataset(geom, negative, probe)
    with pytest.raises(AttributeError):
        Dataset(geom, patterns, probe).oversampling = 5


def test_constant_object_gives_identical_patterns():
    obj = np.full((32, 32), 0.8 + 0.1j)
    probe = make_probe("gaussian", 4, (16, 16))
    geom = raster_positions((32, 32), (16, 16), step=8, jitter=0)
    stack = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    for pattern in stack[1:]:
        assert np.allclose(pattern, stack[0], atol=1e-12)


# --- synthetic objects -------------------------------------------------------

def test_degenerate_ranges_give_constant_object():
    obj = synthesize_object("checkerboard_text", (16, 16), (1, 1), (0, 0))
    assert np.allclose(obj, 1.0 + 0.0j, atol=1e-14)


def test_degenerate_amplitude_range_gives_constant_smooth_amplitude():
    obj = synthesize_object("smooth_portrait", (16, 16),
                            amplitude_range=(0.5, 0.5), seed=3)
    assert np.allclose(np.abs(obj), 0.5, rtol=0, atol=1e-15)
    assert np.ptp(np.angle(obj)) > 0  # only the amplitude is constant


@pytest.mark.parametrize("kind", ["checkerboard_text", "smooth_portrait"])
def test_amplitudes_within_range(kind):
    obj = synthesize_object(kind, (32, 32), (0.3, 0.9), (-1.0, 1.0), seed=2)
    amp = np.abs(obj)
    assert amp.min() >= 0.3 - 1e-12
    assert amp.max() <= 0.9 + 1e-12


def test_checkerboard_amplitude_two_valued():
    obj = synthesize_object("checkerboard_text", (32, 32), (0.2, 1.0),
                            (-0.5, 0.5), seed=0)
    assert len(np.unique(np.abs(obj).round(12))) == 2


def test_object_determinism():
    a = synthesize_object("smooth_portrait", (32, 32), seed=11)
    b = synthesize_object("smooth_portrait", (32, 32), seed=11)
    assert np.array_equal(a, b)


def test_invalid_ranges_raise():
    with pytest.raises(ValueError):
        synthesize_object("checkerboard_text", (16, 16),
                          amplitude_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        synthesize_object("checkerboard_text", (16, 16),
                          phase_range=(-4.0, 0.0))
