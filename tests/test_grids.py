import numpy as np
import pytest

from ptybench import dft2, idft2, zero_pad_center, crop_center


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_delta_transforms_to_constant():
    delta = np.zeros((4, 4), dtype=complex)
    delta[0, 0] = 1.0
    out = dft2(delta)
    assert np.allclose(out, 0.25, atol=1e-14)


def test_constant_inverts_to_delta():
    const = np.full((4, 4), 0.25, dtype=complex)
    out = idft2(const)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(out, expected, atol=1e-14)


def test_inverse_identity():
    x = random_field((16, 16), 0)
    assert np.allclose(idft2(dft2(x)), x, rtol=1e-12, atol=1e-12)
    assert np.allclose(dft2(idft2(x)), x, rtol=1e-12, atol=1e-12)


def test_parseval():
    x = random_field((32, 32), 1)
    assert np.linalg.norm(dft2(x)) == pytest.approx(np.linalg.norm(x),
                                                    rel=1e-12)


def test_idft2_linearity():
    x = random_field((8, 8), 2)
    y = random_field((8, 8), 3)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    assert np.allclose(idft2(a * x + b * y), a * idft2(x) + b * idft2(y),
                       atol=1e-12)


def test_shift_theorem_unit_modulus():
    delta = np.zeros((8, 8), dtype=complex)
    delta[3, 5] = 1.0
    spectrum = dft2(delta)
    assert np.allclose(np.abs(spectrum), 1.0 / 8.0, atol=1e-14)


def test_pad_factor_one_is_copy():
    x = random_field((8, 8), 4)
    out = zero_pad_center(x, 1)
    assert np.array_equal(out, x)
    out[0, 0] = 0  # must not alias the input
    assert x[0, 0] != 0


def test_pad_ones_factor_two():
    out = zero_pad_center(np.ones((8, 8), dtype=complex), 2)
    assert out.shape == (16, 16)
    assert out.sum() == 64
    assert np.array_equal(out[4:12, 4:12], np.ones((8, 8)))


def test_pad_crop_round_trip():
    x = random_field((8, 8), 5)
    assert np.array_equal(crop_center(zero_pad_center(x, 5), 8, 8), x)


def test_crop_same_size_identity():
    x = random_field((6, 6), 6)
    assert np.array_equal(crop_center(x, 6, 6), x)


def test_crop_offset_convention():
    x = np.arange(16, dtype=complex).reshape(4, 4)
    # floor((4 - 3) / 2) = 0: window starts at (0, 0)
    assert np.array_equal(crop_center(x, 3, 3), x[:3, :3])


def test_crop_too_large_raises():
    with pytest.raises(ValueError):
        crop_center(np.zeros((4, 4), dtype=complex), 5, 4)


@pytest.mark.parametrize("transform", [dft2, idft2])
def test_transforms_refuse_1d_input(transform):
    with pytest.raises(ValueError, match="at least 2 dimensions"):
        transform(np.zeros(8, dtype=complex))


def test_pad_factor_below_one_raises():
    with pytest.raises(ValueError):
        zero_pad_center(np.zeros((4, 4), dtype=complex), 0)


@pytest.mark.parametrize("shape", [(5, 7), (16, 16), (3, 8)])
def test_unitarity_random_shapes(shape):
    x = random_field(shape, hash(shape) % 1000)
    assert np.linalg.norm(dft2(x)) == pytest.approx(np.linalg.norm(x),
                                                    rel=1e-10)


def test_stack_equals_per_slice_results():
    stack = random_field((3, 8, 8), 7)
    cases = [(dft2, ()), (idft2, ()), (zero_pad_center, (1,)),
             (zero_pad_center, (5,)), (crop_center, (5, 6))]
    for fn, args in cases:
        out = fn(stack, *args)
        for k in range(len(stack)):
            assert np.array_equal(out[k], fn(stack[k], *args))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64,
                                   np.complex128])
@pytest.mark.parametrize("shape", [(32, 32), (4, 32, 32), (3, 31, 29)],
                         ids=["grid", "stack", "odd"])
@pytest.mark.parametrize("ours, numpys", [(dft2, np.fft.fft2),
                                          (idft2, np.fft.ifft2)],
                         ids=["forward", "inverse"])
def test_transforms_are_numpys_ortho_fft2_bit_for_bit(ours, numpys, shape,
                                                     dtype):
    x = random_field(shape, 21)
    x = (x.real if np.dtype(dtype).kind == "f" else x).astype(dtype)
    got, want = ours(x), numpys(x, norm="ortho")
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
