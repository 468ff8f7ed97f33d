import numpy as np
import pytest

import ptybench as pb
from ptybench import align_and_error, illumination_mask


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_single_position_tophat_mask_is_disc():
    probe = pb.make_probe("tophat", 5, (16, 16))
    geom = pb.ScanGeometry(((0, 0),), (16, 16), (16, 16))
    mask = illumination_mask(probe, geom, threshold=0.5)
    assert np.array_equal(mask, np.abs(probe) > 0)


def test_tiny_threshold_gives_union_of_supports():
    probe = pb.make_probe("tophat", 4, (16, 16))
    geom = pb.ScanGeometry(((0, 0), (8, 8)), (16, 16), (24, 24))
    mask = illumination_mask(probe, geom, threshold=1e-9)
    union = np.zeros((24, 24), dtype=bool)
    for (r, c) in geom.positions:
        union[r:r + 16, c:c + 16] |= np.abs(probe) > 0
    assert np.array_equal(mask, union)


def test_mask_cardinality_two_position_enumeration():
    probe = pb.make_probe("tophat", 3, (8, 8))
    geom = pb.ScanGeometry(((0, 0), (0, 4)), (8, 8), (8, 12))
    threshold = 0.5
    mask = illumination_mask(probe, geom, threshold)
    coverage = np.zeros((8, 12))
    for (r, c) in geom.positions:
        coverage[r:r + 8, c:c + 8] += np.abs(probe) ** 2
    expected = int(np.sum(coverage >= threshold * coverage.max()))
    assert mask.sum() == expected


def test_invalid_threshold_raises():
    # the pixel attaining maximum coverage always passes any threshold
    # below 1, so thresholds outside (0, 1) are rejected up front
    probe = pb.make_probe("gaussian", 2, (8, 8))
    geom = pb.ScanGeometry(((0, 0),), (8, 8), (8, 8))
    with pytest.raises(ValueError):
        illumination_mask(probe, geom, threshold=1.5)
    with pytest.raises(ValueError):
        illumination_mask(probe, geom, threshold=0.0)


@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_probe_without_intensity_raises(value):
    # a zero probe would light every pixel, and lowering the threshold
    # cannot help a NaN one
    probe = np.full((8, 8), value, dtype=complex)
    geom = pb.ScanGeometry(((0, 0),), (8, 8), (8, 8))
    with pytest.raises(ValueError, match="probe intensity must have a "
                                         "finite positive peak"):
        illumination_mask(probe, geom)


def test_global_phase_invariance():
    truth = random_field((16, 16), 0)
    assert align_and_error(np.exp(0.7j) * truth, truth) < 1e-12


def test_global_scale_invariance():
    truth = random_field((16, 16), 1)
    assert align_and_error(2.0 * truth, truth) < 1e-12


def test_combined_phase_scale_invariance():
    truth = random_field((16, 16), 2)
    estimate = 0.3 * np.exp(-2.1j) * truth
    base = truth + 0.05 * random_field((16, 16), 3)
    assert align_and_error(estimate, truth) == pytest.approx(0.0, abs=1e-10)
    assert align_and_error(0.3 * np.exp(-2.1j) * base, truth) == \
        pytest.approx(align_and_error(base, truth), abs=1e-10)


def test_orthogonal_perturbation_error():
    truth = random_field((16, 16), 4)
    noise = random_field((16, 16), 5)
    # project out the truth component, rescale to relative norm 0.1
    noise = noise - (np.vdot(truth, noise) / np.vdot(truth, truth)) * truth
    noise *= 0.1 * np.linalg.norm(truth) / np.linalg.norm(noise)
    # with joint phase-and-scale alignment the residual after fitting
    # c = <t,e>/<e,e> is rho/sqrt(1+rho^2) for an orthogonal perturbation
    # of relative norm rho (derived analytically, verified numerically)
    rho = 0.1
    expected = rho / np.sqrt(1 + rho ** 2)
    assert align_and_error(truth + noise, truth) == pytest.approx(
        expected, abs=1e-10)


def test_identity_error_zero_and_positivity():
    truth = random_field((8, 8), 6)
    assert align_and_error(truth, truth) == 0.0
    other = truth + 0.2 * random_field((8, 8), 7)
    assert align_and_error(other, truth) > 0.0


def test_masked_error_uses_only_masked_pixels():
    truth = random_field((8, 8), 8)
    estimate = truth.copy()
    estimate[0, 0] += 100.0  # corrupt a pixel outside the mask
    mask = np.ones((8, 8), dtype=bool)
    mask[0, 0] = False
    assert align_and_error(estimate, truth, mask) < 1e-12


def test_no_mask_scores_every_pixel():
    truth = random_field((6, 5), 10)
    estimate = random_field((6, 5), 11)
    e, t = estimate.ravel(), truth.ravel()
    c = np.vdot(e, t) / np.vdot(e, e)
    want = float(np.linalg.norm(c * e - t) / np.linalg.norm(t))
    assert align_and_error(estimate, truth) == want


def test_zero_estimate_raises():
    truth = random_field((4, 4), 9)
    with pytest.raises(ValueError):
        align_and_error(np.zeros((4, 4), dtype=complex), truth)


def test_zero_truth_on_the_mask_is_a_bad_input():
    # zero off the mask is fine; zero on it leaves no relative error, and
    # is refused as a bad input, not as an arithmetic failure
    truth = random_field((4, 4), 10)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    truth[~mask] = 0
    assert align_and_error(truth, truth, mask) == 0.0
    truth[mask] = 0
    for estimate in (random_field((4, 4), 12), np.zeros((4, 4), complex)):
        with pytest.raises(ValueError, match="ground truth is zero") as raised:
            align_and_error(estimate, truth, mask)
        assert not isinstance(raised.value, ArithmeticError)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        align_and_error(np.ones((4, 4), dtype=complex),
                        np.ones((5, 5), dtype=complex))
