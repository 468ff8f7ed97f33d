"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its measured numbers. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ptybench as pb
from ptybench import (AdapterConfig, Dataset, ExperimentConfig, FourierMix,
                      FUNCTIONAL_NAMES, Mode, ObjectMix,
                      ReconstructionState, TRANSFORMS, adapt_constraints,
                      compare_schemes, cost_eval, dft2,
                      functional_by_name, gradient_residual, idft2,
                      illumination_mask, modulus_substitute, position_sweep,
                      run_scheme, sample_poisson, sample_speckle, scheme,
                      simulate_dataset, taylor_gap)
from ptybench.harness import run_experiment, usable_cpus


def report(criterion, detail, t0):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {time.time() - t0:.1f}s)")


def random_field(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- 1: gradient correctness ---------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for name in FUNCTIONAL_NAMES:
        fn = functional_by_name(name, epsilon=1e-6
                                if name == "poisson_loglik" else 0.0)
        for trial in range(20):
            rng = np.random.default_rng(1000 * trial + abs(hash(name)) % 997)
            g = random_field((8, 8), rng)
            y = rng.poisson(np.abs(dft2(g)) ** 2 * 3).astype(float)
            analytic = idft2(gradient_residual(fn, dft2(g), y))
            numeric = np.zeros((8, 8), dtype=complex)
            h = 1e-5
            for idx in np.ndindex(8, 8):
                for unit in (1.0, 1.0j):
                    gp, gm = g.copy(), g.copy()
                    gp[idx] += h * unit
                    gm[idx] -= h * unit
                    partial = (cost_eval(fn, np.abs(dft2(gp)) ** 2, y)
                               - cost_eval(fn, np.abs(dft2(gm)) ** 2, y)) / (2 * h)
                    numeric[idx] += 0.5 * partial * unit
            rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
            worst = max(worst, rel)
    assert worst < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"9 functionals x 20 fields, worst rel err {worst:.2e}", t0)


# -- 2: amplitude / modulus-substitution equivalence ------------------------------

def test_criterion_2_amplitude_equals_modulus_substitution():
    t0 = time.time()
    fn = functional_by_name("sqrt")
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        g = random_field((8, 8), rng)
        y = rng.random((8, 8)) * 10
        G = dft2(g)
        grad = idft2(gradient_residual(fn, G, y))
        g_prime = idft2(modulus_substitute(G, np.sqrt(y)))
        worst = max(worst, np.abs(grad - (g - g_prime)).max())
    assert worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5
    report(2, f"100 instances, worst deviation {worst:.2e}", t0)


# -- 3: noise-free convergence ------------------------------------------------------

def test_criterion_3_noise_free_convergence():
    t0 = time.time()
    obj = pb.synthesize_object("checkerboard_text", (64, 64), seed=3)
    probe = pb.make_probe("tophat", 10.0, (32, 32))
    geom = pb.raster_positions((64, 64), (32, 32), step=8, jitter=1, seed=3)
    assert len(geom.positions) == 25  # 5x5 raster
    overlap = (32 - 8) / 32
    assert overlap >= 0.6
    clean = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    dataset = Dataset(geom, clean, probe)
    mask = illumination_mask(probe, geom)
    state = run_scheme(scheme(1, 100, 200), dataset, true_object=obj,
                       mask=mask, seed=0)
    assert state.iteration <= 300
    final = state.error_log[-1][1]
    assert final < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, f"masked error {final:.2e} after {state.iteration} sweeps", t0)


# -- 4: step-size claim ---------------------------------------------------------------

@pytest.mark.parametrize("mode,noise_model,label", [
    ("real_space", "poisson", "real-space Poisson"),
    ("real_space", "speckle", "real-space speckle"),
    ("fourier_space", "poisson", "Fourier-space Poisson"),
])
def test_criterion_4_step_size_claim(mode, noise_model, label):
    t0 = time.time()
    cfg = ExperimentConfig(mode=mode, noise_model=noise_model,
                           photon_budget=1e5, scheme_ids=(1, 2),
                           realizations=20, master_seed=4)
    record = run_experiment(cfg)
    med1 = record.summaries[1]["median"]
    med2 = record.summaries[2]["median"]
    result = compare_schemes(record, baseline_id=1, candidate_id=2)
    assert med2 < med1, (med1, med2)
    assert result["sign_test_p"] < 0.05
    report(f"4 [{label}]",
           f"median scheme2 {med2:.4f} < scheme1 {med1:.4f}, "
           f"sign-test p {result['sign_test_p']:.2e}", t0)


# -- 5: endpoint identities ---------------------------------------------------------

def test_criterion_5_endpoint_identities():
    t0 = time.time()
    obj = pb.synthesize_object("smooth_portrait", (32, 32), seed=5)
    probe = pb.make_probe("tophat", 5, (16, 16))
    geom = pb.raster_positions((32, 32), (16, 16), step=8, jitter=0)
    clean = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    noisy = sample_poisson(clean * 100, seed=5)
    dataset = Dataset(geom, noisy, probe)
    rng = np.random.default_rng(5)
    init = random_field((32, 32), rng)

    for mix_cls in (FourierMix, ObjectMix):
        # mu = 0: exact identity
        state = ReconstructionState(object_estimate=init.copy(),
                                    rng=np.random.default_rng(0))
        position_sweep(state, dataset, mix_cls(TRANSFORMS["anscombe"]), 0.0)
        assert np.array_equal(state.object_estimate, init)
        # mu = 1: transform-independent
        outputs = []
        for name in TRANSFORMS:
            state = ReconstructionState(object_estimate=init.copy(),
                                        rng=np.random.default_rng(1))
            position_sweep(state, dataset, mix_cls(TRANSFORMS[name]), 1.0)
            outputs.append(state.object_estimate)
        for other in outputs[1:]:
            assert np.abs(outputs[0] - other).max() < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5
    report(5, "mu=0 exact identity, mu=1 transform-independent "
              "for both mix rules", t0)


# -- 6: duality -----------------------------------------------------------------------

def test_criterion_6_duality():
    t0 = time.time()
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(trial + 60)
        obj = random_field((32, 32), rng)
        probe = pb.make_probe("tophat", 5, (16, 16))
        geom = pb.raster_positions((32, 32), (16, 16), step=8,
                                   jitter=1, seed=trial)
        fourier = simulate_dataset(obj, probe, geom, Mode.FOURIER_SPACE, 1)
        real = simulate_dataset(dft2(obj), probe, geom, Mode.REAL_SPACE, 1)
        worst = max(worst, np.abs(fourier - real).max())
    assert worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10
    report(6, f"10 instances, worst pattern deviation {worst:.2e}", t0)


# -- 7: intensity-constraint adapter -------------------------------------------------

def _adapter_problem(seed, oversampling, budget):
    obj = pb.synthesize_object("checkerboard_text", (64, 64), seed=seed)
    probe = pb.make_probe("tophat", 10.0, (32, 32))
    geom = pb.raster_positions((64, 64), (32, 32), step=8, jitter=1,
                               seed=seed)
    clean = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, oversampling)
    clean = pb.scale_to_budget(clean, budget)
    mask = illumination_mask(probe, geom)
    return obj, probe, geom, clean, mask


def test_criterion_7a_mu_zero_reproduces_baseline():
    t0 = time.time()
    obj, probe, geom, clean, _ = _adapter_problem(7, 5, 1e4)
    noisy = sample_poisson(clean, seed=7)
    dataset = Dataset(geom, noisy, probe)
    cfg = AdapterConfig(mu_c=0.0, inner_sweeps=5, outer_rounds=4)
    state, m_tilde = adapt_constraints(dataset, cfg, seed=7)
    baseline = ReconstructionState(np.ones((64, 64), complex),
                                   rng=np.random.default_rng(7))
    for _ in range(20):
        position_sweep(baseline, dataset, cfg.inner_rule, cfg.inner_mu)
    assert np.array_equal(state.object_estimate, baseline.object_estimate)
    assert np.array_equal(m_tilde, noisy)
    report("7a", "mu_c=0 trajectory bit-identical to the baseline", t0)


def test_criterion_7b_noise_free_perfect_init_keeps_targets():
    t0 = time.time()
    obj, probe, geom, clean, _ = _adapter_problem(7, 5, 1e4)
    dataset = Dataset(geom, clean, probe)
    # photon-budget scaling multiplies the patterns by s, so the matching
    # perfect init carries a sqrt(s) amplitude factor
    raw = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 5)
    s = clean.sum() / raw.sum()
    cfg = AdapterConfig(mu_c=0.1, inner_sweeps=2, outer_rounds=5)
    _, m_tilde = adapt_constraints(dataset, cfg,
                                   init_object=obj * np.sqrt(s), seed=0)
    drift = np.abs(m_tilde - clean).max() / clean.max()
    assert drift < 1e-10
    report("7b", f"m-tilde drift {drift:.2e} relative", t0)


def test_criterion_7c_adapter_not_worse_when_oversampled():
    t0 = time.time()
    obj, probe, geom, clean, mask = _adapter_problem(7, 5, 1e4)
    cfg = AdapterConfig()  # defaults: mu_c 0.1, 5 inner, 40 outer
    total_sweeps = cfg.inner_sweeps * cfg.outer_rounds

    def final_errors(r):
        noisy = sample_poisson(clean, seed=700 + r)
        dataset = Dataset(geom, noisy, probe)
        state, _ = adapt_constraints(dataset, cfg, true_object=obj,
                                     mask=mask, seed=r)
        base = run_scheme(pb.SchemeSpec(1, cfg.inner_rule, cfg.inner_mu,
                                        total_sweeps, 0),
                          dataset, true_object=obj, mask=mask, seed=r)
        return state.error_log[-1][1], base.error_log[-1][1]

    # the realizations are independent, and their 160x160 transforms run
    # with the interpreter lock released; map keeps realization order
    with ThreadPoolExecutor(usable_cpus()) as pool:
        with_adapter, without = zip(*pool.map(final_errors, range(20)))
    med_adapter = float(np.median(with_adapter))
    med_baseline = float(np.median(without))
    # pass threshold: not worse by more than 5%
    assert med_adapter <= 1.05 * med_baseline
    elapsed = time.time() - t0
    assert elapsed < 20 * 60
    report("7c", f"median with adapter {med_adapter:.4f} vs "
                 f"without {med_baseline:.4f} (20 realizations)", t0)


# -- 8: Taylor-expansion order ---------------------------------------------------------

def test_criterion_8_taylor_order():
    t0 = time.time()
    ratio = taylor_gap(1.21, 1.0) / taylor_gap(1.1025, 1.0)
    assert abs(ratio - 8.0) <= 0.2 * 8.0
    elapsed = time.time() - t0
    assert elapsed < 1
    report(8, f"gap ratio {ratio:.3f} vs cubic prediction 8", t0)


# -- 9: noise sampler fidelity ----------------------------------------------------------

def test_criterion_9_noise_sampler_fidelity():
    from scipy import stats
    from ptybench import poisson_log_pmf
    import math
    t0 = time.time()

    draws = sample_poisson(np.full((1, 100000, 1), 5.0), seed=9).ravel()
    kmax = 16
    observed = np.bincount(draws.astype(int).clip(0, kmax), minlength=kmax + 1)
    probs = np.array([math.exp(poisson_log_pmf(k, 5.0)) for k in range(kmax)])
    probs = np.append(probs, 1.0 - probs.sum())
    _, p_chi2 = stats.chisquare(observed, probs * draws.size)
    assert p_chi2 > 1e-3

    expo = sample_speckle(np.ones((1, 100000, 1)), seed=9).ravel()
    _, p_ks = stats.kstest(expo, "expon")
    assert p_ks > 1e-3

    assert np.array_equal(
        draws, sample_poisson(np.full((1, 100000, 1), 5.0), seed=9).ravel())
    assert np.array_equal(
        expo, sample_speckle(np.ones((1, 100000, 1)), seed=9).ravel())
    elapsed = time.time() - t0
    assert elapsed < 10
    report(9, f"chi-square p {p_chi2:.3f}, KS p {p_ks:.3f}, "
              "reruns bit-identical", t0)


# -- 10: end-to-end determinism ----------------------------------------------------------

def test_criterion_10_bench_determinism(tmp_path):
    from ptybench.cli import main
    t0 = time.time()
    config = tmp_path / "bench.cfg"
    config.write_text(
        "object_dims = 48x48\n"
        "window = 24x24\n"
        "scan_step = 8\n"
        "scan_jitter = 1\n"
        "probe_radius = 8\n"
        "photon_budget = 1e5\n"
        "scheme_ids = 1,2\n"
        "warmup_iterations = 30\n"
        "refinement_iterations = 30\n"
        "realizations = 3\n"
        "master_seed = 10\n")
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        assert main(["bench", str(config), "--output-dir", str(out_dir)]) == 0
        outputs.append({f: (out_dir / f).read_bytes()
                        for f in ("summary.csv", "curves.csv")})
    assert outputs[0]["summary.csv"] == outputs[1]["summary.csv"]
    assert outputs[0]["curves.csv"] == outputs[1]["curves.csv"]
    report(10, "summary.csv and curves.csv byte-identical across reruns", t0)
