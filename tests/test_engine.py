import numpy as np
import pytest

import ptybench as pb
from ptybench import (AdapterConfig, Dataset, FourierMix, GradientDescent,
                      Mode, ObjectMix, ReconstructionState, SCHEMES,
                      TRANSFORMS, adapt_constraints, cost_eval, crop_center,
                      dft2, er_support_iterate, exit_wave, functional_by_name,
                      global_gradient_step, idft2, modulus_substitute,
                      position_sweep, run_scheme, scheme, simulate_dataset,
                      zero_pad_center)
from ptybench.engine import _unit_phase
from ptybench.harness import (ExperimentConfig, build_problem,
                              realization_seed)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def toy_problem(seed=0, mode=Mode.REAL_SPACE, oversampling=1,
                n_side=3, window=16, obj_side=32):
    obj = pb.synthesize_object("checkerboard_text", (obj_side, obj_side),
                               seed=seed)
    probe = pb.make_probe("tophat", window // 3, (window, window))
    step = (obj_side - window) // (n_side - 1)
    geom = pb.raster_positions((obj_side, obj_side), (window, window),
                               step=step, jitter=0)
    clean = simulate_dataset(obj, probe, geom, mode, oversampling)
    truth = obj if mode is Mode.REAL_SPACE else dft2(obj)
    dataset = Dataset(geom, clean, probe)
    return truth, dataset


# --- modulus substitution ------------------------------------------------------

def test_modulus_substitute_fixed_point():
    G = random_field((8, 8), 0)
    assert np.allclose(modulus_substitute(G, np.abs(G)), G, atol=1e-14)


def test_modulus_substitute_refuses_a_target_of_another_shape():
    with pytest.raises(ValueError, match="shape mismatch"):
        modulus_substitute(np.ones((4, 4), dtype=complex), np.ones((4, 5)))


def test_modulus_substitute_scalar_case():
    out = modulus_substitute(np.array([[2.0 + 0.0j]]), np.array([[3.0]]))
    assert out[0, 0] == 3.0 + 0.0j


def test_modulus_substitute_amplitude_and_phase():
    G = random_field((16, 16), 1)
    target = np.random.default_rng(2).random((16, 16)) * 5
    out = modulus_substitute(G, target)
    assert np.allclose(np.abs(out), target, atol=1e-12)
    nz = np.abs(G) > 0
    assert np.allclose(np.angle(out[nz] / G[nz]), 0.0, atol=1e-12)


def test_modulus_substitute_zero_phase_convention():
    G = np.zeros((2, 2), dtype=complex)
    out = modulus_substitute(G, np.full((2, 2), 2.0))
    assert np.allclose(out, 2.0 + 0.0j, atol=1e-14)


@pytest.mark.parametrize("values, refused", [
    ([1.0, -0.5], True), ([np.nan, -0.5], True), ([-0.5, np.nan], True),
    ([np.nan, 1.0], False), ([-0.0, 1.0], False)],
    ids=["negative", "nan_then_negative", "negative_then_nan", "nan",
         "negative_zero"])
def test_modulus_substitute_refuses_a_negative_target(values, refused):
    G = random_field((2, 2), 3)
    target = np.ones((2, 2))
    target[0] = values
    if refused:
        with pytest.raises(ValueError,
                           match="target amplitude must be nonnegative"):
            modulus_substitute(G, target)
    else:
        modulus_substitute(G, target)


def special_field(shape, seed):
    """A random complex field with zeros, signed zeros, NaN, infinities and
    a subnormal among its values."""
    v = random_field(shape, seed)
    v.flat[:9] = [0.0, -0.0, complex(np.nan, 0.0), complex(np.inf, 0.0),
                  complex(0.0, -np.inf), complex(np.inf, np.nan),
                  complex(np.inf, np.inf), complex(np.nan, np.nan), 1e-320]
    return v


def test_unit_phase_matches_the_two_where_formula():
    v = special_field((6, 8), 3)
    with np.errstate(invalid="ignore", over="ignore"):
        mod = np.abs(v)
        live = mod >= np.finfo(float).tiny
        expected = np.where(live, v / np.where(live, mod, 1.0), 1.0)
        got = _unit_phase(v)
        given_mod = _unit_phase(v, np.abs(v))
    assert got.tobytes() == expected.tobytes()
    assert given_mod.tobytes() == expected.tobytes()
    # a subnormal modulus is dark: dividing by it would overflow to inf
    assert got.flat[8] == 1.0


def test_unit_phase_writes_no_input_and_out_gives_the_same_bits():
    v = special_field((3, 8, 8), 4)
    with np.errstate(invalid="ignore", over="ignore"):
        mod = np.abs(v)
        kept_v, kept_mod = v.tobytes(), mod.tobytes()
        pure = _unit_phase(v)
        given_mod = _unit_phase(v, mod)
        assert v.tobytes() == kept_v and mod.tobytes() == kept_mod
        assert not np.shares_memory(pure, v)
        # into v itself, with and without its modulus, and into a stranger
        for args in ((), (mod,)):
            own = v.copy()
            assert _unit_phase(own, *args, out=own) is own
            assert own.tobytes() == pure.tobytes()
        out = np.full_like(v, np.nan)
        assert _unit_phase(v, out=out) is out
    assert given_mod.tobytes() == pure.tobytes()
    assert out.tobytes() == pure.tobytes()


def test_modulus_substitute_writes_no_input_and_out_gives_the_same_bits():
    G = special_field((3, 8, 8), 5)
    target = np.random.default_rng(6).random((3, 8, 8)) * 4
    target.flat[:3] = [0.0, np.inf, np.nan]
    kept_G, kept_target = G.tobytes(), target.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        pure = modulus_substitute(G, target)
        assert G.tobytes() == kept_G and target.tobytes() == kept_target
        own = G.copy()
        assert modulus_substitute(own, target, out=own) is own
    assert own.tobytes() == pure.tobytes()
    assert target.tobytes() == kept_target
    assert pure.flat[8] == target.flat[8]  # G's subnormal has phase 1


# the rules' math as it was written before the phase took a precomputed
# modulus and the residual a shared fwd_deriv: one update must match it bit
# for bit, including at exact zeros of G and of the window

def _reference_unit_phase(v):
    mod = np.abs(v)
    live = mod >= np.finfo(float).tiny
    out = v / np.where(live, mod, 1.0)
    out[~live] = 1.0
    return out


def _reference_back_project(F, window):
    """The exit wave of a far field: the full inverse, cropped."""
    return crop_center(np.fft.ifft2(F, norm="ortho"), *window)


def _reference_update(rule, window, g, G, pattern, probe, mu):
    if isinstance(rule, GradientDescent):
        t = rule.functional
        z = np.abs(G) ** 2
        R = 2.0 * (t.fwd(z) - t.fwd(pattern)) * t.deriv(z) * G
        R[z == 0] = 0
        return window - mu * np.conj(probe) * _reference_back_project(
            R, probe.shape)
    t = rule.transform
    if isinstance(rule, FourierMix):
        z = np.abs(G) ** 2
        mixed = t.inv((1.0 - mu) * t.fwd(z) + mu * t.fwd(pattern))
        G_new = np.sqrt(np.maximum(mixed, 0.0)) * _reference_unit_phase(G)
        g_new = _reference_back_project(G_new, probe.shape)
        return window + np.conj(probe) * (g_new - g)
    G_sub = np.sqrt(pattern) * _reference_unit_phase(G)
    g_prime = _reference_back_project(G_sub, probe.shape)
    window_prime = window + np.conj(probe) * (g_prime - g)
    mod = t.inv((1.0 - mu) * t.fwd(np.abs(window))
                + mu * t.fwd(np.abs(window_prime)))
    phase = _reference_unit_phase(
        (1.0 - mu) * _reference_unit_phase(window)
        + mu * _reference_unit_phase(window_prime))
    return np.maximum(mod, 0.0) * phase


RULE_CASES = {
    **{f"descent-{name}": GradientDescent(functional_by_name(name))
       for name in ("sqrt", "pow_0.7", "log_1")},
    **{f"{cls.__name__}-{name}": cls(TRANSFORMS[name])
       for cls in (FourierMix, ObjectMix) for name in ("anscombe", "identity")},
}


@pytest.mark.parametrize("rule, oversampling", [
    pytest.param(rule, s, id=key if s == 1 else f"{key}-os{s}")
    for s in (1, 5) for key, rule in RULE_CASES.items()])
def test_update_matches_the_reference_formulas_bit_for_bit(rule, oversampling):
    # at oversampling 5 the rule works in G's 160x160 grid, which it may
    # overwrite, and the reference in arrays of its own
    window = random_field((3, 32, 32), 30)
    window.flat[::37] = 0.0
    probe = pb.make_probe("gaussian", 8, (32, 32))
    g = window * probe
    G = np.fft.fft2(zero_pad_center(g, oversampling), norm="ortho")
    G.flat[::41] = 0.0
    pattern = np.abs(random_field(G.shape, 31)) ** 2 * 50
    with np.errstate(all="ignore"):
        expected = _reference_update(rule, window, g, G, pattern, probe, 0.1)
        got = window.copy()
        rule.update(got, g, G, pattern, probe, 0.1)
    assert np.array_equal(got, expected)


# --- Error Reduction ------------------------------------------------------------

def test_er_fixed_point():
    rng = np.random.default_rng(3)
    support = np.zeros((16, 16), dtype=bool)
    support[4:12, 4:12] = True
    g = np.where(support, random_field((16, 16), 4), 0.0)
    measured = np.abs(dft2(g))
    out = er_support_iterate(g, support, measured)
    assert np.allclose(out, g, atol=1e-10)


def test_er_zero_outside_support():
    support = np.zeros((8, 8), dtype=bool)
    support[2:6, 2:6] = True
    out = er_support_iterate(random_field((8, 8), 5), support,
                             np.random.default_rng(6).random((8, 8)))
    assert np.all(out[~support] == 0)


def test_er_amplitude_cost_non_increasing():
    fn = functional_by_name("sqrt")
    for seed in range(10):
        support = np.zeros((16, 16), dtype=bool)
        support[3:13, 3:13] = True
        g = np.where(support, random_field((16, 16), seed), 0.0)
        measured = np.random.default_rng(seed + 50).random((16, 16)) * 3
        before = cost_eval(fn, np.abs(dft2(g)) ** 2, measured ** 2)
        g_next = er_support_iterate(g, support, measured)
        after = cost_eval(fn, np.abs(dft2(g_next)) ** 2, measured ** 2)
        assert after <= before + 1e-10


# --- position sweeps -------------------------------------------------------------

def test_noise_free_fixed_point_all_rules():
    truth, dataset = toy_problem(seed=1)
    rules = [GradientDescent(functional_by_name("sqrt")),
             GradientDescent(functional_by_name("anscombe")),
             FourierMix(TRANSFORMS["anscombe"]),
             ObjectMix(TRANSFORMS["pow_0.7"])]
    for rule in rules:
        state = ReconstructionState(object_estimate=truth.copy(),
                                    rng=np.random.default_rng(0))
        position_sweep(state, dataset, rule, 0.3)
        assert np.abs(state.object_estimate - truth).max() < 1e-8, rule


def test_fourier_mix_mu_zero_is_identity():
    _, dataset = toy_problem(seed=2)
    init = random_field(dataset.geometry.object_dims, 7)
    state = ReconstructionState(object_estimate=init.copy(),
                                rng=np.random.default_rng(0))
    position_sweep(state, dataset, FourierMix(TRANSFORMS["log_1"]), 0.0)
    assert np.array_equal(state.object_estimate, init)


def test_object_mix_mu_zero_is_identity():
    _, dataset = toy_problem(seed=2)
    init = random_field(dataset.geometry.object_dims, 8)
    state = ReconstructionState(object_estimate=init.copy(),
                                rng=np.random.default_rng(0))
    position_sweep(state, dataset, ObjectMix(TRANSFORMS["sqrt_plus_1"]), 0.0)
    # modulus/phase decomposition and recomposition at mu = 0
    assert np.allclose(state.object_estimate, init, atol=1e-12)


@pytest.mark.parametrize("mix_cls", [FourierMix, ObjectMix])
def test_mix_mu_one_transform_independent(mix_cls):
    _, dataset = toy_problem(seed=3)
    init = random_field(dataset.geometry.object_dims, 9)
    results = []
    for name in ("anscombe", "identity", "log_half"):
        state = ReconstructionState(object_estimate=init.copy(),
                                    rng=np.random.default_rng(1))
        position_sweep(state, dataset, mix_cls(TRANSFORMS[name]), 1.0)
        results.append(state.object_estimate)
    for other in results[1:]:
        assert np.allclose(results[0], other, atol=1e-10)


def test_fourier_mix_mu_one_identity_transform_matches_descent():
    _, dataset = toy_problem(seed=4)
    init = random_field(dataset.geometry.object_dims, 10)
    a = ReconstructionState(object_estimate=init.copy(),
                            rng=np.random.default_rng(2))
    position_sweep(a, dataset, FourierMix(TRANSFORMS["identity"]), 1.0)
    b = ReconstructionState(object_estimate=init.copy(),
                            rng=np.random.default_rng(2))
    position_sweep(b, dataset, GradientDescent(functional_by_name("sqrt")),
                   1.0)
    assert np.allclose(a.object_estimate, b.object_estimate, atol=1e-10)


def test_descent_sweep_matches_pie_update():
    # mu = 1 amplitude descent must equal the modulus-substitution update
    # computed through an independent per-position pipeline
    _, dataset = toy_problem(seed=5)
    init = random_field(dataset.geometry.object_dims, 11)
    state = ReconstructionState(object_estimate=init.copy(),
                                rng=np.random.default_rng(3))
    position_sweep(state, dataset, GradientDescent(functional_by_name("sqrt")),
                   1.0)

    expected = init.copy()
    order = np.random.default_rng(3).permutation(len(dataset.geometry.positions))
    wh, ww = dataset.probe.shape
    for j in order:
        r, c = dataset.geometry.positions[j]
        g = exit_wave(expected, dataset.probe, (r, c))
        G = dft2(g)
        g_prime = idft2(modulus_substitute(G, np.sqrt(dataset.patterns[j])))
        expected[r:r + wh, c:c + ww] += np.conj(dataset.probe) * (g_prime - g)
    assert np.allclose(state.object_estimate, expected, atol=1e-10)


def test_sweep_determinism():
    truth, dataset = toy_problem(seed=6)
    logs = []
    for _ in range(2):
        st = run_scheme(scheme(2, 5, 5), dataset, true_object=truth,
                        seed=123)
        logs.append(st.error_log)
    assert logs[0] == logs[1]


# --- global gradient step ---------------------------------------------------------

def test_global_step_single_position_equals_sweep():
    obj = pb.synthesize_object("smooth_portrait", (16, 16), seed=7)
    probe = pb.make_probe("gaussian", 4, (16, 16))
    geom = pb.ScanGeometry(((0, 0),), (16, 16), (16, 16))
    clean = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    dataset = Dataset(geom, clean * 1.3, probe)
    fn = functional_by_name("anscombe")
    init = random_field((16, 16), 12)
    a = ReconstructionState(object_estimate=init.copy(),
                            rng=np.random.default_rng(0))
    global_gradient_step(a, dataset, fn, 0.2)
    b = ReconstructionState(object_estimate=init.copy(),
                            rng=np.random.default_rng(0))
    position_sweep(b, dataset, GradientDescent(fn), 0.2)
    assert np.allclose(a.object_estimate, b.object_estimate, atol=1e-12)


def test_global_step_fixed_point():
    truth, dataset = toy_problem(seed=8)
    state = ReconstructionState(object_estimate=truth.copy(),
                                rng=np.random.default_rng(0))
    global_gradient_step(state, dataset, functional_by_name("sqrt"), 0.5)
    assert np.abs(state.object_estimate - truth).max() < 1e-8


def test_global_step_accumulates_windowed_contributions():
    obj = pb.synthesize_object("checkerboard_text", (24, 16), seed=9)
    probe = pb.make_probe("tophat", 5, (16, 16))
    geom = pb.ScanGeometry(((0, 0), (8, 0)), (16, 16), (24, 16))
    clean = simulate_dataset(obj, probe, geom, Mode.REAL_SPACE, 1)
    dataset = Dataset(geom, clean * 2.0, probe)
    fn = functional_by_name("sqrt")
    init = random_field((24, 16), 13)

    state = ReconstructionState(object_estimate=init.copy(),
                                rng=np.random.default_rng(0))
    global_gradient_step(state, dataset, fn, 0.4)

    accum = np.zeros((24, 16), dtype=complex)
    for j, (r, c) in enumerate(geom.positions):
        g = exit_wave(init, probe, (r, c))
        d = idft2(pb.gradient_residual(fn, dft2(g), dataset.patterns[j]))
        accum[r:r + 16, c:c + 16] += np.conj(probe) * d
    assert np.allclose(state.object_estimate, init - 0.4 * accum, atol=1e-12)


# --- scheme registry -----------------------------------------------------------

def test_registry_has_twenty_schemes():
    assert sorted(SCHEMES) == list(range(1, 21))


def test_registry_contents_match_printed_list():
    gd_expected = {2: "sqrt", 3: "pow_0.7", 4: "pow_0.9", 5: "anscombe",
                   6: "sqrt_plus_1", 7: "log_half", 8: "log_1"}
    mix_expected = ["anscombe", "sqrt_plus_1", "pow_0.7", "identity",
                    "log_half", "log_1"]
    assert SCHEMES[1].describe() == ("gradient_descent", "sqrt")
    assert SCHEMES[1].mu == 1.0
    for sid, name in gd_expected.items():
        assert SCHEMES[sid].describe() == ("gradient_descent", name)
        assert SCHEMES[sid].mu == 0.1
    for offset, name in enumerate(mix_expected):
        assert SCHEMES[9 + offset].describe() == ("fourier_mix", name)
        assert SCHEMES[15 + offset].describe() == ("object_mix", name)
    for sid in range(2, 21):
        assert SCHEMES[sid].warmup_iterations == 100
        assert SCHEMES[sid].mu == 0.1


def test_scheme_one_and_two_differ_only_in_refinement_mu():
    assert SCHEMES[1].describe() == SCHEMES[2].describe()
    assert SCHEMES[1].mu == 1.0
    assert SCHEMES[2].mu == 0.1


def test_unknown_scheme_raises():
    with pytest.raises(ValueError):
        scheme(21)


def test_run_scheme_stops_at_first_non_finite_error():
    truth, dataset = toy_problem(seed=13)
    diverged = np.full(dataset.geometry.object_dims, np.nan, dtype=complex)
    with pytest.raises(ArithmeticError, match="diverged at sweep 0"):
        run_scheme(scheme(1, 2, 2), dataset, init_object=diverged,
                   true_object=truth)


# --- shared warmup and realization batching --------------------------------------

def _two_realizations():
    """The default 64x64 problem at master seed 4 with two Poisson
    realizations, as the harness builds it: scheme 3 diverges at sweep 22
    in realization 0 and at sweep 23 in realization 1."""
    cfg = ExperimentConfig(master_seed=4, realizations=2)
    truth, probe, geometry, mask = build_problem(cfg)[:4]
    clean = pb.scale_to_budget(
        simulate_dataset(truth, probe, geometry, Mode.REAL_SPACE, 1),
        cfg.photon_budget)
    patterns = [pb.apply_noise(clean, pb.NoiseModel.POISSON,
                               realization_seed(cfg.master_seed, r))
                for r in range(cfg.realizations)]
    singles = [Dataset(geometry, p, probe) for p in patterns]
    batched = Dataset(geometry, np.stack(patterns, axis=1), probe)
    return truth, mask, singles, batched


def test_batched_run_from_shared_warmup_matches_single_runs():
    truth, mask, singles, batched = _two_realizations()
    warm = pb.warm_start(batched, 20, true_object=truth, mask=mask, seed=4)
    stacks = {}
    for sid in (1, 3, 9, 15):
        spec = scheme(sid, 20, 5)
        stack = stacks[sid] = pb.refine(spec, batched, warm.fork())
        for r, dataset in enumerate(singles):
            log = [(i, e[r]) for i, e in stack.error_log]
            try:
                single = run_scheme(spec, dataset, true_object=truth,
                                    mask=mask, seed=4)
            except ArithmeticError as exc:
                assert str(stack.failures[r]) == str(exc)
                # the slice ran on, bit-identically, until it failed
                sweep = int(str(exc).split("sweep ")[1].split()[0])
                assert np.isnan(log[sweep][1])
                continue
            assert r not in stack.failures
            assert log == single.error_log
            assert np.array_equal(stack.object_estimate[r],
                                  single.object_estimate)
    assert {r: str(e) for r, e in stacks[3].failures.items()} == {
        0: "reconstruction diverged at sweep 22 (error nan)",
        1: "reconstruction diverged at sweep 23 (error nan)"}
    # sweeping stopped once both slices had failed
    assert stacks[3].iteration == 23


def test_unscorable_slice_fails_alone():
    # a slice that is zero on the mask cannot be aligned: it fails with
    # the ValueError a 2D run raises, and the other slice is still scored
    truth = random_field((8, 8), 15)
    with pytest.raises(ValueError, match="zero on the mask") as raised:
        pb.ReconstructionState(np.zeros((8, 8), complex),
                               true_object=truth).log_error()
    state = pb.ReconstructionState(np.stack([np.zeros((8, 8), complex),
                                             truth]), true_object=truth)
    state.log_error()
    assert list(state.failures) == [0]
    assert str(state.failures[0]) == str(raised.value)
    ((_, errors),) = state.error_log
    assert np.isnan(errors[0]) and errors[1] == 0.0


def test_a_truth_that_is_zero_on_the_mask_is_a_bad_input():
    # no estimate has a relative error against a zero truth: the run stops
    # with a plain ValueError, on a single dataset and on a stack alike,
    # rather than recording a numeric failure
    truth, dataset = toy_problem(seed=16)
    zero = np.zeros_like(truth)
    stack = Dataset(dataset.geometry, np.stack([dataset.patterns] * 2, axis=1),
                    dataset.probe)
    runs = [lambda data: run_scheme(scheme(1, 2, 2), data, true_object=zero),
            lambda data: adapt_constraints(
                data, AdapterConfig(inner_sweeps=1, outer_rounds=1),
                true_object=zero)]
    for run in runs:
        for data in (dataset, stack):
            with pytest.raises(ValueError,
                               match="ground truth is zero on the mask"
                               ) as raised:
                run(data)
            assert not isinstance(raised.value, ArithmeticError)


def test_refine_sweeps_and_returns_the_state_it_is_given():
    truth, dataset = toy_problem(seed=14)
    state = pb.warm_start(dataset, 1, true_object=truth, seed=2)
    assert pb.refine(scheme(9, 1, 2), dataset, state) is state
    assert state.iteration == 3
    assert [i for i, _ in state.error_log] == [0, 1, 2, 3]


def test_refining_a_fork_leaves_the_warm_state_untouched():
    truth, dataset = toy_problem(seed=14)
    mask = pb.illumination_mask(dataset.probe, dataset.geometry)
    warm = pb.warm_start(dataset, 3, true_object=truth, mask=mask, seed=2)
    before = (warm.object_estimate.copy(), list(warm.error_log),
              warm.iteration, warm.rng.bit_generator.state)
    # the fork is scored against the truth and mask the start carries
    refined = pb.refine(scheme(9, 3, 4), dataset, warm.fork())
    assert refined.true_object is warm.true_object is truth
    assert refined.mask is warm.mask is mask
    assert refined.iteration == 7
    assert np.array_equal(warm.object_estimate, before[0])
    assert warm.error_log == before[1]
    assert warm.iteration == before[2]
    assert warm.rng.bit_generator.state == before[3]
    # the fork carries the warmup: the same as one run from scratch
    whole = run_scheme(scheme(9, 3, 4), dataset, true_object=truth,
                       mask=mask, seed=2)
    assert refined.error_log == whole.error_log
    assert np.array_equal(refined.object_estimate, whole.object_estimate)


# --- intensity-constraint adapter -------------------------------------------------

def test_adapter_mu_zero_matches_baseline_trajectory():
    truth, dataset = toy_problem(seed=10)
    noisy = pb.sample_poisson(dataset.patterns * 50, seed=5)
    dataset = Dataset(dataset.geometry, noisy, dataset.probe)
    cfg = AdapterConfig(mu_c=0.0, inner_sweeps=3, outer_rounds=4)
    state, m_tilde = adapt_constraints(dataset, cfg, seed=77)

    baseline = ReconstructionState(
        np.ones(dataset.geometry.object_dims, complex),
        rng=np.random.default_rng(77))
    for _ in range(12):
        position_sweep(baseline, dataset, cfg.inner_rule, cfg.inner_mu)
    assert np.array_equal(state.object_estimate, baseline.object_estimate)
    assert np.array_equal(m_tilde, noisy)


def test_adapter_noise_free_perfect_init_keeps_targets():
    truth, dataset = toy_problem(seed=11)
    cfg = AdapterConfig(mu_c=0.1, inner_sweeps=2, outer_rounds=5)
    state, m_tilde = adapt_constraints(dataset, cfg, init_object=truth,
                                       seed=0)
    assert np.abs(m_tilde - dataset.patterns).max() < 1e-10


def test_adapter_targets_stay_nonnegative():
    truth, dataset = toy_problem(seed=12)
    noisy = pb.sample_speckle(dataset.patterns * 20, seed=6)
    dataset = Dataset(dataset.geometry, noisy, dataset.probe)
    cfg = AdapterConfig(mu_c=0.3, inner_sweeps=2, outer_rounds=6)
    _, m_tilde = adapt_constraints(dataset, cfg, seed=1)
    assert np.all(m_tilde >= 0)


@pytest.mark.parametrize("stacked", [False, True])
def test_adapter_mixes_targets_in_place_bit_for_bit(stacked):
    # reference: the whole predicted stack, then the whole-stack mix
    truth, dataset = toy_problem(seed=13, oversampling=5)
    noisy = np.stack([pb.sample_speckle(dataset.patterns * 20, seed=k)
                      for k in range(2)], axis=1)
    if not stacked:
        noisy = noisy[:, 0]
    dataset = Dataset(dataset.geometry, noisy, dataset.probe)
    cfg = AdapterConfig(mu_c=0.3, inner_sweeps=2, outer_rounds=3)
    state, m_tilde = adapt_constraints(dataset, cfg, seed=4)

    ref = ReconstructionState(
        np.ones(noisy.shape[1:-2] + dataset.geometry.object_dims, complex),
        rng=np.random.default_rng(4))
    ref_m = noisy.copy()
    for _ in range(cfg.outer_rounds):
        targets = Dataset(dataset.geometry, ref_m, dataset.probe)
        for _ in range(cfg.inner_sweeps):
            position_sweep(ref, targets, cfg.inner_rule, cfg.inner_mu)
        z0 = simulate_dataset(ref.object_estimate, dataset.probe,
                              dataset.geometry, Mode.REAL_SPACE, 5)
        ref_m = (1.0 - cfg.mu_c) * ref_m + cfg.mu_c * z0
    assert np.array_equal(m_tilde, ref_m)
    assert np.array_equal(state.object_estimate, ref.object_estimate)
    assert np.array_equal(dataset.patterns, noisy)  # the input is kept


def test_adapt_in_place_adapts_the_datasets_own_patterns():
    truth, dataset = toy_problem(seed=14, oversampling=5)
    noisy = pb.sample_speckle(dataset.patterns * 20, seed=3)
    cfg = AdapterConfig(mu_c=0.3, inner_sweeps=2, outer_rounds=3)
    state, m_tilde = adapt_constraints(
        Dataset(dataset.geometry, noisy, dataset.probe), cfg, seed=4)
    own = Dataset(dataset.geometry, noisy.copy(), dataset.probe)
    in_place = pb.adapt_in_place(own, cfg, seed=4)
    assert np.array_equal(own.patterns, m_tilde)
    assert np.array_equal(in_place.object_estimate, state.object_estimate)
    with pytest.raises(ValueError, match="adapted patterns must be float"):
        pb.adapt_in_place(Dataset(dataset.geometry, noisy.astype(np.float32),
                                  dataset.probe), cfg)


def test_adapter_stops_once_every_slice_has_failed():
    truth, dataset = toy_problem(seed=16)
    diverged = np.full(dataset.geometry.object_dims, np.nan, dtype=complex)
    cfg = AdapterConfig(mu_c=0.1, inner_sweeps=3, outer_rounds=4)
    with pytest.raises(ArithmeticError, match="diverged at sweep 1"):
        adapt_constraints(dataset, cfg, init_object=diverged,
                          true_object=truth)
    batched = Dataset(dataset.geometry,
                      np.stack([dataset.patterns] * 2, axis=1), dataset.probe)
    state, _ = adapt_constraints(batched, cfg, init_object=diverged,
                                 true_object=truth)
    assert {k: str(e) for k, e in state.failures.items()} == {
        k: "reconstruction diverged at sweep 1 (error nan)" for k in (0, 1)}
    # no further sweep or round ran on the failed stack
    assert state.iteration == 1


def test_negative_sweep_counts_raise():
    with pytest.raises(ValueError, match="sweep counts must be >= 0"):
        scheme(1, -5, 3)
    with pytest.raises(ValueError, match="sweep counts must be >= 0"):
        scheme(1, 5, -3)
    # a spec built without `scheme` would otherwise run no sweep
    with pytest.raises(ValueError, match="sweep counts must be >= 0, got "
                                         "-3, -2"):
        pb.SchemeSpec(2, SCHEMES[2].refinement_rule, 0.1, -3, -2)


def test_adapter_config_validation():
    with pytest.raises(ValueError):
        AdapterConfig(mu_c=1.5)
    with pytest.raises(ValueError):
        AdapterConfig(inner_sweeps=0)
