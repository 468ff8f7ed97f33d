"""Reconstruction engines: Error Reduction, sequential ptychographic
sweeps with gradient-descent / Fourier-mix / object-mix update rules, the
20-scheme benchmark registry, and the intensity-constraint adaptation loop.

A reconstruction runs on one object (H, W), or on a stack (R, H, W) of
independent reconstructions from a batched Dataset whose patterns[j] is
the (R, h, w) stack at position j. All R visit the positions in the same
order, so one sweep updates the whole stack; each slice equals, bit for
bit, the run of its own 2D dataset.
"""

import copy
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cost import (Transform, TRANSFORMS, functional_by_name,
                   gradient_residual)
from .forward import Dataset, Mode, exit_wave, far_field, simulate_dataset
from .grids import crop_center, dft2, idft2
from .metrics import align_and_error


def _unit_phase(v):
    """v / |v|, with the phase factor defined as 1 where v = 0 so runs
    stay reproducible."""
    mod = np.abs(v)
    return np.where(mod > 0, v / np.where(mod > 0, mod, 1.0), 1.0)


def modulus_substitute(G: np.ndarray, target_amplitude: np.ndarray) -> np.ndarray:
    """Replace |G| with the target amplitude while keeping the phase of G
    (1 where |G| = 0)."""
    if G.shape != target_amplitude.shape:
        raise ValueError("shape mismatch in modulus substitution")
    if np.any(target_amplitude < 0):
        raise ValueError("target amplitude must be nonnegative")
    return target_amplitude * _unit_phase(G)


def er_support_iterate(g: np.ndarray, support_mask: np.ndarray,
                       measured_amplitude: np.ndarray) -> np.ndarray:
    """One Error Reduction iterate for single-measurement phase retrieval:
    enforce the Fourier modulus, then zero the field outside the support."""
    g_sub = idft2(modulus_substitute(dft2(g), measured_amplitude))
    return np.where(support_mask, g_sub, 0.0)


# ---------------------------------------------------------------------------
# update rule variants: update(window, g, G, pattern, probe, mu) changes one
# probe window of the object in place, given the exit wave g there, its far
# field G and the measured pattern; on an object stack each argument but the
# probe carries the stack's leading axis

@dataclass(frozen=True)
class GradientDescent:
    """Steepest descent on a cost functional via its Wirtinger gradient."""
    functional: object  # Transform or PoissonLogLikelihood

    def step(self, G, pattern, probe, mu):
        """The descent step mu * conj(P) * dL/dg* for one position."""
        d = crop_center(idft2(gradient_residual(self.functional, G, pattern)),
                        *probe.shape)
        return mu * np.conj(probe) * d

    def update(self, window, g, G, pattern, probe, mu):
        window -= self.step(G, pattern, probe, mu)

    def describe(self):
        return ("gradient_descent", self.functional.name)


@dataclass(frozen=True)
class FourierMix:
    """Convex combination of transformed intensities in the Fourier domain,
    keeping the estimated phase; mu = 0 keeps the estimate exactly."""
    transform: Transform

    def update(self, window, g, G, pattern, probe, mu):
        if mu == 0.0:
            return
        t = self.transform
        z = np.abs(G) ** 2
        mixed = t.inv((1.0 - mu) * t.fwd(z) + mu * t.fwd(pattern))
        G_new = np.sqrt(np.maximum(mixed, 0.0)) * _unit_phase(G)
        g_new = crop_center(idft2(G_new), *probe.shape)
        window += np.conj(probe) * (g_new - g)

    def describe(self):
        return ("fourier_mix", self.transform.name)


@dataclass(frozen=True)
class ObjectMix:
    """Full modulus-substitution update followed by a transformed convex
    combination of old and new object in the object domain; mu = 0 keeps
    the estimate exactly."""
    transform: Transform

    def update(self, window, g, G, pattern, probe, mu):
        if mu == 0.0:
            return
        t = self.transform
        g_prime = crop_center(idft2(modulus_substitute(G, np.sqrt(pattern))),
                              *probe.shape)
        window_prime = window + np.conj(probe) * (g_prime - g)
        mod = t.inv((1.0 - mu) * t.fwd(np.abs(window))
                    + mu * t.fwd(np.abs(window_prime)))
        phase = _unit_phase((1.0 - mu) * _unit_phase(window)
                            + mu * _unit_phase(window_prime))
        window[:] = np.maximum(mod, 0.0) * phase

    def describe(self):
        return ("object_mix", self.transform.name)


# a numeric failure fails only its own reconstruction; a programming error
# raises
NUMERIC_FAILURES = (ArithmeticError, ValueError, np.linalg.LinAlgError)


@dataclass
class ReconstructionState:
    """One object estimate (H, W) or a stack of them (R, H, W), with the
    sweep count, the error log and the stream that orders the sweeps.

    For a stack, each error_log entry holds an (R,) array of errors, and
    `failures` maps the index of each slice that could not be scored (its
    error turned non-finite, or scoring raised one of NUMERIC_FAILURES) to
    that exception; that slice is no longer scored, and the others go on
    unchanged.
    """
    object_estimate: np.ndarray
    iteration: int = 0
    error_log: list = field(default_factory=list)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    failures: dict = field(default_factory=dict)

    @classmethod
    def constant_init(cls, object_dims, value=1.0 + 0.0j, seed=0):
        return cls(object_estimate=np.full(object_dims, value, dtype=complex),
                   rng=np.random.default_rng(seed))

    def fork(self) -> "ReconstructionState":
        """An independent copy: object, error log, failures and rng."""
        return copy.deepcopy(self)

    def all_failed(self) -> bool:
        return (self.object_estimate.ndim > 2
                and len(self.failures) == len(self.object_estimate))

    def log_error(self, true_object, mask):
        """Append (iteration, masked error) when a ground truth is given.
        A non-finite error raises ArithmeticError on a 2D estimate, so a
        diverging run stops at the first sweep that shows it, and an error
        that cannot be computed raises its own exception; in a stack either
        marks only its slice failed, and that slice's error reads NaN from
        then on."""
        if true_object is None:
            return
        obj = self.object_estimate
        slices = obj.reshape((-1,) + obj.shape[-2:])
        errors = np.full(len(slices), np.nan)
        for k, estimate in enumerate(slices):
            if k in self.failures:
                continue
            try:
                err = errors[k] = align_and_error(estimate, true_object, mask)
            except NUMERIC_FAILURES as exc:
                self.failures[k] = exc
                continue
            if not np.isfinite(err):
                self.failures[k] = ArithmeticError(
                    f"reconstruction diverged at sweep {self.iteration} "
                    f"(error {err})")
        if obj.ndim == 2:
            self.error_log.append((self.iteration, float(errors[0])))
            if self.failures:
                raise self.failures[0]
        else:
            self.error_log.append((self.iteration, errors))


def _start_state(dataset: Dataset, init_object, seed) -> ReconstructionState:
    """A copy of `init_object`, or the constant start when it is None, for
    each reconstruction in the dataset's batch."""
    shape = dataset.patterns.shape[1:-2] + dataset.geometry.object_dims
    if init_object is None:
        return ReconstructionState.constant_init(shape, seed=seed)
    return ReconstructionState(
        object_estimate=np.broadcast_to(init_object, shape).astype(complex),
        rng=np.random.default_rng(seed))


def position_sweep(state: ReconstructionState, dataset: Dataset,
                   rule, mu: float) -> ReconstructionState:
    """One full sweep of sequential per-position updates, in shuffled order
    drawn from the state's stream; an object stack is swept as one, against
    a batched dataset. Mutates and returns `state`."""
    positions = dataset.geometry.positions
    obj = state.object_estimate
    wh, ww = dataset.probe.shape
    for j in state.rng.permutation(len(positions)):
        g = exit_wave(obj, dataset.probe, positions[j])
        G = far_field(g, dataset.oversampling)
        r, c = positions[j]
        rule.update(obj[..., r:r + wh, c:c + ww], g, G, dataset.patterns[j],
                    dataset.probe, mu)
    state.iteration += 1
    return state


def global_gradient_step(state: ReconstructionState, dataset: Dataset,
                         functional, mu: float) -> ReconstructionState:
    """One simultaneous update accumulating all positions' gradient
    contributions before touching the object."""
    obj = state.object_estimate
    wh, ww = dataset.probe.shape
    rule = GradientDescent(functional)
    accum = np.zeros_like(obj)
    for pos, pattern in zip(dataset.geometry.positions, dataset.patterns):
        G = far_field(exit_wave(obj, dataset.probe, pos),
                      dataset.oversampling)
        r, c = pos
        accum[..., r:r + wh, c:c + ww] += rule.step(G, pattern, dataset.probe,
                                                    1.0)
    state.object_estimate = obj - mu * accum
    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# scheme registry

@dataclass(frozen=True)
class SchemeSpec:
    id: int
    refinement_rule: object
    mu: float
    warmup_iterations: int = 100
    refinement_iterations: int = 200

    def describe(self):
        return self.refinement_rule.describe()


_AMPLITUDE = functional_by_name("sqrt")
WARMUP_RULE = GradientDescent(_AMPLITUDE)

_GD_FUNCTIONALS = ["sqrt", "pow_0.7", "pow_0.9", "anscombe", "sqrt_plus_1",
                   "log_half", "log_1"]
_MIX_TRANSFORMS = ["anscombe", "sqrt_plus_1", "pow_0.7", "identity",
                   "log_half", "log_1"]


def _build_schemes():
    schemes = {}
    # scheme 1: Error Reduction throughout (amplitude cost, mu = 1)
    schemes[1] = SchemeSpec(1, GradientDescent(_AMPLITUDE), 1.0)
    for i, name in enumerate(_GD_FUNCTIONALS, start=2):
        schemes[i] = SchemeSpec(i, GradientDescent(functional_by_name(name)), 0.1)
    for i, name in enumerate(_MIX_TRANSFORMS, start=9):
        schemes[i] = SchemeSpec(i, FourierMix(TRANSFORMS[name]), 0.1)
    for i, name in enumerate(_MIX_TRANSFORMS, start=15):
        schemes[i] = SchemeSpec(i, ObjectMix(TRANSFORMS[name]), 0.1)
    return schemes


SCHEMES = _build_schemes()


def scheme(scheme_id: int, warmup_iterations: int = 100,
           refinement_iterations: int = 200) -> SchemeSpec:
    """Look up a benchmark scheme by its stable id (1..20), optionally
    overriding the iteration counts."""
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown scheme id {scheme_id}; valid ids are 1..20")
    return replace(SCHEMES[scheme_id], warmup_iterations=warmup_iterations,
                   refinement_iterations=refinement_iterations)


def _sweeps(state, dataset, rule, mu, count, true_object, mask):
    """`count` sweeps, each followed by its error; stops early once every
    slice of a stack has failed."""
    for _ in range(count):
        if state.all_failed():
            break
        position_sweep(state, dataset, rule, mu)
        state.log_error(true_object, mask)
    return state


def warm_start(dataset: Dataset, warmup_iterations: int,
               init_object: Optional[np.ndarray] = None,
               true_object: Optional[np.ndarray] = None,
               mask: Optional[np.ndarray] = None,
               seed: int = 0) -> ReconstructionState:
    """The warmup every scheme shares: the start state, then
    `warmup_iterations` sweeps of Error Reduction (amplitude cost,
    mu = 1), logging the masked error when a ground truth is given."""
    state = _start_state(dataset, init_object, seed)
    state.log_error(true_object, mask)
    return _sweeps(state, dataset, WARMUP_RULE, 1.0, warmup_iterations,
                   true_object, mask)


def run_scheme(spec: SchemeSpec, dataset: Dataset,
               init_object: Optional[np.ndarray] = None,
               true_object: Optional[np.ndarray] = None,
               mask: Optional[np.ndarray] = None,
               seed: int = 0,
               start: Optional[ReconstructionState] = None
               ) -> ReconstructionState:
    """Run one benchmark scheme: warmup sweeps of Error Reduction
    (amplitude cost, mu = 1), then refinement sweeps with the scheme's rule.

    Logs the masked reconstruction error once per sweep when a ground
    truth is given. With `start`, a warmed state from `warm_start`, the
    scheme refines a fork of it and leaves it unchanged; `init_object`,
    `seed` and `spec.warmup_iterations` are then already spent.
    """
    state = (start.fork() if start is not None else
             warm_start(dataset, spec.warmup_iterations, init_object,
                        true_object, mask, seed))
    return _sweeps(state, dataset, spec.refinement_rule, spec.mu,
                   spec.refinement_iterations, true_object, mask)


# ---------------------------------------------------------------------------
# intensity-constraint adaptation

@dataclass(frozen=True)
class AdapterConfig:
    mu_c: float = 0.1
    inner_sweeps: int = 5
    outer_rounds: int = 40
    inner_rule: object = WARMUP_RULE
    inner_mu: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu_c <= 1.0:
            raise ValueError(f"mu_c must lie in [0, 1], got {self.mu_c}")
        if self.inner_sweeps < 1 or self.outer_rounds < 1:
            raise ValueError("inner_sweeps and outer_rounds must be >= 1")


def adapt_constraints(dataset: Dataset, config: AdapterConfig,
                      init_object: Optional[np.ndarray] = None,
                      true_object: Optional[np.ndarray] = None,
                      mask: Optional[np.ndarray] = None,
                      seed: int = 0):
    """Outer loop that slowly replaces the measured intensities with the
    model's own predictions: starting from m~ = y, each round runs
    `inner_sweeps` position sweeps against m~, then mixes
    m~ <- (1 - mu_c) m~ + mu_c z0 with z0 the currently predicted stack.

    Returns (final state, final m~ stack).
    """
    state = _start_state(dataset, init_object, seed)
    m_tilde = dataset.patterns.astype(float, copy=True)
    for _ in range(config.outer_rounds):
        constrained = replace(dataset, patterns=m_tilde)
        for _ in range(config.inner_sweeps):
            position_sweep(state, constrained, config.inner_rule,
                           config.inner_mu)
            state.log_error(true_object, mask)
        if config.mu_c > 0.0:
            # the estimate already lives in the effective (real-space-
            # equivalent) domain, so always re-simulate in real-space terms
            z0 = simulate_dataset(state.object_estimate, dataset.probe,
                                  dataset.geometry, Mode.REAL_SPACE,
                                  dataset.oversampling)
            m_tilde = (1.0 - config.mu_c) * m_tilde + config.mu_c * z0
    return state, m_tilde
