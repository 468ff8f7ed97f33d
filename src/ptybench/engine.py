"""Reconstruction engines: Error Reduction, sequential ptychographic
sweeps with gradient-descent / Fourier-mix / object-mix update rules, the
scheme registry, and the intensity-constraint adaptation loop.

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
from .forward import Dataset, diffract, exit_wave
from .grids import dft2, idft2
from .metrics import align_and_error
from .noise import require_nonnegative


_TINY = np.finfo(float).tiny  # the smallest positive normal float


def _unit_phase(v, mod=None, out=None):
    """v / |v|, with the phase factor defined as 1 where |v| is 0, NaN or
    subnormal (1/|v| would overflow) so runs stay reproducible. `mod` is
    np.abs(v) when the caller has already computed it; the phase is written
    into `out` when it is given, which may be v itself."""
    if mod is None:
        mod = np.abs(v)
    live = mod >= _TINY
    out = np.divide(v, mod, out=np.empty_like(v) if out is None else out,
                    where=live)
    np.copyto(out, 1, where=~live)
    return out


def modulus_substitute(G: np.ndarray, target_amplitude: np.ndarray,
                       out=None) -> np.ndarray:
    """Replace |G| with the target amplitude while keeping the phase of G
    (1 where |G| is 0, NaN or subnormal); the result is written into `out`
    when it is given, which may be G itself."""
    if G.shape != target_amplitude.shape:
        raise ValueError("shape mismatch in modulus substitution")
    require_nonnegative(target_amplitude, "target amplitude")
    phase = _unit_phase(G, out=out)
    return np.multiply(target_amplitude, phase, out=phase)


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
# probe carries the stack's leading axis. G is the caller's scratch: a rule
# may overwrite it (at oversampling 5 it writes its residual, phase or
# substituted modulus there rather than into a new full-size grid), so a
# caller passes a far field it reads no more, as position_sweep does.

@dataclass(frozen=True)
class GradientDescent:
    """Steepest descent on a cost functional via its Wirtinger gradient.
    The residual overwrites G."""
    functional: object  # Transform or PoissonLogLikelihood

    def step(self, G, pattern, probe, mu):
        """The descent step mu * conj(P) * dL/dg* for one position; the
        residual overwrites G."""
        d = idft2(gradient_residual(self.functional, G, pattern, out=G),
                  probe.shape)
        return mu * np.conj(probe) * d

    def update(self, window, g, G, pattern, probe, mu):
        window -= self.step(G, pattern, probe, mu)

    def describe(self):
        return ("gradient_descent", self.functional.name)


@dataclass(frozen=True)
class FourierMix:
    """Convex combination of transformed intensities in the Fourier domain,
    keeping the estimated phase; mu = 0 keeps the estimate exactly. The
    unit phase, then the new far field, overwrite G."""
    transform: Transform

    def update(self, window, g, G, pattern, probe, mu):
        if mu == 0.0:
            return
        mod = np.abs(G)
        phase = _unit_phase(G, mod, out=G)
        mod *= mod  # |G|^2, the bits of mod ** 2
        amp = self.transform.mix(mod, pattern, mu)
        del mod  # freed before idft2 makes its grid
        np.maximum(amp, 0.0, out=amp)
        np.sqrt(amp, out=amp)
        g_new = idft2(np.multiply(amp, phase, out=phase), probe.shape)
        window += np.conj(probe) * (g_new - g)

    def describe(self):
        return ("fourier_mix", self.transform.name)


@dataclass(frozen=True)
class ObjectMix:
    """Full modulus-substitution update followed by a transformed convex
    combination of old and new object in the object domain; mu = 0 keeps
    the estimate exactly. The substituted modulus overwrites G."""
    transform: Transform

    def update(self, window, g, G, pattern, probe, mu):
        if mu == 0.0:
            return
        g_prime = idft2(modulus_substitute(G, np.sqrt(pattern), out=G),
                        probe.shape)
        window_prime = window + np.conj(probe) * (g_prime - g)
        amp, amp_prime = np.abs(window), np.abs(window_prime)
        mod = self.transform.mix(amp, amp_prime, mu)
        phase = _unit_phase((1.0 - mu) * _unit_phase(window, amp)
                            + mu * _unit_phase(window_prime, amp_prime))
        window[:] = np.maximum(mod, 0.0) * phase

    def describe(self):
        return ("object_mix", self.transform.name)


@dataclass
class ReconstructionState:
    """One object estimate (H, W) or a stack (R, H, W) with its sweep count,
    error log, sweep-order stream, and the truth and mask it is scored by.

    For a stack, each error_log entry holds an (R,) array of errors, and
    `failures` maps the index of each slice that could not be scored (its
    error turned non-finite, or scoring raised an ArithmeticError) to
    that exception; that slice is no longer scored, and the others go on
    unchanged.
    """
    object_estimate: np.ndarray
    iteration: int = 0
    error_log: list = field(default_factory=list)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    failures: dict = field(default_factory=dict)
    true_object: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None

    def fork(self) -> "ReconstructionState":
        """An independent copy that shares only the ground truth and mask."""
        return copy.deepcopy(self, {id(self.true_object): self.true_object,
                                    id(self.mask): self.mask})

    def all_failed(self) -> bool:
        return (self.object_estimate.ndim > 2
                and len(self.failures) == len(self.object_estimate))

    def log_error(self):
        """Append (iteration, masked error) when the state has a ground truth.
        A non-finite error raises ArithmeticError on a 2D estimate, so a
        diverging run stops at the first sweep that shows it, and an error
        that cannot be computed raises AlignmentUndefined; in a stack either
        marks only its slice failed, and that slice's error reads NaN from
        then on. A truth that is zero on the mask is a bad input: its
        ValueError raises from the first call, on a stack too."""
        if self.true_object is None:
            return
        obj = self.object_estimate
        slices = obj.reshape((-1,) + obj.shape[-2:])
        errors = np.full(len(slices), np.nan)
        for k, estimate in enumerate(slices):
            if k in self.failures:
                continue
            try:
                err = errors[k] = align_and_error(estimate, self.true_object,
                                                  self.mask)
                if not np.isfinite(err):
                    raise ArithmeticError(f"reconstruction diverged at sweep "
                                          f"{self.iteration} (error {err})")
            except ArithmeticError as exc:
                # a numeric failure fails only its own slice; any other
                # error is a bug and raises
                self.failures[k] = exc
        if obj.ndim == 2:
            self.error_log.append((self.iteration, float(errors[0])))
            if self.failures:
                raise self.failures[0]
        else:
            self.error_log.append((self.iteration, errors))


def _start_state(dataset, init_object, seed, true_object, mask):
    """The one start constructor: `init_object`, or 1 when it is None,
    copied for each reconstruction in the dataset's batch and scored
    against `true_object` on `mask`."""
    shape = dataset.patterns.shape[1:-2] + dataset.geometry.object_dims
    return ReconstructionState(
        np.broadcast_to(1.0 if init_object is None else init_object,
                        shape).astype(complex),
        rng=np.random.default_rng(seed), true_object=true_object, mask=mask)


def position_sweep(state: ReconstructionState, dataset: Dataset,
                   rule, mu: float) -> ReconstructionState:
    """One full sweep of sequential per-position updates, in shuffled order
    drawn from the state's stream; an object stack is swept as one, against
    a batched dataset. Each position's far field is a new array that the
    rule may overwrite. Mutates and returns `state`."""
    positions = dataset.geometry.positions
    obj = state.object_estimate
    wh, ww = dataset.probe.shape
    s = dataset.oversampling
    for j in state.rng.permutation(len(positions)):
        g = exit_wave(obj, dataset.probe, positions[j])
        G = dft2(g, s)
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
    s = dataset.oversampling
    rule = GradientDescent(functional)
    accum = np.zeros_like(obj)
    for pos, pattern in zip(dataset.geometry.positions, dataset.patterns):
        G = dft2(exit_wave(obj, dataset.probe, pos), s)
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

    def __post_init__(self):
        if self.warmup_iterations < 0 or self.refinement_iterations < 0:
            raise ValueError(f"sweep counts must be >= 0, got "
                             f"{self.warmup_iterations}, "
                             f"{self.refinement_iterations}")

    def describe(self):
        return self.refinement_rule.describe()


_AMPLITUDE = functional_by_name("sqrt")
WARMUP_RULE = GradientDescent(_AMPLITUDE)

_MIX_TRANSFORMS = ["anscombe", "sqrt_plus_1", "pow_0.7", "identity",
                   "log_half", "log_1"]

# each scheme's refinement rule, numbered from 1 in list order. Scheme 1 is
# Error Reduction throughout: the warmup's rule at mu 1, as an object of its
# own, so only warmup sweeps run WARMUP_RULE itself
_RULES = ([GradientDescent(_AMPLITUDE)]
          + [GradientDescent(functional_by_name(name))
             for name in ["sqrt", "pow_0.7", "pow_0.9", "anscombe",
                          "sqrt_plus_1", "log_half", "log_1"]]
          + [FourierMix(TRANSFORMS[name]) for name in _MIX_TRANSFORMS]
          + [ObjectMix(TRANSFORMS[name]) for name in _MIX_TRANSFORMS])

SCHEMES = {i: SchemeSpec(i, rule, 1.0 if i == 1 else 0.1)
           for i, rule in enumerate(_RULES, start=1)}


def scheme(scheme_id: int,
           warmup_iterations: int = SchemeSpec.warmup_iterations,
           refinement_iterations: int = SchemeSpec.refinement_iterations
           ) -> SchemeSpec:
    """Look up a benchmark scheme by its stable id, optionally overriding
    the iteration counts."""
    if scheme_id not in SCHEMES:
        raise ValueError(f"unknown scheme id {scheme_id}; valid ids are "
                         f"1..{len(SCHEMES)}")
    return replace(SCHEMES[scheme_id], warmup_iterations=warmup_iterations,
                   refinement_iterations=refinement_iterations)


# log_error records a diverging run's inf and NaN as its failure
@np.errstate(over="ignore", invalid="ignore")
def _sweeps(state, dataset, rule, mu, count):
    """`count` sweeps, each followed by its error; stops early once every
    slice of a stack has failed."""
    for _ in range(count):
        if state.all_failed():
            break
        position_sweep(state, dataset, rule, mu)
        state.log_error()
    return state


@np.errstate(over="ignore", invalid="ignore")
def warm_start(dataset: Dataset, warmup_iterations: int,
               init_object: Optional[np.ndarray] = None,
               true_object: Optional[np.ndarray] = None,
               mask: Optional[np.ndarray] = None,
               seed: int = 0) -> ReconstructionState:
    """The warmup every scheme shares: the start state, which carries the
    truth and mask its forks are scored against, then `warmup_iterations`
    sweeps of Error Reduction (amplitude cost, mu = 1), logging the masked
    error from sweep 0 when a ground truth is given."""
    state = _start_state(dataset, init_object, seed, true_object, mask)
    state.log_error()
    return _sweeps(state, dataset, WARMUP_RULE, 1.0, warmup_iterations)


def refine(spec: SchemeSpec, dataset: Dataset,
           state: ReconstructionState) -> ReconstructionState:
    """The refinement sweeps of scheme `spec` on `state`, each followed by
    its error. Mutates and returns `state`: pass a fork of a shared warmup
    to keep the warmup."""
    return _sweeps(state, dataset, spec.refinement_rule, spec.mu,
                   spec.refinement_iterations)


def run_scheme(spec: SchemeSpec, dataset: Dataset,
               init_object: Optional[np.ndarray] = None,
               true_object: Optional[np.ndarray] = None,
               mask: Optional[np.ndarray] = None,
               seed: int = 0) -> ReconstructionState:
    """Run one benchmark scheme: warmup sweeps of Error Reduction
    (amplitude cost, mu = 1), then refinement sweeps with the scheme's rule.
    Logs the masked error once per sweep when a ground truth is given."""
    return refine(spec, dataset,
                  warm_start(dataset, spec.warmup_iterations, init_object,
                             true_object, mask, seed))


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


@np.errstate(over="ignore", invalid="ignore")
def adapt_in_place(dataset: Dataset, config: AdapterConfig,
                   init_object: Optional[np.ndarray] = None,
                   true_object: Optional[np.ndarray] = None,
                   mask: Optional[np.ndarray] = None,
                   seed: int = 0) -> ReconstructionState:
    """Outer loop that slowly replaces the measured intensities with the
    model's own predictions: starting from m~ = y, the dataset's float
    patterns, each round runs `inner_sweeps` position sweeps against m~,
    then mixes m~ <- (1 - mu_c) m~ + mu_c z0 with z0 the currently
    predicted stack. m~ is the dataset's patterns array itself: it is
    overwritten, so a caller that keeps y passes a copy.

    The mix runs in place, one position at a time, so no whole predicted
    stack is held; each element is the same fl(fl(a m~) + fl(b z0)). m~
    stays a nonnegative convex combination of nonnegative stacks, so the
    checks of Dataset hold in every round. On an object stack the rounds
    stop once every slice has failed, as the sweeps of `refine` do.
    Returns the final state.
    """
    if dataset.patterns.dtype != float:
        raise ValueError(f"adapted patterns must be float, "
                         f"got {dataset.patterns.dtype}")
    state = _start_state(dataset, init_object, seed, true_object, mask)
    for _ in range(config.outer_rounds):
        _sweeps(state, dataset, config.inner_rule, config.inner_mu,
                config.inner_sweeps)
        if state.all_failed():
            break
        if config.mu_c > 0.0:
            _mix_targets(dataset, state.object_estimate, config.mu_c)
    return state


def _mix_targets(dataset: Dataset, obj: np.ndarray, mu_c: float):
    """m~ <- (1 - mu_c) m~ + mu_c z0 in place on the dataset's patterns, one
    position at a time, with z0 the intensity `obj` predicts there. Each
    prediction is scaled in its own grid, and freed before the next one is
    made."""
    m_tilde = dataset.patterns
    for j, pos in enumerate(dataset.geometry.positions):
        m_tilde[j] *= 1.0 - mu_c
        # the estimate is of the effective object, so its prediction is the
        # plain forward model in either mode
        z = diffract(exit_wave(obj, dataset.probe, pos), dataset.oversampling)
        m_tilde[j] += np.multiply(mu_c, z, out=z)
        del z


def adapt_constraints(dataset: Dataset, config: AdapterConfig,
                      init_object: Optional[np.ndarray] = None,
                      true_object: Optional[np.ndarray] = None,
                      mask: Optional[np.ndarray] = None,
                      seed: int = 0):
    """`adapt_in_place` on a float copy of the dataset's patterns, which
    are kept. Returns (final state, final m~ stack)."""
    adapted = replace(dataset, patterns=dataset.patterns.astype(float,
                                                                copy=True))
    return adapt_in_place(adapted, config, init_object, true_object, mask,
                          seed), adapted.patterns
