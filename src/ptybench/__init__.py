"""Ptychographic phase-retrieval toolkit and noise-robustness benchmark."""

from .grids import dft2, idft2, zero_pad_center, crop_center
from .forward import (Mode, ScanGeometry, Dataset, make_probe,
                      raster_positions, exit_wave, far_field, diffract,
                      simulate_dataset, synthesize_object)
from .noise import (NoiseModel, scale_to_budget, sample_poisson,
                    sample_speckle, apply_noise, poisson_log_pmf)
from .cost import (Transform, TRANSFORMS, PoissonLogLikelihood,
                   FUNCTIONAL_NAMES, functional_by_name, cost_eval,
                   gradient_residual, taylor_gap)
from .engine import (GradientDescent, FourierMix, ObjectMix, SchemeSpec,
                     ReconstructionState, AdapterConfig, SCHEMES, scheme,
                     modulus_substitute, er_support_iterate, position_sweep,
                     global_gradient_step, warm_start, run_scheme,
                     adapt_constraints)
from .metrics import illumination_mask, align_and_error
from .harness import (ExperimentConfig, ExperimentRecord, parse_config,
                      run_experiment, compare_schemes, export, load_record)

__version__ = "0.1.0"
