"""Maximum-likelihood estimation of superimposed complex sinusoids.

A noisy signal y is modeled as a sum of complex exponentials. The estimator
seeds one node per significant peak of a zero-padded FFT, refines frequencies
and amplitudes by momentum gradient descent on the squared error, and selects
the model order by statistically merging unresolvable node pairs and pruning
nodes indistinguishable from noise. ``estimate_spectrum`` runs the whole
pipeline; the submodules expose each stage for study and reuse.
"""

from .errors import (
    DegenerateInput,
    DegenerateResidual,
    DomainError,
    InvalidDimension,
    LineSpecError,
    NumericalDivergence,
    Overdetermined,
    SingularInformation,
)
from .fft_init import (
    InitConfig,
    initialize,
    periodogram_estimate,
    zero_padded_fft,
)
from .optimizer import (
    CostTrace,
    NetworkState,
    TrainConfig,
    cost,
    forward,
    grad_alpha,
    grad_omega,
    train_inner,
)
from .order_control import (
    CrbPair,
    MergeEvent,
    OrderConfig,
    PruneReport,
    apply_merges,
    apply_prunes,
    crb_pair,
    detection_prob,
    merge_test,
    prune_statistic,
    prune_threshold,
)
from .pipeline import (
    EstimatorConfig,
    RunReport,
    estimate_spectrum,
    estimate_with_fixed_order,
)
from .signal_model import (
    NoiseSpec,
    Signal,
    Sinusoid,
    atom,
    design_matrix,
    ls_amplitudes,
    noise_var_for_snr,
    synthesize,
)
from .stat_dist import (
    FParams,
    f_cdf,
    f_inv_cdf,
    noncentral_f_cdf,
    std_normal_cdf,
    std_normal_inv_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "CostTrace",
    "CrbPair",
    "DegenerateInput",
    "DegenerateResidual",
    "DomainError",
    "EstimatorConfig",
    "FParams",
    "InitConfig",
    "InvalidDimension",
    "LineSpecError",
    "MergeEvent",
    "NetworkState",
    "NoiseSpec",
    "NumericalDivergence",
    "OrderConfig",
    "Overdetermined",
    "PruneReport",
    "RunReport",
    "Signal",
    "SingularInformation",
    "Sinusoid",
    "TrainConfig",
    "apply_merges",
    "apply_prunes",
    "atom",
    "cost",
    "crb_pair",
    "design_matrix",
    "detection_prob",
    "estimate_spectrum",
    "estimate_with_fixed_order",
    "f_cdf",
    "f_inv_cdf",
    "forward",
    "grad_alpha",
    "grad_omega",
    "initialize",
    "ls_amplitudes",
    "merge_test",
    "noise_var_for_snr",
    "noncentral_f_cdf",
    "periodogram_estimate",
    "prune_statistic",
    "prune_threshold",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "synthesize",
    "train_inner",
    "zero_padded_fft",
]
