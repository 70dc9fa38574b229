"""Multi-pass (mini-batch) gradient methods for least squares, with an
error decomposition, parameter recipes, early stopping, and numeric
checks of the closed-form estimates behind them."""

from .bounds import (
    LemmaVerdict,
    acceptance_sweep,
    check_contraction_bound,
    check_convolution_bound,
    check_sum_bounds,
    verdicts_to_csv,
)
from .data import (
    Sample,
    abs_target,
    gen_linear_attainable,
    gen_synthetic_abs,
    load_csv,
    minmax_scale,
    misclassification,
    save_csv,
    split,
)
from .decomposition import (
    DecompositionReport,
    RateFit,
    UnbiasednessReport,
    decompose,
    decompose_batch,
    effective_dimension,
    excess_risk,
    fit_rate,
    h_norm_error,
    unbiasedness_check,
)
from .errors import (
    DataFormatError,
    DimensionMismatch,
    DivergenceError,
    EmptyDataError,
    KernelDomainError,
    NonNumericError,
    RaggedRowError,
)
from .iterations import (
    IndexPlan,
    Trajectory,
    log_checkpoints,
    run_batch_gm,
    run_population,
    run_sgm,
    run_sgm_trials,
    sample_index_plan,
)
from .kernels import GramMatrix, KernelSpec, build_gram, cross_matrix, kappa_sq
from .rng import make_rng, mix_seed
from .schedules import (
    RECIPE_IDS,
    Recipe,
    ScheduleCheck,
    StepSchedule,
    passes,
    recipe,
    recipe_table,
    validate_schedule,
)
from .spaces import (
    AnchorSet,
    HypothesisVector,
    euclidean_vector,
    kernel_vector,
    mean_square_error,
    predict,
)
from .stopping import StoppingOutcome, holdout_stop, tstar_outcome

__version__ = "0.1.0"
