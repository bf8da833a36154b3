"""Feature-occupancy gradient ascent for offline RL in linear MDPs."""

from .data import (
    Covariance,
    OfflineDataset,
    PsiHat,
    build_covariance,
    collect_dataset,
    estimate_psi,
    load_dataset,
    save_dataset,
)
from .diagnostics import (
    Comparators,
    GapReport,
    build_comparators,
    duality_gap_report,
    eval_f,
    gap_estimation_error,
    player_regrets,
)
from .linmdp import (
    LinearMdp,
    TabularPolicy,
    generate_linear_mdp,
    load_mdp,
    save_mdp,
    softmax_from_logit_param,
    uniform_policy,
    validate_linear_mdp,
)
from .oracle import (
    PolicyEvaluation,
    evaluate_policy,
    solve_optimal,
)
from .solver import (
    FogasConfig,
    FogasRun,
    FogasTrajectory,
    canonical_d_theta,
    gradient_norm_bound,
    load_run,
    run_fogas,
    save_run,
    theoretical_min_iterations,
    theoretical_rates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
