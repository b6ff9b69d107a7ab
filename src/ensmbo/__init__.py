"""Ensemble-based offline model-based optimization.

Train an ensemble of proxy regressors on a static design dataset, then
optimize designs by gradient ascent where per-model gradients are fused
by a combiner: mean, min, MGDA (min-norm point of the gradient hull), or
CAGrad (conflict-averse step around the mean gradient).
"""

from .ascent import AscentConfig, Combiner, Trajectory, ascend, ascend_batch
from .combine import (
    CagradConfig,
    CombinedGradient,
    GradientSet,
    SimplexWeights,
    SolverError,
    combine_mean,
    combine_min,
    improvement_rate,
    project_to_simplex,
    solve_cagrad_dual,
    solve_cagrad_primal_reference,
    solve_mgda_dual,
    solve_mgda_primal_reference,
)
from .core import (
    Dataset,
    DesignSpace,
    ScoreSummary,
    SpaceKind,
    normalize_score,
    select_bottom_fraction,
    select_top_n,
    summarize_scores,
)
from .harness import ExperimentConfig, RunReport, cli_main, report_markdown, run_experiment
from .nn import Ensemble, MlpModel, TrainConfig, spearman, train, train_ensemble
from .tasks import TaskSpec, evaluate_oracle, get_task, ingest_csv, make_bowl, make_minibind, make_ridge

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "CagradConfig",
    "CombinedGradient",
    "Combiner",
    "Dataset",
    "DesignSpace",
    "Ensemble",
    "ExperimentConfig",
    "GradientSet",
    "MlpModel",
    "RunReport",
    "ScoreSummary",
    "SimplexWeights",
    "SolverError",
    "SpaceKind",
    "TaskSpec",
    "TrainConfig",
    "Trajectory",
    "ascend",
    "ascend_batch",
    "cli_main",
    "combine_mean",
    "combine_min",
    "evaluate_oracle",
    "get_task",
    "improvement_rate",
    "ingest_csv",
    "make_bowl",
    "make_minibind",
    "make_ridge",
    "normalize_score",
    "project_to_simplex",
    "report_markdown",
    "run_experiment",
    "select_bottom_fraction",
    "select_top_n",
    "solve_cagrad_dual",
    "solve_cagrad_primal_reference",
    "solve_mgda_dual",
    "solve_mgda_primal_reference",
    "spearman",
    "summarize_scores",
    "train",
    "train_ensemble",
]
