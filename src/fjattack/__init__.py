"""Opinion-dynamics attack planning for monitored multi-agent discussions.

The package models a discussion as Friedkin-Johnsen opinion dynamics on a
directed influence network, evaluates how far a small set of stealthy
adversarial agents can push the aggregate outcome, plans such attacks with
a tractable two-level search, and recovers dynamics parameters from
observed trajectories.  See the README for the CLI surface.
"""

from .adversary import (
    DEFAULT_P,
    AdversarialOutcome,
    AttackConfig,
    adversarial_outcome,
    apply_adversarial_weights,
    outcome_metrics,
    simulate_adversarial,
)
from .dynamics import (
    THETA_MIN,
    FjParameters,
    InfluenceNetwork,
    OpinionTrajectory,
    Outcome,
    closed_form_outcome,
    fj_step,
    simulate,
)
from .errors import CapExceededError, ConvergenceError, ValidationError
from .harness import (
    ABLATION_MODES,
    COMPARISON_STRATEGIES,
    TOPOLOGIES,
    BenchmarkSummary,
    ResultRow,
    Scenario,
    benchmark,
    generate,
    run_ablation,
    run_comparison,
)
from .optimizer import (
    AttackPlan,
    MarginalGains,
    baseline_variant,
    brute_force_oracle,
    count_configurations,
    marginal_gains,
    solve_attack,
    solve_follower,
)
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    RobustnessRow,
    project_to_simplex,
    recover,
    recovery_robustness,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATION_MODES",
    "COMPARISON_STRATEGIES",
    "TOPOLOGIES",
    "AdversarialOutcome",
    "AttackConfig",
    "AttackPlan",
    "BenchmarkSummary",
    "CapExceededError",
    "ConvergenceError",
    "DEFAULT_P",
    "FjParameters",
    "InfluenceNetwork",
    "MarginalGains",
    "OpinionTrajectory",
    "Outcome",
    "RecoveryProblem",
    "RecoveryResult",
    "ResultRow",
    "RobustnessRow",
    "Scenario",
    "THETA_MIN",
    "ValidationError",
    "adversarial_outcome",
    "apply_adversarial_weights",
    "baseline_variant",
    "benchmark",
    "brute_force_oracle",
    "closed_form_outcome",
    "count_configurations",
    "fj_step",
    "generate",
    "marginal_gains",
    "outcome_metrics",
    "project_to_simplex",
    "recover",
    "recovery_robustness",
    "run_ablation",
    "run_comparison",
    "simulate",
    "simulate_adversarial",
    "solve_attack",
    "solve_follower",
]
