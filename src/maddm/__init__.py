"""Sequential multi-advisor decision making without ground truth.

The package provides the adaptive decision method (trust records,
marginal-utility advisor selection, ensemble answer inference, review
recalibration), the comparison methods, a synthetic environment
generator, and a paired-seed experiment harness with a CLI.
"""

from maddm.answers import AnswerLog, AnswerSet
from maddm.baselines import (
    EmAggregator,
    StrategyConfig,
    cost_effectiveness,
    run_baseline,
    select_budget_constrained,
    select_fixed_number,
)
from maddm.ensemble import (
    EnsembleOutcome,
    average_uncertainty,
    bayesian_probabilities,
    decide_and_update,
    ensemble_decide,
    weighted_voting_probabilities,
)
from maddm.environment import ENV_TEMPLATES, Environment, EnvironmentTemplate
from maddm.harness import (
    ComparisonReport,
    ExperimentPlan,
    MethodSpec,
    default_plan,
    execute_plan,
    plan_from_dict,
    plan_to_dict,
    run_maddm,
    run_method,
)
from maddm.results import RunResult
from maddm.review import ReviewConfig, ReviewOutcome, review_update
from maddm.selection import SelectionOutcome, select_advisors
from maddm.stats import mann_whitney_u
from maddm.trust import TrustVector, apply_confidence_update

__version__ = "0.1.0"
