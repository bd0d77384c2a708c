"""Privacy substrate: budgets, mechanisms, and composition helpers."""

from repro.privacy.budget import BudgetEntry, BudgetExceededError, PrivacyBudget
from repro.privacy.composition import (
    geometric_allocation,
    parallel_epsilon,
    sequential_epsilon,
    uniform_allocation,
)
from repro.privacy.validation import (
    PrivacyAuditResult,
    audit_scalar_mechanism,
    laplace_epsilon_bound,
)
from repro.privacy.mechanisms import (
    ensure_rng,
    exponential_mechanism,
    laplace_mechanism,
    laplace_noise,
    laplace_scale,
    noisy_count,
    noisy_histogram,
    noisy_median,
)

__all__ = [
    "BudgetEntry",
    "BudgetExceededError",
    "PrivacyAuditResult",
    "PrivacyBudget",
    "audit_scalar_mechanism",
    "laplace_epsilon_bound",
    "ensure_rng",
    "exponential_mechanism",
    "geometric_allocation",
    "laplace_mechanism",
    "laplace_noise",
    "laplace_scale",
    "noisy_count",
    "noisy_histogram",
    "noisy_median",
    "parallel_epsilon",
    "sequential_epsilon",
    "uniform_allocation",
]
