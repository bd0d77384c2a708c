"""Privacy substrate: budgets, mechanisms, and composition helpers."""
