"""Extensions beyond the paper's 2-D scope (its stated future work)."""
