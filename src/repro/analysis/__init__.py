"""Analysis: the paper's error model and dimensionality arguments."""
