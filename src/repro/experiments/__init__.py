"""Experiments: one module per table/figure of the paper's evaluation."""
