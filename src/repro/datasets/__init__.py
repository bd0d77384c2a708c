"""Datasets: synthetic analogues of the paper's four evaluation datasets."""
