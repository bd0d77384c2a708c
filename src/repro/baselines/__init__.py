"""Baselines: the methods the paper compares UG/AG against."""
