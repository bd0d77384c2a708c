"""Query workloads and error metrics (Section V-A methodology)."""
