"""End-to-end and per-layer benchmark of the synopsis server (see README.md)."""
