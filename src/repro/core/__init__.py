"""Core: geometry, datasets, grids, and the UG/AG contributions."""
