"""Phase-space symmetrization toolkit for continuous-variable QKD data."""

__version__ = "0.1.0"
