"""First-principles GLE memory kernels and stochastic reduced-order models."""

__version__ = "0.1.0"
