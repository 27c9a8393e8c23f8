"""densigraph: traffic density from roadside-camera image sequences.

Pipeline: ingest frames -> clean outliers -> temporal background
subtraction into density traces -> distribution fitting (KS-ranked) and
long-range-dependence analysis. The synth module provides seeded oracles
(scenes with exact coverage, distribution samplers, fractional Gaussian
noise) that the test suite builds on.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
