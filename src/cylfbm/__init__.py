"""Weighted cylindrical fractional Brownian motion at low Hurst indices:
sampling, fractional calculus, measure-change estimators, a forward-sweep
strong solver with stochastic-derivative validation, and a numerical
lemma-check suite.
"""

from . import cli, cylinder, drift, fbm, fraccalc, girsanov, solver, verify

__all__ = ["fbm", "fraccalc", "cylinder", "drift", "girsanov", "solver", "verify", "cli"]

__version__ = "0.1.0"
