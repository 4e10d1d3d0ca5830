"""Weighted cylindrical fractional Brownian motion at low Hurst indices:
sampling, fractional calculus, measure-change estimators, a forward-sweep
strong solver with stochastic-derivative validation, and a numerical
lemma-check suite.
"""

import importlib

from . import cylinder, drift, fbm, fraccalc, girsanov, solver

__all__ = ["fbm", "fraccalc", "cylinder", "drift", "girsanov", "solver", "verify", "cli"]

__version__ = "0.1.0"


def __getattr__(name):
    # `cli` loads on first access, so `python -m cylfbm.cli` does not find it
    # already imported by the package; `verify` too, so that the sampling
    # commands never compile the lemma suite
    if name in ("cli", "verify"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
