"""Workload definitions: the CLI config each operation runs and the checks
its output must pass.

Configs set only the keys a workload needs; everything else (``threads``
included) stays at the program's default.  The Monte Carlo seed of each
operation comes from the benchmark seed, never from the program.

This module imports nothing from numpy or cylfbm, so importing it does not
disturb the import-time measurement.
"""

from __future__ import annotations

import csv
import math
import random
import statistics

# lemma checks verify.run_all runs; the tracer wraps each of them
VERIFY_TASKS = (
    "shuffle_integral_check", "prod_sum_check", "permanent_check",
    "gaussian_moment_bounds_check", "gaussian_conditioning_check",
    "simplex_beta_check", "kernel_increment_bound_check",
    "haar_random_battery", "stirling_battery", "occupation_density_check",
)
PHIS = ["coordinate:2", "clipped_norm:2"]
# the acceptance suite's criterion-8 schedule: (truncation level, mollifier width)
SCHEDULE = [[1, 0.1], [2, 0.05], [4, 0.025], [4, 0.0125]]
N_CELLS = 128
# the program's default mc.n_paths
DEFAULT_PATHS = 10000
# converge-sched runs fewer: at 10000 paths one run (two cold processes and
# two warm operations) takes over a minute, which the benchmark's time
# budget for 22 runs of each of three workloads does not allow
CONVERGE_PATHS = 6000

# time_to_se_s reports the time to reach this standard error
SE_REF = 0.01
# the last schedule point must lie within this many combined standard errors
# of its reweighting target
LAST_POINT_SE_MULTIPLE = 5.0
# the gap must close by more than this many standard errors of the change
GAP_SE_MULTIPLE = 3.0


CLI_BINDINGS = {"cli.load_config", "cli.run", "cli.ResultTable.write_csv"}
SAMPLING_BINDINGS = {"girsanov.weak_solution_estimator", "girsanov.sample_cyl_fbm",
                     "drift.evaluate", "fbm.kernel_matrix", "girsanov.kh_inverse_matrix"}


class Workload:
    """One closed-loop workload: a config generator, the CSV it writes, the
    check on that CSV (rows -> list of problems), the standard error that
    sets its accuracy (None without Monte Carlo error), and the traced
    bindings its operations must reach (every other binding must read zero).

    A workload with ``n_paths`` is a Monte Carlo one: its configs carry the
    benchmark's seed and path count, and its cold run fills the kernel
    caches.  One without runs the program's default seed and builds none."""

    def __init__(self, name, command, check, hit, standard_error=None, n_paths=None,
                 extra=None, csv_name="results.csv"):
        self.name = name
        self.command = command
        self.check = check
        self.standard_error = standard_error
        self.n_paths = n_paths
        self.extra = extra or {}
        self.csv_name = csv_name
        self.expect = {"hit": CLI_BINDINGS | set(hit), "builds": n_paths is not None}

    def config(self, mc_seed: int) -> dict:
        cfg = {"command": self.command}
        if self.n_paths is not None:
            cfg["mc"] = {"seed": mc_seed, "n_paths": self.n_paths}
        cfg.update(self.extra)
        return cfg


def op_seeds(first: int, stream: str):
    """Monte Carlo seeds of a process's operations 0, 1, 2, ...  Operations 0
    and 1 share ``first``, so the cold and the first warm output compare (and
    every process's cold output compares with the others); the rest come
    from the process's own ``stream``."""
    yield first
    yield first
    rng = random.Random(stream)
    while True:
        yield rng.randrange(2 ** 31)


def read_csv(path):
    """CSV body (``#`` header lines dropped) as text and as row dicts."""
    with open(path) as fh:
        body = "".join(ln for ln in fh if not ln.startswith("#"))
    return body, list(csv.DictReader(body.splitlines()))


def _floats(row, *keys):
    return [float(row[k]) for k in keys]


def _check_girsanov(rows) -> list:
    problems = []
    if sorted(r["phi_id"] for r in rows) != sorted(PHIS):
        problems.append(f"expected one row per functional, got {len(rows)}")
    for r in rows:
        est, se = _floats(r, "estimate", "stderr")
        if not (math.isfinite(est) and math.isfinite(se)):
            problems.append(f"{r['phi_id']}: non-finite estimate or stderr")
        elif se <= 0.0:
            problems.append(f"{r['phi_id']}: stderr {se} is not positive")
        if r["phi_id"].startswith("clipped_norm:") and not 0.0 <= est <= 2.0:
            problems.append(f"{r['phi_id']}: estimate {est} outside [0, 2]")
    return problems


def _check_converge(rows) -> list:
    problems = []
    if len(rows) != len(SCHEDULE) * len(PHIS):
        problems.append(f"expected {len(SCHEDULE) * len(PHIS)} rows, got {len(rows)}")
    for r in rows:
        vals = _floats(r, "value", "stderr", "target", "target_stderr", "gap")
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"d={r['d']} eps={r['eps']} {r['phi_id']}: non-finite entry")
    coord = [r for r in rows if r["phi_id"] == "coordinate:2"]
    if len(coord) < 2 or problems:
        return problems or ["coordinate:2 rows missing"]
    first, last = coord[0], coord[-1]
    g0, s0 = _floats(first, "gap", "stderr")
    g1, s1, ts1 = _floats(last, "gap", "stderr", "target_stderr")
    # the target is one estimate shared by both rows, so the improvement is
    # compared with the standard error of the two solver values
    spread = GAP_SE_MULTIPLE * math.hypot(s0, s1)
    if not abs(g0) - abs(g1) > spread:
        problems.append(f"coordinate:2 gap {abs(g0):.4f} -> {abs(g1):.4f} "
                        f"does not close by more than {spread:.4f}")
    tol = LAST_POINT_SE_MULTIPLE * math.hypot(s1, ts1)
    if not abs(g1) <= tol:
        problems.append(f"coordinate:2 last gap {abs(g1):.4f} exceeds {tol:.4f}")
    return problems


def _check_verify(rows) -> list:
    if not rows:
        return ["empty report"]
    return [f"{r['check_id']}: {r['status']}" for r in rows if r["status"] != "pass"]


def time_to_se(se_by_config, run_s) -> float:
    """Seconds to reach a standard error of ``SE_REF`` by adding paths:
    ``run_s * (se / SE_REF) ** 2``, ``se`` the median over distinct configs
    (a repeated config repeats its standard error).  A result without Monte
    Carlo error reaches any accuracy in one run."""
    if not se_by_config:
        return run_s
    return run_s * (statistics.median(se_by_config.values()) / SE_REF) ** 2


def _largest_stderr(rows) -> float:
    return max(float(r["stderr"]) for r in rows)


def _largest_combined_stderr(rows) -> float:
    return max(math.hypot(float(r["stderr"]), float(r["target_stderr"])) for r in rows)


WORKLOADS = {
    w.name: w for w in (
        Workload("girsanov-d4", "girsanov", _check_girsanov, SAMPLING_BINDINGS,
                 standard_error=_largest_stderr, n_paths=DEFAULT_PATHS,
                 extra={"d": 4, "grid": {"n_cells": N_CELLS}, "phis": PHIS}),
        Workload("converge-sched", "converge", _check_converge,
                 SAMPLING_BINDINGS | {"solver.converge_experiment", "solver.picard_solve",
                                      "solver.mollify", "drift.mollified",
                                      "solver.sample_cyl_fbm"},
                 standard_error=_largest_combined_stderr, n_paths=CONVERGE_PATHS,
                 extra={"grid": {"n_cells": N_CELLS}, "phis": PHIS,
                        "schedule": SCHEDULE}),
        Workload("verify-suite", "verify-suite", _check_verify,
                 {"verify.run_all"} | {f"verify.{t}" for t in VERIFY_TASKS},
                 csv_name="report.csv"),
    )
}
