"""Experiment harness: config parsing, subcommand dispatch, deterministic
seeding, and CSV/plot-data emission.

Configuration is a single YAML document (reproducibility lives in one
artifact); the only environment override is the output directory.  CSV bodies
use fixed 17-significant-digit formatting so identical configurations diff
byte-for-byte; timestamps and the reliability of a weighted sample (its ESS
fraction, mean weight and low-ESS flag) appear only in comment headers.
Functionals (at least one for the pricing commands), the evaluation time,
the initial point, the seed, the region (kind, ball radius, halfspace axis)
and the finiteness of every real-valued entry are checked when the
configuration loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import cylinder, drift, fbm, girsanov, solver

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

COMMANDS = ("simulate", "validate", "solve", "converge", "girsanov", "verify-suite")

MIN_CELLS = 16
MIN_PATHS = 100


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# schema: key -> (type, default, constraint note or None)
_SCHEMA = {
    "command": (str, "verify-suite", f"one of {', '.join(COMMANDS)}"),
    "sequences.hurst_first": (float, 0.08, "sup_k H_k = hurst_first must stay < 1/12"),
    "sequences.hurst_ratio": (float, 0.5,
                              "sum_k H_k = hurst_first/(1-hurst_ratio) must stay < 1/6"),
    "sequences.weight_first": (float, 0.5, "weights must be square-summable"),
    "sequences.weight_ratio": (float, 0.5,
                               "weight_ratio < sqrt(hurst_ratio) keeps sum lambda_k/sqrt(H_k) finite"),
    "sequences.d_max": (int, 8, None),
    "drift.amp_first": (float, 0.4, "sup-bound constants must be summable"),
    "drift.amp_ratio": (float, 0.45, None),
    "drift.decay_first": (float, 1.0, None),
    "drift.decay_ratio": (float, 1.0, None),
    "drift.a": (float, 1.0, None),
    "drift.b": (float, -0.5, None),
    "drift.region_kind": (str, "halfspace", " or ".join(drift.REGION_KINDS)),
    "drift.region_axis": (int, 1, "1-based normal coordinate, at most sequences.d_max"),
    "drift.region_offset": (float, 0.0, None),
    "drift.region_radius": (float, 1.0, None),
    "drift.proj_scale_ratio": (float, 2.0, None),
    "drift.epsilon": (float, 0.1, "mollifier width, > 0"),
    "grid.t_end": (float, 1.0, None),
    "grid.n_cells": (int, 64, f"at least {MIN_CELLS}"),
    "mc.n_paths": (int, 10000, f"at least {MIN_PATHS}"),
    "mc.seed": (int, 7, ">= 0"),
    "d": (int, 2, "truncation level"),
    "t_eval": (float, 1.0, "must be a grid node"),
    "phis": (list, ["coordinate:1", "clipped_norm:2"], None),
    "schedule": (list, [[1, 0.1], [2, 0.05], [4, 0.025], [4, 0.0125]],
                 "pairs of (truncation level, mollifier width)"),
    "x0": (list, [0.0], "initial point coordinates"),
    "output_dir": (str, "out", None),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration (keys as in the schema)."""

    entries: dict

    def __getitem__(self, key: str):
        return self.entries[key]

    @property
    def command(self) -> str:
        return self.entries["command"]

    def config_hash(self) -> str:
        """Hash of the numerically relevant entries; the output location
        cannot change results and stays out of the hash."""
        relevant = {k: v for k, v in self.entries.items() if k != "output_dir"}
        canon = json.dumps(relevant, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ResultTable:
    """Columned results plus provenance; every row carries the config hash."""

    columns: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, row: dict) -> None:
        self.rows.append([row.get(c) for c in self.columns])

    def write_csv(self, path: Path) -> None:
        with open(path, "w") as fh:
            for key, val in sorted(self.provenance.items()):
                fh.write(f"# {key}: {val}\n")
            cols = self.columns + ["config_hash"]
            fh.write(",".join(cols) + "\n")
            chash = self.provenance.get("config_hash", "")
            for row in self.rows:
                cells = [_fmt(v) for v in row] + [chash]
                fh.write(",".join(cells) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _flatten(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for key, val in node.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, out)
    else:
        out[prefix] = node


def _nest(flat: dict) -> dict:
    """Nested mapping of dotted keys, the inverse of :func:`_flatten`."""
    nested: dict = {}
    for key, val in flat.items():
        *parents, leaf = key.split(".")
        node = nested
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = val
    return nested


def load_config(mapping: dict) -> RunConfig:
    """Validate a nested mapping against the schema; unknown keys are rejected
    with their full dotted name."""
    flat: dict = {}
    _flatten("", mapping or {}, flat)
    entries = {}
    for key, raw in flat.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
    for key, (typ, default, _) in _SCHEMA.items():
        if key in flat:
            raw = flat[key]
            try:
                if typ is float:
                    val = _as_float(raw)
                elif typ is int:
                    val = _as_int(raw)
                elif typ is list:
                    if not isinstance(raw, list):
                        raise ValueError
                    val = raw
                else:
                    val = str(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key}: expected {typ.__name__}, got {raw!r}")
            if typ is float and not math.isfinite(val):
                raise ConfigError(f"config key {key}: expected a finite number, got {raw!r}")
            entries[key] = val
        else:
            entries[key] = default
    if entries["command"] not in COMMANDS:
        raise ConfigError(f"config key command: unknown command {entries['command']!r}")
    if entries["grid.n_cells"] < MIN_CELLS:
        raise ConfigError(f"config key grid.n_cells: must be at least {MIN_CELLS}")
    if entries["mc.n_paths"] < MIN_PATHS:
        raise ConfigError(f"config key mc.n_paths: must be at least {MIN_PATHS}")
    if entries["mc.seed"] < 0:
        raise ConfigError(f"config key mc.seed: must be >= 0, got {entries['mc.seed']}")
    if entries["drift.region_kind"] not in drift.REGION_KINDS:
        raise ConfigError(f"config key drift.region_kind: expected one of "
                          f"{', '.join(drift.REGION_KINDS)}, got {entries['drift.region_kind']!r}")
    if entries["drift.region_kind"] == "ball" and not entries["drift.region_radius"] > 0.0:
        raise ConfigError(f"config key drift.region_radius: a ball needs a radius > 0, "
                          f"got {entries['drift.region_radius']!r}")
    _check_x0(entries["x0"])
    command = entries["command"]
    if command in ("solve", "girsanov", "converge"):
        _check_evaluation(entries)
    elif command == "validate":
        _check_level("d", entries["d"], entries["sequences.d_max"])
    elif command == "simulate":
        # the noise extends past sequences.d_max by the tail rule
        _check_level("d", entries["d"], math.inf)
        _check_noise_level(entries)
    if command in ("validate", "solve", "converge", "girsanov") \
            and entries["drift.region_kind"] == "halfspace":
        axis, d_max = entries["drift.region_axis"], entries["sequences.d_max"]
        if not 1 <= axis <= d_max:
            # any other axis leaves the jump out of every drift component
            raise ConfigError(f"config key drift.region_axis: the halfspace normal must be "
                              f"a coordinate in [1, sequences.d_max = {d_max}], got {axis}")
    return RunConfig(entries=entries)


def _as_int(raw) -> int:
    """An integer-valued entry; booleans and non-integral numbers raise ValueError."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError
    return int(raw)


def _as_float(raw) -> float:
    """A real-valued entry; booleans raise ValueError."""
    if isinstance(raw, bool):
        raise ValueError
    return float(raw)


def _check_x0(x0: list) -> None:
    """Every coordinate of the initial point must be a finite number."""
    try:
        ok = all(math.isfinite(_as_float(v)) for v in x0)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"config key x0: expected a list of finite numbers, got {x0!r}")


def _check_evaluation(entries: dict) -> None:
    """For the commands that price functionals at t_eval: reject a truncation
    level below 1 or past sequences.d_max, a mollifier width that is not
    finite and positive, an initial point or functionals with more
    coordinates than the state (for converge, at the largest schedule level),
    an empty list of functionals, unknown functionals and a t_eval that is
    not a grid node."""
    command, d_max = entries["command"], entries["sequences.d_max"]
    dim = entries["d"]
    if command == "converge":
        try:
            schedule = [(_as_int(dd), _as_float(ee)) for dd, ee in entries["schedule"]]
            dim = max(dd for dd, _ in schedule)
        except (TypeError, ValueError):
            raise ConfigError("config key schedule: expected pairs of "
                              "(truncation level, mollifier width)") from None
        for dd, _ in schedule:
            _check_level("schedule", dd, d_max)
        _check_widths("schedule", [ee for _, ee in schedule])
    else:
        _check_level("d", dim, d_max)
    if command == "solve":
        _check_widths("drift.epsilon", [entries["drift.epsilon"]])
    if len(entries["x0"]) > dim:
        raise ConfigError(f"config key x0: {len(entries['x0'])} coordinates exceed "
                          f"the {dim}-dimensional state")
    if not entries["phis"]:
        raise ConfigError("config key phis: at least one functional is required")
    for phi_id in entries["phis"]:
        try:
            girsanov.make_functional(str(phi_id))(np.zeros((dim, 1)))
        except (fbm.DomainError, IndexError) as exc:
            raise ConfigError(f"config key phis: {phi_id!r} does not apply to a "
                              f"{dim}-dimensional state ({exc})") from None
    if entries["grid.t_end"] <= 0.0:
        raise ConfigError("config key grid.t_end: must be positive")
    grid = fbm.TimeGrid(entries["grid.t_end"], entries["grid.n_cells"])
    try:
        girsanov._node_index(grid, entries["t_eval"])
    except fbm.DomainError as exc:
        raise ConfigError(f"config key t_eval: {exc} of {grid.n_cells} cells "
                          f"on [0, {grid.t_end}]") from None


def _check_level(key: str, level: int, d_max: float) -> None:
    """The drift has sequences.d_max components, so no command can drive a
    truncation level past it (``d_max`` is infinite for the noise alone); a
    level below 1 keeps no coordinate."""
    if level < 1:
        raise ConfigError(f"config key {key}: truncation level must be >= 1, got {level}")
    if level > d_max:
        raise ConfigError(f"config key {key}: truncation level {level} exceeds "
                          f"sequences.d_max = {d_max}")


def _check_noise_level(entries: dict) -> None:
    """simulate's level d must keep a Hurst index, which far out the tail rule
    underflows to 0.  A sequence that breaks its own constraints is left to
    the run, which names the constraint."""
    try:
        hs = cylinder.HurstSequence.geometric(
            entries["sequences.hurst_first"], entries["sequences.hurst_ratio"],
            entries["sequences.d_max"])
    except cylinder.SequenceConstraintError:
        return
    if hs.value(entries["d"]) == 0.0:
        raise ConfigError(f"config key d: truncation level {entries['d']} has no Hurst "
                          "index (hurst_first * hurst_ratio^(d-1) underflows to 0)")


def _check_widths(key: str, widths: list) -> None:
    for eps in widths:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConfigError(f"config key {key}: mollifier width must be finite "
                              f"and > 0, got {eps!r}")


def load_config_file(path) -> RunConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a mapping")
    return load_config(data)


def config_schema() -> str:
    """Human-readable schema: every key, type, default, and enforced constraint."""
    lines = ["configuration schema (YAML, nested keys shown dotted):", ""]
    for key, (typ, default, note) in _SCHEMA.items():
        line = f"  {key}: {typ.__name__} (default {default!r})"
        if note:
            line += f" -- {note}"
        lines.append(line)
    lines.append("")
    lines.append(f"  constraints enforced at run time: sup_k H_k < 1/12 = {1/12:.6f},")
    lines.append(f"  sum_k H_k < 1/6 = {1/6:.6f}, sum lambda_k^2 < inf, "
                 "sum lambda_k/sqrt(H_k) < inf")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _build_model(cfg: RunConfig):
    hs, ws = cylinder.make_sequences({
        "hurst_first": cfg["sequences.hurst_first"],
        "hurst_ratio": cfg["sequences.hurst_ratio"],
        "weight_first": cfg["sequences.weight_first"],
        "weight_ratio": cfg["sequences.weight_ratio"],
        "d_max": cfg["sequences.d_max"],
    })
    region = drift.Region(cfg["drift.region_kind"], axis=cfg["drift.region_axis"] - 1,
                          offset=cfg["drift.region_offset"],
                          radius=cfg["drift.region_radius"])
    spec = drift.indicator_exponential_family(
        ws, cfg["sequences.d_max"],
        amp_first=cfg["drift.amp_first"], amp_ratio=cfg["drift.amp_ratio"],
        decay_first=cfg["drift.decay_first"], decay_ratio=cfg["drift.decay_ratio"],
        a=cfg["drift.a"], b=cfg["drift.b"], region=region,
        proj_scale_ratio=cfg["drift.proj_scale_ratio"])
    grid = fbm.TimeGrid(cfg["grid.t_end"], cfg["grid.n_cells"])
    return hs, ws, spec, grid


def _cmd_simulate(cfg: RunConfig) -> ResultTable:
    hs, ws, _, grid = _build_model(cfg)
    ens = cylinder.sample_cyl_fbm(hs, ws, cfg["d"], grid, cfg["mc.n_paths"],
                                  cfg["mc.seed"])
    table = ResultTable(columns=["component", "time", "mean", "second_moment",
                                 "predicted_second_moment"])
    lam = ws.head_array(cfg["d"])
    for k in range(cfg["d"]):
        H = hs.value(k + 1)
        for i in (grid.n_cells // 2, grid.n_cells):
            tt = grid.nodes[i]
            vals = ens.values[k, i, :]
            table.add({"component": k + 1, "time": tt,
                       "mean": float(np.mean(vals)),
                       "second_moment": float(np.mean(vals ** 2)),
                       "predicted_second_moment": lam[k] ** 2 * tt ** (2 * H)})
    return table


def _cmd_validate(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    lnd = [fbm.estimate_lnd_constant(hs.value(k + 1), grid, r=0.1 * grid.t_end)
           for k in range(d)]
    scaling = cylinder.composite_scaling(ws, lnd, d)
    report = drift.validate_drift_class(spec, d, scaling, t_end=grid.t_end,
                                        seed=cfg["mc.seed"])
    table = ResultTable(columns=["component", "sup_measured", "sup_bound",
                                 "integral_measured", "integral_bound", "passed"])
    for e in report.entries:
        table.add({"component": e.component, "sup_measured": e.sup_measured,
                   "sup_bound": e.sup_bound, "integral_measured": e.integral_measured,
                   "integral_bound": e.integral_bound, "passed": e.passed})
    if not report.passed:
        raise ArithmeticError("drift class validation failed")
    return table


def _cmd_solve(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    md = drift.mollify(spec, d, cfg["drift.epsilon"])
    noise = cylinder.sample_cyl_fbm(hs, ws, d, grid, cfg["mc.n_paths"], cfg["mc.seed"])
    x = np.asarray(cfg["x0"], dtype=float)
    sol = solver.picard_solve(md, x, noise)
    idx = girsanov._node_index(grid, cfg["t_eval"])
    table = ResultTable(columns=["phi_id", "t", "d", "eps", "estimate", "stderr"])
    for phi_id in cfg["phis"]:
        phi = girsanov.make_functional(phi_id)
        g = phi(sol.paths[:, idx, :])
        table.add({"phi_id": phi_id, "t": cfg["t_eval"], "d": d,
                   "eps": cfg["drift.epsilon"],
                   "estimate": float(np.mean(g)),
                   "stderr": float(np.std(g, ddof=1) / np.sqrt(len(g)))})
    return table


def _cmd_girsanov(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    x = np.asarray(cfg["x0"], dtype=float)
    res = girsanov.weak_solution_estimator(
        spec, cfg["phis"], x, cfg["t_eval"], hs, ws, d, grid,
        cfg["mc.n_paths"], cfg["mc.seed"])
    table = ResultTable(columns=["phi_id", "t", "d", "eps", "estimate", "stderr",
                                 "n_paths", "seed"], provenance=_sample_provenance(res))
    for phi_id in cfg["phis"]:
        estimate, stderr = res.estimates[phi_id]
        # the reweighting target has no mollifier width
        table.add({"phi_id": phi_id, "t": cfg["t_eval"], "d": d, "eps": float("nan"),
                   "estimate": estimate, "stderr": stderr,
                   "n_paths": cfg["mc.n_paths"], "seed": cfg["mc.seed"]})
    return table


def _sample_provenance(res: girsanov.EstimatorResult) -> dict:
    """Header lines on the reliability of a weighted sample."""
    return {"ess_fraction": res.ess_fraction, "mean_weight": res.mean_weight,
            "low_ess": res.low_ess}


def _cmd_converge(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    x = np.asarray(cfg["x0"], dtype=float)
    rows, target = solver.converge_experiment(
        spec, cfg["schedule"], cfg["t_eval"], cfg["phis"], hs, ws, grid, x,
        cfg["mc.n_paths"], cfg["mc.seed"])
    table = ResultTable(columns=["d", "eps", "t", "phi_id", "value", "stderr",
                                 "target", "target_stderr", "gap",
                                 "paired_gap", "paired_stderr"],
                        provenance=_sample_provenance(target))
    for row in rows:
        table.add(row)
    return table


def _cmd_verify(cfg: RunConfig) -> ResultTable:
    # the lemma suite alone needs scipy.integrate; the sampling commands skip it
    from . import verify

    results = verify.run_all(seed=cfg["mc.seed"])
    table = ResultTable(columns=["check_id", "status", "measured", "bound", "slack"])
    for res in results:
        table.add(res.row())
    if not all(r.status for r in results):
        raise ArithmeticError("verification suite reported failures")
    return table


_DISPATCH = {
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "girsanov": _cmd_girsanov,
    "converge": _cmd_converge,
    "verify-suite": _cmd_verify,
}


def run(cfg: RunConfig, out_dir=None) -> int:
    """Dispatch the configured command and write results.csv (and report.csv
    for the verification suite).  Exit codes: 0 success, 1 configuration or
    validation failure, 2 numerical failure.
    """
    out = Path(out_dir or cfg["output_dir"])
    try:
        table = _DISPATCH[cfg.command](cfg)
    except (ConfigError, fbm.DomainError, cylinder.SequenceConstraintError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, fbm.FactorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    table.provenance.update({
        "config_hash": cfg.config_hash(),
        "seed": cfg["mc.seed"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    name = "report.csv" if cfg.command == "verify-suite" else "results.csv"
    # made only now, so a rejected run leaves no empty directory behind
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / name)
    if cfg.command == "converge":
        _emit_converge_plotdata(table, out / "plotdata")
    return EXIT_OK


def _emit_converge_plotdata(table: ResultTable, plot_dir: Path) -> None:
    """One (width, gap, paired gap, paired stderr) series per truncation
    level and functional."""
    plot_dir.mkdir(parents=True, exist_ok=True)
    di = table.columns.index("d")
    pi = table.columns.index("phi_id")
    keys = sorted({(row[di], row[pi]) for row in table.rows})
    for dd, phi_id in keys:
        sub = ResultTable(columns=table.columns,
                          rows=[r for r in table.rows
                                if r[di] == dd and r[pi] == phi_id])
        safe_phi = str(phi_id).replace(":", "_")
        emit_plotdata(sub, "eps", ["gap", "paired_gap", "paired_stderr"],
                      plot_dir / f"gap_d{dd}_{safe_phi}.dat")


def emit_plotdata(table: ResultTable, x: str, ys, path) -> None:
    """Whitespace-separated numeric columns (x first) for external plotting."""
    ys = list(ys)
    for col in [x] + ys:
        if col not in table.columns:
            raise ConfigError(f"unknown column: {col}")
    xi = table.columns.index(x)
    yi = [table.columns.index(c) for c in ys]
    with open(path, "w") as fh:
        for row in table.rows:
            cells = [row[xi]] + [row[j] for j in yi]
            for c in cells:
                if not isinstance(c, (int, float)) or isinstance(c, bool):
                    raise ConfigError(f"non-numeric value {c!r} in plot column")
            fh.write(" ".join(_fmt(c) for c in cells) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cylfbm",
        description="experiment harness for rough cylindrical noise and singular drifts")
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    parser.add_argument("--schema", action="store_true",
                        help="print the config schema and exit")
    parser.add_argument("command", nargs="?", default=None,
                        help=f"one of {', '.join(COMMANDS)} (overrides config)")
    args = parser.parse_args(argv)
    if args.schema:
        print(config_schema())
        return EXIT_OK
    try:
        cfg = load_config_file(args.config) if args.config else load_config({})
        entries = dict(cfg.entries)
        if args.command:
            entries["command"] = args.command
        if args.seed is not None:
            entries["mc.seed"] = args.seed
        cfg = load_config(_nest(entries))
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
