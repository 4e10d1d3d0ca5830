"""Experiment harness: config parsing, subcommand dispatch, deterministic
seeding, and CSV/plot-data emission.

Configuration is a single YAML document (reproducibility lives in one
artifact); the only environment override is the output directory.  CSV bodies
use fixed 17-significant-digit formatting so identical configurations diff
byte-for-byte; timestamps and the reliability of a weighted sample (its ESS
fraction, mean weight and low-ESS flag) appear only in comment headers.
``_SCHEMA`` holds every key's domain (``cylfbm --schema`` prints it), and the
constraints across keys run when the configuration loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cylinder, drift, fbm, girsanov, solver

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

COMMANDS = ("simulate", "validate", "solve", "converge", "girsanov", "verify-suite")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class Interval:
    """The numbers (integers if ``integer``) from lo to hi, each end open or closed
    as ``ends`` shows.  An infinite end is open, so NaN and +-inf never belong."""

    lo: float
    hi: float = math.inf
    ends: str = "()"
    integer: bool = False

    def parse(self, raw):
        """raw as an int or float inside the interval; ValueError otherwise,
        also for a boolean and, in an integer interval, a non-integral number."""
        if isinstance(raw, bool) or (self.integer and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise ValueError
        val = int(raw) if self.integer else float(raw)
        if not ((self.lo <= val if self.ends[0] == "[" else self.lo < val)
                and (val <= self.hi if self.ends[1] == "]" else val < self.hi)):
            raise ValueError
        return val

    def __str__(self) -> str:
        kind = "an integer" if self.integer else "a real number"
        return f"{kind} in {self.ends[0]}{_num(self.lo)}, {_num(self.hi)}{self.ends[1]}"


def _num(x: float) -> str:
    """x in short: 1/12, not 0.0833..."""
    return f"1/{1 / x:.0f}" if 0 < abs(x) < 1 and (1 / x).is_integer() else f"{x:g}"


def _at_least(n: int) -> Interval:
    return Interval(n, ends="[)", integer=True)


_REAL = Interval(-math.inf)
_POSITIVE = Interval(0.0)
_LEVEL = _at_least(1)

# key -> (type, default, domain).  The domain is an Interval for a number and
# for each entry of x0, one Interval per place of each schedule pair, the
# allowed values of a string, or None.
_SCHEMA = {
    "command": (str, "verify-suite", COMMANDS),
    "sequences.hurst_first": (float, 0.08, Interval(0.0, cylinder.SUP_HURST_LIMIT)),
    "sequences.hurst_ratio": (float, 0.5, Interval(0.0, 1.0)),
    "sequences.weight_first": (float, 0.5, _POSITIVE),
    "sequences.weight_ratio": (float, 0.5, Interval(0.0, 1.0, "[)")),
    "sequences.d_max": (int, 8, _LEVEL),
    "drift.amp_first": (float, 0.4, Interval(0.0, ends="[)")),
    "drift.amp_ratio": (float, 0.45, Interval(0.0, 1.0, "[)")),
    "drift.decay_first": (float, 1.0, _POSITIVE),
    "drift.decay_ratio": (float, 1.0, _POSITIVE),
    "drift.a": (float, 1.0, _REAL),
    "drift.b": (float, -0.5, _REAL),
    "drift.region_kind": (str, "halfspace", drift.REGION_KINDS),
    "drift.region_axis": (int, 1, _LEVEL),
    "drift.region_offset": (float, 0.0, _REAL),
    "drift.region_radius": (float, 1.0, _POSITIVE),
    "drift.proj_scale_ratio": (float, 2.0, _POSITIVE),
    "drift.epsilon": (float, 0.1, _POSITIVE),
    "grid.t_end": (float, 1.0, _POSITIVE),
    "grid.n_cells": (int, 64, _at_least(16)),
    "mc.n_paths": (int, 10000, _at_least(100)),
    "mc.seed": (int, 7, _at_least(0)),
    "d": (int, 2, _LEVEL),
    "t_eval": (float, 1.0, Interval(0.0, ends="[)")),
    "phis": (list, ["coordinate:1", "clipped_norm:2"], None),
    "schedule": (list, [[1, 0.1], [2, 0.05], [4, 0.025], [4, 0.0125]], (_LEVEL, _POSITIVE)),
    "x0": (list, [0.0], _REAL),
    "output_dir": (str, "out", None),
}

# the keys each model constructor reads
_SEQUENCE_KEYS = tuple(k for k in _SCHEMA if k.startswith("sequences."))
_DRIFT_KEYS = tuple(k for k in _SCHEMA if k.startswith("drift.") and k != "drift.epsilon") \
    + _SEQUENCE_KEYS[2:]


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
            fh.write(",".join(self.columns + ["config_hash"]) + "\n")
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


def load_config(mapping: dict) -> RunConfig:
    """Validate a nested mapping: an unknown key, or a value outside its key's
    domain, is rejected with the key's full dotted name; then the constraints
    across keys (:func:`_check_across`)."""
    flat: dict = {}
    _flatten("", mapping or {}, flat)
    unknown = sorted(flat.keys() - _SCHEMA.keys())
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(unknown)}")
    entries = {key: _parse(key, flat[key]) if key in flat else default
               for key, (_, default, _) in _SCHEMA.items()}
    _check_across(entries)
    return RunConfig(entries=entries)


def _parse(key: str, raw):
    """raw as a value of key's type inside key's domain.  A list keeps its
    entries as given, since they enter the config hash."""
    typ, _, domain = _SCHEMA[key]
    try:
        if typ is list:
            if not isinstance(raw, list):
                raise ValueError
            for item in raw:
                if isinstance(domain, Interval):
                    domain.parse(item)
                elif domain is not None:
                    for place, part in zip(domain, item, strict=True):
                        place.parse(part)
            return raw
        if typ is str:
            if domain is not None and str(raw) not in domain:
                raise ValueError
            return str(raw)
        return domain.parse(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key}: expected {_describe(typ, domain)}, "
                          f"got {raw!r}") from None


def _describe(typ, domain) -> str:
    if domain is None:
        return typ.__name__
    if typ is list:
        each = domain if isinstance(domain, Interval) else \
            f"a pair ({', '.join(map(str, domain))})"
        return f"a list, each entry {each}"
    return "one of " + ", ".join(domain) if typ is str else str(domain)


@contextlib.contextmanager
def _naming(*keys):
    """Re-raise a constructor's rejection as a ConfigError naming ``keys``."""
    try:
        yield
    except (fbm.DomainError, cylinder.SequenceConstraintError) as exc:
        raise ConfigError(f"config key {', '.join(keys)}: {exc}") from None


def _check_across(e: dict) -> None:
    """The constraints that span keys, for every command that builds the model
    (all but verify-suite): the model's constructors; the truncation levels
    against sequences.d_max (simulate's noise runs past it, up to where its
    Hurst index underflows); the halfspace axis; and, for the commands that
    price functionals, the initial point, the functionals and t_eval."""
    command, d_max = e["command"], e["sequences.d_max"]
    if command == "verify-suite":
        return
    hs, _, _, grid = _build_model(e)
    axis = e["drift.region_axis"]
    if e["drift.region_kind"] == "halfspace" and axis > d_max:
        # no drift component would see the jump
        raise ConfigError(f"config key drift.region_axis: the halfspace normal must be a "
                          f"coordinate in [1, sequences.d_max = {d_max}], got {axis}")
    if command == "simulate":
        if hs.value(e["d"]) == 0.0:
            raise ConfigError(f"config key d: truncation level {e['d']} has no Hurst index "
                              "(hurst_first * hurst_ratio^(d-1) underflows to 0)")
        return
    key = "schedule" if command == "converge" else "d"
    levels = [int(dd) for dd, _ in e["schedule"]] if key == "schedule" else [e["d"]]
    if not levels or max(levels) > d_max:
        raise ConfigError(f"config key {key}: truncation levels {levels} must lie in "
                          f"[1, sequences.d_max = {d_max}]")
    if command == "validate":
        return
    dim = max(levels)
    if len(e["x0"]) > dim:
        raise ConfigError(f"config key x0: {len(e['x0'])} coordinates exceed "
                          f"the {dim}-dimensional state")
    if not e["phis"]:
        raise ConfigError("config key phis: at least one functional is required")
    for phi_id in e["phis"]:
        with _naming("phis", key):
            girsanov.make_functional(str(phi_id), dim)
    with _naming("t_eval", "grid.t_end", "grid.n_cells"):
        girsanov._node_index(grid, e["t_eval"])


def load_config_file(path, overrides: dict) -> RunConfig:
    """The configuration in a YAML file (None: no file) with dotted-key
    overrides, validated once.  load_config reads a dotted key as its path."""
    data = {}
    if path is not None:
        import yaml  # here, so that a mapping configuration never loads it

        with open(path) as fh:
            data = yaml.safe_load(fh)
    if not isinstance(data, dict | None):
        raise ConfigError("config file must hold a mapping")
    flat: dict = {}
    _flatten("", data or {}, flat)
    return load_config({**flat, **overrides})


def config_schema() -> str:
    """Human-readable schema: every key's type, default and domain, and the
    constraints across keys."""
    lines = ["configuration schema (YAML, nested keys shown dotted):", ""]
    for key, (typ, default, domain) in _SCHEMA.items():
        line = f"  {key}: {typ.__name__} (default {default!r})"
        if domain is not None:
            line += f" -- {_describe(typ, domain)}"
        lines.append(line)
    return "\n".join(lines) + f"""

  constraints across keys, checked when the configuration loads:
  sum_k H_k = hurst_first/(1 - hurst_ratio) < 1/6 = {1/6:.6f} (sup_k H_k < 1/12 = {1/12:.6f}),
  sum lambda_k/sqrt(H_k) < inf (weight_ratio < sqrt(hurst_ratio)), sum lambda_k^2 < inf,
  summable drift constants (amp_ratio < weight_ratio, and
  amp_ratio < weight_ratio^2 * decay_ratio * proj_scale_ratio), d (converge: each schedule
  level) and a halfspace region_axis at most d_max (simulate: any d whose Hurst index is > 0),
  x0 no longer than the state, phis non-empty and inside the state, t_eval a grid node"""


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _build_model(cfg):
    """The sequences, drift and grid of every command but verify-suite; a
    constructor's rejection names the keys it reads."""
    with _naming(*_SEQUENCE_KEYS):
        hs, ws = cylinder.make_sequences(
            {key.removeprefix("sequences."): cfg[key] for key in _SEQUENCE_KEYS})
    with _naming(*_DRIFT_KEYS):
        region = drift.Region(cfg["drift.region_kind"], axis=cfg["drift.region_axis"] - 1,
                              offset=cfg["drift.region_offset"], radius=cfg["drift.region_radius"])
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
    d, nodes = cfg["d"], [grid.n_cells // 2, grid.n_cells]
    first, second = girsanov.RunningMoments(), girsanov.RunningMoments()
    for m, block_seed in girsanov.mc_blocks(cfg["mc.n_paths"], cfg["mc.seed"],
                                            girsanov.DEFAULT_BLOCK_SIZE):
        vals = cylinder.sample_cyl_fbm(hs, ws, d, grid, m, block_seed).values[:, nodes, :]
        first.add(vals)
        second.add(vals * vals)
    table = ResultTable(columns=["component", "time", "mean", "second_moment",
                                 "predicted_second_moment"])
    lam = ws.head_array(d)
    for k in range(d):
        H = hs.value(k + 1)
        for j, i in enumerate(nodes):
            tt = grid.nodes[i]
            table.add({"component": k + 1, "time": tt, "mean": float(first.mean[k, j]),
                       "second_moment": float(second.mean[k, j]),
                       "predicted_second_moment": lam[k] ** 2 * tt ** (2 * H)})
    return table


def _cmd_validate(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    lnd = [fbm.estimate_lnd_constant(hs.value(k + 1), grid, r=0.1 * grid.t_end)
           for k in range(d)]
    scaling = cylinder.composite_scaling(ws, lnd, d)
    report = drift.validate_drift_class(spec, d, scaling, t_end=grid.t_end, seed=cfg["mc.seed"])
    table = ResultTable(columns=["component", "sup_measured", "sup_bound",
                                 "integral_measured", "integral_bound", "passed"])
    for e in report.entries:
        table.add({col: getattr(e, col) for col in table.columns})
    if not report.passed:
        raise ArithmeticError("drift class validation failed")
    return table


def _cmd_solve(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    md = drift.mollify(spec, d, cfg["drift.epsilon"])
    L, M, _ = drift.lipschitz_estimate(md)
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(M))):
        raise ConfigError(f"config key {', '.join(_DRIFT_KEYS)}, drift.epsilon: "
                          "the mollified drift's Lipschitz estimate is not finite")
    idx = girsanov._node_index(grid, cfg["t_eval"])
    phis = [girsanov.make_functional(phi_id) for phi_id in cfg["phis"]]
    mom = girsanov.RunningMoments()
    for m, block_seed in girsanov.mc_blocks(cfg["mc.n_paths"], cfg["mc.seed"],
                                            girsanov.DEFAULT_BLOCK_SIZE):
        noise = cylinder.sample_cyl_fbm(hs, ws, d, grid, m, block_seed)
        z = solver.picard_solve(md, cfg["x0"], noise, t_index=idx).paths[:, -1, :]
        mom.add(np.stack([phi(z) for phi in phis]))
        del noise  # free this block before the next one is sampled
    table = ResultTable(columns=["phi_id", "t", "d", "eps", "estimate", "stderr"])
    for phi_id, estimate, stderr in zip(cfg["phis"], mom.mean.tolist(), mom.stderr.tolist()):
        table.add({"phi_id": phi_id, "t": cfg["t_eval"], "d": d, "eps": cfg["drift.epsilon"],
                   "estimate": estimate, "stderr": stderr})
    return table


def _cmd_girsanov(cfg: RunConfig) -> ResultTable:
    hs, ws, spec, grid = _build_model(cfg)
    d = cfg["d"]
    with _naming(*_DRIFT_KEYS):
        res = girsanov.weak_solution_estimator(
            spec, cfg["phis"], cfg["x0"], cfg["t_eval"], hs, ws, d, grid,
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
    with _naming(*_DRIFT_KEYS):
        rows, target = solver.converge_experiment(
            spec, cfg["schedule"], cfg["t_eval"], cfg["phis"], hs, ws, grid, cfg["x0"],
            cfg["mc.n_paths"], cfg["mc.seed"])
    table = ResultTable(columns=["d", "eps", "t", "phi_id", "value", "stderr",
                                 "target", "target_stderr", "gap",
                                 "paired_gap", "paired_stderr"],
                        provenance=_sample_provenance(target))
    for row in rows:
        table.add(row)
    return table


def _cmd_verify(cfg: RunConfig) -> ResultTable:
    # imported here so that the sampling commands skip compiling verify.py
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
    for the verification suite).  Exit codes: 0 success, 1 configuration
    error, 2 numerical failure, which includes a drift class that fails
    ``validate`` and a lemma that fails ``verify-suite``.
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
    """One whitespace-separated (eps, gap, paired_gap, paired_stderr) series per
    level and functional, for external plotting."""
    plot_dir.mkdir(parents=True, exist_ok=True)
    di, pi = table.columns.index("d"), table.columns.index("phi_id")
    cols = [table.columns.index(c) for c in ("eps", "gap", "paired_gap", "paired_stderr")]
    for dd, phi_id in sorted({(row[di], row[pi]) for row in table.rows}):
        with open(plot_dir / f"gap_d{dd}_{str(phi_id).replace(':', '_')}.dat", "w") as fh:
            for row in table.rows:
                if row[di] == dd and row[pi] == phi_id:
                    fh.write(" ".join(_fmt(row[c]) for c in cols) + "\n")


def main(argv=None) -> int:
    import yaml

    parser = argparse.ArgumentParser(
        prog="cylfbm",
        description="experiment harness for rough cylindrical noise and singular drifts")
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    parser.add_argument("--schema", action="store_true", help="print the config schema and exit")
    parser.add_argument("command", nargs="?", default=None,
                        help=f"one of {', '.join(COMMANDS)} (overrides config)")
    args = parser.parse_args(argv)
    if args.schema:
        print(config_schema())
        return EXIT_OK
    overrides = {"command": args.command, "mc.seed": args.seed}
    try:
        cfg = load_config_file(args.config,
                               {k: v for k, v in overrides.items() if v is not None})
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
