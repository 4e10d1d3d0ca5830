import csv
import inspect
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import traced_peak
from cylfbm import cli, cylinder, drift, fbm, girsanov, solver


def read_body(path):
    """CSV rows without the comment header (timestamps live only there)."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def run_python(*args, timeout):
    """A fresh interpreter that imports the package from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def read_header(path):
    """The ``# key: value`` comment lines as a mapping."""
    return dict(ln[2:].split(": ", 1) for ln in path.read_text().splitlines()
                if ln.startswith("# "))


def nest(flat: dict) -> dict:
    """Nested mapping of dotted keys, the inverse of ``cli._flatten``."""
    nested: dict = {}
    for key, val in flat.items():
        *parents, leaf = key.split(".")
        node = nested
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = val
    return nested


def run_main(tmp_path, capsys, mapping):
    """``cli.main`` on a config file holding ``mapping``, writing to
    ``tmp_path / "o"``: the exit code and stderr."""
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(mapping))
    rc = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
    return rc, capsys.readouterr().err


def outside(domain):
    """Values outside an interval: each open finite end, one step past each
    closed one, NaN, +-inf and a boolean."""
    values = [math.nan, math.inf, -math.inf, True]
    for end, side, bracket in ((domain.lo, -1, domain.ends[0]),
                               (domain.hi, 1, domain.ends[1])):
        if math.isfinite(end):
            if bracket in "()":
                values.append(end)
            else:
                values.append(end + side if domain.integer
                              else math.nextafter(end, side * math.inf))
    return values


def schema_probes():
    """(key, value) with the value outside the key's domain, for every key of
    the schema that has one: a string outside its choices; for x0 a
    one-entry list, for a schedule one pair with one place outside."""
    for key, (typ, default, domain) in cli._SCHEMA.items():
        if domain is None:
            continue
        if typ is str:
            yield key, "-".join(domain)
        elif isinstance(domain, cli.Interval):
            for value in outside(domain):
                yield key, [value] if typ is list else value
        else:
            for i, place in enumerate(domain):
                for value in outside(place):
                    pair = list(default[0])
                    pair[i] = value
                    yield key, [pair]


class TestConfigSchema:
    def test_module_run_without_runpy_warning(self):
        # the package must not import cli itself, or runpy warns that
        # cylfbm.cli is already in sys.modules
        proc = run_python("-W", "default", "-m", "cylfbm.cli", "--schema", timeout=120)
        assert proc.returncode == 0
        assert "configuration schema" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_mentions_sup_constraint(self):
        text = cli.config_schema()
        assert "sup" in text
        assert "1/12" in text or f"{1/12:.6f}" in text

    def test_defaults_round_trip(self):
        defaults = {key: default for key, (_, default, _note) in cli._SCHEMA.items()}
        cfg = cli.load_config(nest(defaults))
        assert cfg.command == "verify-suite"
        assert cfg["grid.n_cells"] == 64

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config({"grid": {"n_cells": 32, "mesh": 4}})
        assert "grid.mesh" in str(err.value)

    def test_sequence_preset_key_rejected(self, tmp_path, capsys):
        # the preset never chose the model; the sequences.* numbers do
        cfg_file = tmp_path / "preset.yaml"
        cfg_file.write_text(yaml.safe_dump({"sequences": {"preset": "nonsense"}}))
        rc = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "sequences.preset" in capsys.readouterr().err

    def test_type_errors_named(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config({"mc": {"n_paths": "many"}})
        assert "mc.n_paths" in str(err.value)

    def test_unknown_command_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config({"command": "explode"})


class TestRunBasics:
    def test_invalid_path_count_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(yaml.safe_dump({"command": "simulate",
                                            "mc": {"n_paths": 0}}))
        rc = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_simulate_writes_results(self, tmp_path):
        cfg = cli.load_config({"command": "simulate", "mc": {"n_paths": 500, "seed": 3},
                               "grid": {"n_cells": 16}, "d": 2})
        rc = cli.run(cfg, out_dir=tmp_path)
        assert rc == cli.EXIT_OK
        body = read_body(tmp_path / "results.csv")
        assert body[0].startswith("component,")
        assert len(body) > 1
        assert all(ln.endswith(cfg.config_hash()) for ln in body[1:])

    def test_identical_configs_identical_bodies(self, tmp_path):
        cfg = cli.load_config({"command": "girsanov", "mc": {"n_paths": 400, "seed": 9},
                               "grid": {"n_cells": 16}, "d": 2, "phis": ["coordinate:1"]})
        bodies = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            assert cli.run(cfg, out_dir=out) == cli.EXIT_OK
            bodies.append(read_body(out / "results.csv"))
        assert bodies[0] == bodies[1]  # byte-identical across reruns
        header = read_header(tmp_path / "run0" / "results.csv")
        assert set(header) == {"config_hash", "ess_fraction", "low_ess", "mean_weight",
                               "seed", "timestamp"}
        assert 0.0 < float(header["ess_fraction"]) <= 1.0
        assert header["low_ess"] == "False"
        assert float(header["mean_weight"]) > 0.0
        assert header["config_hash"] == cfg.config_hash()

    @pytest.mark.parametrize("params, field", [
        ({"command": "girsanov", "phis": ["coordinate:0"]}, "phis"),
        ({"command": "solve", "t_eval": 0.51}, "t_eval"),
        ({"command": "girsanov", "d": 1, "phis": ["coordinate:2"]}, "phis"),
        ({"command": "girsanov", "phis": ["coordinate:x"]}, "phis"),
        ({"command": "solve", "t_eval": 3.0}, "t_eval"),
        ({"command": "converge", "schedule": [[1, 0.1], [2, 0.05]],
          "phis": ["coordinate:3"]}, "phis"),
        ({"command": "solve", "x0": ["abc"]}, "x0"),
        ({"command": "girsanov", "x0": [[0.1, 0.2]]}, "x0"),
        ({"command": "converge", "x0": [0.0, float("inf")]}, "x0"),
        ({"command": "solve", "x0": [float("nan")]}, "x0"),
        ({"command": "girsanov", "d": 10}, "d"),
        ({"command": "converge", "schedule": [[1, 0.1], [10, 0.05]]}, "schedule"),
        ({"command": "solve", "drift": {"epsilon": 0.0}}, "drift.epsilon"),
        ({"command": "solve", "drift": {"epsilon": float("nan")}}, "drift.epsilon"),
        ({"command": "converge", "schedule": [[1, 0.1], [2, -0.05]]}, "schedule"),
        ({"command": "converge", "schedule": [[1, float("inf")]]}, "schedule"),
        ({"command": "solve", "d": 10}, "d"),
        ({"command": "solve", "d": 0, "phis": ["clipped_norm:2"]}, "d"),
        ({"command": "girsanov", "d": 0, "phis": ["clipped_norm:2"]}, "d"),
        ({"command": "converge", "schedule": [[2, 0.1], [0, 0.05]]}, "schedule"),
        ({"command": "converge", "schedule": [[-1, 0.1], [2, 0.05]],
          "phis": ["clipped_norm:2"]}, "schedule"),
        ({"command": "validate", "d": 0}, "d"),
        ({"command": "validate", "d": 10}, "d"),
        ({"command": "simulate", "d": 0}, "d"),
        ({"command": "simulate", "d": 1100}, "d"),  # H_d underflows to 0
        ({"command": "solve", "d": 2, "x0": [0, 0, 5]}, "x0"),
        ({"command": "girsanov", "d": 2, "x0": [0, 0, 5]}, "x0"),
        ({"command": "converge", "x0": [0, 0, 0, 0, 5]}, "x0"),  # schedule level 4
        ({"command": "girsanov", "mc": {"n_paths": 100, "seed": -1}}, "mc.seed"),
        ({"command": "verify-suite", "mc": {"n_paths": 100, "seed": -1}}, "mc.seed"),
        ({"command": "converge", "schedule": [[2.5, 0.1], [2, 0.05]]}, "schedule"),
        ({"command": "converge", "schedule": [[True, 0.1], [2, 0.05]]}, "schedule"),
        ({"command": "girsanov", "d": True}, "d"),
        ({"command": "girsanov", "drift": {"region_axis": 0}}, "drift.region_axis"),
        ({"command": "validate", "drift": {"region_axis": 9}}, "drift.region_axis"),
        ({"command": "simulate", "grid": {"n_cells": 16, "t_end": True}}, "grid.t_end"),
        ({"command": "solve", "drift": {"epsilon": True}}, "drift.epsilon"),
        ({"command": "girsanov", "t_eval": False}, "t_eval"),
        ({"command": "converge", "schedule": [[1, True]]}, "schedule"),
        ({"command": "solve", "x0": [True]}, "x0"),
        ({"command": "simulate", "drift": {"region_kind": "foo"}}, "drift.region_kind"),
        ({"command": "verify-suite", "drift": {"region_kind": "foo"}}, "drift.region_kind"),
        ({"command": "simulate", "drift": {"region_kind": "ball", "region_radius": 0.0}},
         "drift.region_radius"),
        ({"command": "girsanov", "phis": ["clipped_norm:nan"]}, "phis"),
        ({"command": "solve", "phis": ["clipped_norm:-1"]}, "phis"),
        ({"command": "converge", "phis": ["clipped_norm:inf"]}, "phis"),
        ({"command": "girsanov", "phis": ["coordinate:1", "clipped_norm:0"]}, "phis"),
        ({"command": "girsanov", "grid": {"n_cells": 16, "t_end": float("nan")}}, "grid.t_end"),
        ({"command": "simulate", "sequences": {"weight_first": float("nan")}},
         "sequences.weight_first"),
        ({"command": "girsanov", "drift": {"amp_first": float("nan")}}, "drift.amp_first"),
        ({"command": "girsanov", "drift": {"a": float("inf")}}, "drift.a"),
        ({"command": "verify-suite", "t_eval": float("-inf")}, "t_eval"),
        ({"command": "solve", "phis": []}, "phis"),
        ({"command": "girsanov", "phis": []}, "phis"),
        ({"command": "converge", "phis": []}, "phis"),
        ({"command": "solve", "t_eval": 1e308}, "t_eval"),  # t / step overflows
        ({"command": "girsanov", "t_eval": 1e308}, "t_eval"),
        ({"command": "converge", "t_eval": 1e308}, "t_eval"),
    ])
    def test_bad_functional_or_time_exits_one(self, tmp_path, capsys, params, field):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(yaml.safe_dump({"mc": {"n_paths": 100}, "grid": {"n_cells": 16},
                                            **params}))
        rc = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert f"config key {field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_functional_past_the_state_named(self, tmp_path, capsys):
        rc, err = run_main(tmp_path, capsys, {
            "command": "converge", "mc": {"n_paths": 100}, "grid": {"n_cells": 16},
            "schedule": [[1, 0.1], [2, 0.05]], "phis": ["coordinate:5"]})
        assert rc == cli.EXIT_CONFIG
        assert "config key phis, schedule: functional 'coordinate:5' reads past the " \
            "2-dimensional state" in err

    def test_rejected_at_run_leaves_no_directory(self, tmp_path, capsys):
        # the sequence constraints reject when the configuration loads, so
        # before any output directory exists
        rc, err = run_main(tmp_path, capsys, {
            "command": "simulate", "mc": {"n_paths": 100}, "grid": {"n_cells": 16},
            "sequences": {"hurst_first": 0.2}})
        assert rc == cli.EXIT_CONFIG
        assert "1/12" in err and "config key sequences.hurst_first" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "hurst_ratio", 1e308), ("simulate", "hurst_ratio", -1e308),
        ("solve", "hurst_ratio", 1e308), ("validate", "hurst_ratio", 1e308),
        ("girsanov", "hurst_ratio", -1e308), ("simulate", "weight_ratio", 1e308),
    ] + [(command, "weight_first", value) for value in (1e200, 1e308)
         for command in ("simulate", "solve", "girsanov", "validate")])
    def test_out_of_range_ratio_rejected_at_run(self, tmp_path, capsys, command, key, value):
        # a ratio outside its domain, and a weight_first whose square
        # overflows the square-sum, reject at load with the key named
        rc, err = run_main(tmp_path, capsys, {
            "command": command, "mc": {"n_paths": 100}, "grid": {"n_cells": 16},
            "sequences": {key: value}})
        assert rc == cli.EXIT_CONFIG
        assert "config key" in err and f"sequences.{key}" in err
        assert not (tmp_path / "o").exists()

    def test_validate_fails_on_an_infinite_bound(self, tmp_path, capsys):
        # weight_first = 1e-300 is in its domain, but the integral bound the
        # family declares, amp * vol / lambda_1, overflows: the class check
        # fails, exit 2
        cfg = cli.load_config({"command": "validate", "grid": {"n_cells": 16},
                               "mc": {"n_paths": 100},
                               "sequences": {"weight_first": 1e-300}})
        assert cli.run(cfg, out_dir=tmp_path / "o") == cli.EXIT_NUMERICAL
        assert "validation failed" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()  # so no row reads True

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        rc = cli.main(["--seed", "-1", "--out", str(tmp_path / "o"), "simulate"])
        assert rc == cli.EXIT_CONFIG
        assert "config key mc.seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_solve_command(self, tmp_path):
        cfg = cli.load_config({"command": "solve", "mc": {"n_paths": 300, "seed": 5},
                               "grid": {"n_cells": 16}, "d": 2,
                               "phis": ["coordinate:1", "clipped_norm:2"]})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK
        body = read_body(tmp_path / "results.csv")
        assert len(body) == 3

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_indefinite_node_covariance_exits_two(self, monkeypatch, tmp_path, capsys, command):
        monkeypatch.setattr(fbm, "exact_covariance_matrix",
                            lambda H, grid: -np.eye(grid.n_cells))
        cfg = cli.load_config({"command": command, "mc": {"n_paths": 100},
                               "grid": {"n_cells": 16}})
        assert cli.run(cfg, out_dir=tmp_path / "o") == cli.EXIT_NUMERICAL
        assert "not positive definite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_command(self, tmp_path):
        cfg = cli.load_config({"command": "validate", "grid": {"n_cells": 32},
                               "d": 2, "mc": {"n_paths": 200, "seed": 2}})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK

    def test_schema_flag(self, capsys):
        assert cli.main(["--schema"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "sup" in out


def csv_column(path, column):
    return [row[column] for row in csv.DictReader(read_body(path))]


class TestBlockedCommands:
    """solve and simulate draw their sample in the blocks of girsanov.mc_blocks,
    as girsanov and converge do, and release a block before drawing the next."""

    CONFIG = {"mc": {"n_paths": 2500, "seed": 11}, "grid": {"n_cells": 16}, "d": 3,
              "phis": ["coordinate:2", "clipped_norm:2"]}

    def test_simulate_body_equals_block_loop(self, monkeypatch, tmp_path):
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", 1000)
        cfg = cli.load_config({"command": "simulate", **self.CONFIG})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK
        hs, ws, _, grid = cli._build_model(cfg)
        nodes = (grid.n_cells // 2, grid.n_cells)
        sums = np.zeros((2, 3, 2))
        for m, blk in girsanov.mc_blocks(2500, 11, 1000):
            vals = cylinder.sample_cyl_fbm(hs, ws, 3, grid, m, blk).values
            for k in range(3):
                for j, i in enumerate(nodes):
                    sums[0, k, j] += np.sum(vals[k, i])
                    sums[1, k, j] += np.sum(vals[k, i] * vals[k, i])
        for column, want in zip(("mean", "second_moment"), (sums / 2500).reshape(2, -1)):
            assert csv_column(tmp_path / "results.csv", column) == \
                [format(v, ".17g") for v in want.tolist()]

    def test_solve_body_equals_block_loop(self, monkeypatch, tmp_path):
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", 1000)
        cfg = cli.load_config({"command": "solve", **self.CONFIG})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK
        hs, ws, spec, grid = cli._build_model(cfg)
        md = drift.mollify(spec, 3, cfg["drift.epsilon"])
        moments = {phi_id: girsanov.RunningMoments() for phi_id in cfg["phis"]}
        for m, blk in girsanov.mc_blocks(2500, 11, 1000):
            noise = cylinder.sample_cyl_fbm(hs, ws, 3, grid, m, blk)
            z = solver.picard_solve(md, np.zeros(1), noise).paths[:, -1, :]
            for phi_id, mom in moments.items():
                mom.add(girsanov.make_functional(phi_id)(z))
        body = tmp_path / "results.csv"
        assert csv_column(body, "estimate") == \
            [format(float(mom.mean), ".17g") for mom in moments.values()]
        assert csv_column(body, "stderr") == \
            [format(float(mom.stderr), ".17g") for mom in moments.values()]

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_peak_is_one_block(self, monkeypatch, tmp_path, command):
        # 8.5 MB of noise per 4096-path block at d = 4, N = 64
        monkeypatch.setattr(girsanov, "DEFAULT_BLOCK_SIZE", 4096)
        peaks = []
        for n_paths in (4096, 4096, 4 * 4096):  # the first run fills the caches
            cfg = cli.load_config({"command": command, "mc": {"n_paths": n_paths},
                                   "grid": {"n_cells": 64}, "d": 4})
            peaks.append(traced_peak(lambda: cli.run(cfg, out_dir=tmp_path)))
        assert peaks[2] <= 1.1 * peaks[1]


class TestSchemaWalk:
    """Every key with a domain rejects, at load, each value just outside it;
    a key added to the schema is walked the day it is added."""

    @pytest.mark.parametrize("key, value", list(schema_probes()),
                             ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_value_outside_domain_named(self, tmp_path, capsys, key, value):
        flat = {"command": "simulate", "grid.n_cells": 16, "mc.n_paths": 100, key: value}
        rc, err = run_main(tmp_path, capsys, nest(flat))
        assert rc == cli.EXIT_CONFIG
        assert f"config key {key}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params, keys, message", [
        ({"sequences": {"hurst_ratio": 0.6}}, cli._SEQUENCE_KEYS, "1/6"),
        ({"sequences": {"hurst_ratio": 0.25, "weight_ratio": 0.6}}, cli._SEQUENCE_KEYS,
         "lambda_k/sqrt(H_k) diverges"),
        ({"drift": {"amp_ratio": 0.6}}, cli._DRIFT_KEYS, "sup-bound constants not summable"),
        ({"sequences": {"d_max": 1000000}}, cli._SEQUENCE_KEYS, "Hurst index 0.0"),
    ], ids=["hurst_sum", "weight_ratio", "amp_ratio", "d_max_underflow"])
    def test_constructor_rejection_names_its_keys(self, tmp_path, capsys, params, keys,
                                                  message):
        # sum H_k = 0.08/0.4 >= 1/6; weight_ratio 0.6 >= sqrt(0.25); amp_ratio
        # 0.6 >= weight_ratio 0.5; H_k underflows to 0 long before k = 10^6
        rc, err = run_main(tmp_path, capsys, {"command": "girsanov", "grid": {"n_cells": 16},
                                              "mc": {"n_paths": 100}, **params})
        assert rc == cli.EXIT_CONFIG
        assert "config key" in err and message in err
        assert all(key in err for key in keys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params, message", [
        ({"sequences": {"d_max": 1000000, "hurst_first": 1e-6, "hurst_ratio": 0.99999}},
         "positive weights"),
        ({"d": 1100, "sequences": {"d_max": 1100, "hurst_first": 0.01, "hurst_ratio": 0.9,
                                   "weight_ratio": 0.9}}, "proj_scale_ratio^(d_max - 1)"),
        ({"d": 8, "drift": {"decay_ratio": 1e40, "proj_scale_ratio": 1e40}},
         "(decay_ratio * proj_scale_ratio)^(d_max - 1)"),
        ({"drift": {"decay_ratio": 1e-300, "proj_scale_ratio": 1e-300}},
         "integral-bound constants not summable"),
    ], ids=["weight_underflow", "scale_overflow", "decay_scale_product_overflow",
            "decay_scale_product_underflow"])
    def test_drift_family_rejects_before_building(self, tmp_path, capsys, params, message):
        # lambda_{d_max} = 0.5^999999 underflows to 0; the scale 2^1099 of
        # component 1100 overflows; component 8's decay rate holds
        # (1e40 * 1e40)^7, though each power alone is finite; the integral
        # constants' tail ratio divides by 1e-300 * 1e-300, which underflows
        # to 0.  Every command that builds the model rejects at load, without
        # a warning
        for command in ("validate", "solve", "girsanov", "converge"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, err = run_main(tmp_path, capsys, {"command": command,
                                                      "grid": {"n_cells": 16},
                                                      "mc": {"n_paths": 100}, **params})
            assert rc == cli.EXIT_CONFIG, command
            assert "config key" in err and message in err
            assert all(key in err for key in cli._DRIFT_KEYS)
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "drift.amp_first", 1e308), ("solve", "drift.a", 1e308),
        ("solve", "drift.a", -1e308), ("solve", "drift.b", 1e308),
        ("solve", "drift.b", -1e308), ("solve", "drift.decay_first", 1e308),
        ("girsanov", "drift.amp_first", 1e308), ("girsanov", "drift.a", 1e308),
        ("girsanov", "drift.a", -1e308), ("converge", "drift.amp_first", 1e308),
        ("converge", "drift.a", 1e308), ("converge", "drift.a", -1e308),
        ("girsanov", "drift.a", 1e160), ("girsanov", "drift.a", 1e200),
        ("girsanov", "drift.b", 1e308), ("girsanov", "drift.b", -1e308),
        ("converge", "drift.a", 1e160), ("converge", "drift.amp_first", 1e160),
        ("converge", "drift.b", 1e308), ("converge", "drift.b", -1e308),
        ("girsanov", "drift.a", 1e10), ("converge", "drift.a", 1e10),
    ])
    def test_in_domain_overflow_names_the_drift_keys(self, tmp_path, capsys, command, key,
                                                     value):
        # each value lies inside its key's domain, but the mollified drift's
        # Lipschitz estimate (solve) or the reweighting's Wiener integrand
        # (girsanov, and converge's target) is not finite; at 1e160 the
        # integrand is finite and its squared sum overflows; at 1e10 every
        # log-weight is finite, but every weight underflows to 0.  No numpy
        # warning comes before the rejection
        flat = {"command": command, "grid.n_cells": 16, "mc.n_paths": 100, key: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = run_main(tmp_path, capsys, nest(flat))
        assert rc == cli.EXIT_CONFIG
        assert f"config key {', '.join(cli._DRIFT_KEYS)}" in err and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize("offset", [1e308, -1e308])
    def test_saturated_step_runs_without_warning(self, tmp_path, capsys, command, offset):
        # (y - offset) / eps overflows, and the smoothed step saturates at a
        # or b as erf(+-inf) = +-1: the right result, with no numpy warning
        flat = {"command": command, "grid.n_cells": 16, "mc.n_paths": 100,
                "drift.region_offset": offset}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _ = run_main(tmp_path, capsys, nest(flat))
        assert rc == cli.EXIT_OK
        rows = list(csv.DictReader(read_body(tmp_path / "o" / "results.csv")))
        values = [float(v) for row in rows for k, v in row.items()
                  if k not in ("phi_id", "config_hash")]
        assert values and all(math.isfinite(v) for v in values)

    def test_every_model_parameter_has_a_key(self):
        # a parameter that no key reaches is model generality no command runs
        family = inspect.signature(drift.indicator_exponential_family).parameters
        keys = {f"drift.{name}" for name in family if name not in ("weights", "d_max", "region")}
        read = []

        class Recording(dict):
            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

        cylinder.make_sequences(Recording({key.removeprefix("sequences."): default
                                           for key, (_, default, _) in cli._SCHEMA.items()
                                           if key.startswith("sequences.")}))
        keys |= {f"sequences.{key}" for key in read}
        assert read and not keys - cli._SCHEMA.keys(), keys - cli._SCHEMA.keys()


class TestImportPath:
    def test_no_command_loads_scipy(self, tmp_path):
        # import and every command, the lemma suite included, load no scipy
        # module; the package runs without scipy installed at all (below).
        # The sampling commands do not import the lemma suite; the package
        # still resolves `verify` on access, as the tracer does.
        # Only the sampling commands run component lanes: verify-suite and
        # validate start no thread.  A mapping configuration loads no yaml
        # module either: only reading a YAML file does.
        script = f"""
import sys
import threading
import cylfbm
from cylfbm import cli
scipy_modules = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
yaml_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] in ("yaml", "_yaml"))
assert not scipy_modules(), scipy_modules()
started = []
start = threading.Thread.start
def counted_start(thread):
    started.append(thread.name)
    start(thread)
threading.Thread.start = counted_start
for command in ("girsanov", "simulate", "validate", "solve", "converge"):
    cfg = cli.load_config({{"command": command, "grid": {{"n_cells": 16}},
                           "mc": {{"n_paths": 200, "seed": 3}}}})
    assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/" + command) == cli.EXIT_OK
    assert not scipy_modules(), (command, scipy_modules())
    assert not yaml_modules(), (command, yaml_modules())
assert "cylfbm.verify" not in sys.modules
assert getattr(cylfbm, "verify").__name__ == "cylfbm.verify"
assert started or cylfbm.cylinder.usable_cpus() == 1, "lanes start no thread"
active = threading.active_count()
started.clear()
cfg = cli.load_config({{"command": "verify-suite", "mc": {{"seed": 0}}}})
assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/verify") == cli.EXIT_OK
assert not scipy_modules(), ("verify-suite", scipy_modules())
assert not yaml_modules(), ("verify-suite", yaml_modules())
cfg = cli.load_config({{"command": "validate", "grid": {{"n_cells": 16}}, "d": 2}})
assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/validate-d2") == cli.EXIT_OK
assert not started, started
assert threading.active_count() == active
"""
        proc = run_python("-c", script, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "verify" / "report.csv").exists()

    def test_runs_with_scipy_unimportable(self, tmp_path):
        # scipy is a test dependency only: with every scipy import refused,
        # all six commands and the stochastic derivative still run
        script = f"""
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy refused: " + name)
        return None
sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import cylfbm
from cylfbm import cli, cylinder, drift, solver
for command in ("girsanov", "simulate", "validate", "solve", "converge", "verify-suite"):
    cfg = cli.load_config({{"command": command, "grid": {{"n_cells": 16}},
                           "mc": {{"n_paths": 200, "seed": 3}}}})
    assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/" + command) == cli.EXIT_OK, command
hs, ws, spec, _ = cli._build_model(cli.load_config({{}}))
noise = cylinder.sample_cyl_fbm(hs, ws, 2, cylfbm.fbm.TimeGrid(1.0, 32), 50, seed=5)
sol = solver.picard_solve(drift.mollify(spec, 2, 0.1), np.zeros(2), noise)
assert np.all(np.isfinite(solver.malliavin_derivative(sol)))
assert solver.malliavin_fd_check(sol, 8, 2).relative_error < 1e-2
"""
        proc = run_python("-c", script, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestVerifySuiteCommand:
    def test_report_lists_all_checks(self, tmp_path):
        cfg = cli.load_config({"command": "verify-suite", "mc": {"seed": 0,
                                                                "n_paths": 100}})
        bodies = []
        for rerun in ("a", "b"):
            assert cli.run(cfg, out_dir=tmp_path / rerun) == cli.EXIT_OK
            bodies.append(read_body(tmp_path / rerun / "report.csv"))
        # the occupation check samples noise, so reruns must still agree byte for byte
        assert bodies[0] == bodies[1]
        body = bodies[0]
        assert body[0].startswith("check_id,")
        ids = [ln.split(",")[0] for ln in body[1:]]
        for expected in ("shuffle_integral", "prod_sum", "permanent",
                         "gauss_moment_bounds", "gauss_conditioning",
                         "simplex_beta", "kernel_increment", "haar_battery",
                         "stirling_bound", "occupation_density"):
            assert expected in ids
        assert all(",pass," in ln for ln in body[1:])


class TestPlotData:
    COLUMNS = ["d", "eps", "t", "phi_id", "value", "gap", "paired_gap", "paired_stderr"]

    def test_series_columns(self, tmp_path):
        t = cli.ResultTable(columns=self.COLUMNS)
        for d, eps, phi_id, gap in ((2, 0.1, "coordinate:1", 0.5),
                                    (1, 0.2, "coordinate:1", 0.7),
                                    (2, 0.05, "coordinate:1", 0.25),
                                    (2, 0.1, "clipped_norm:2", 0.1)):
            t.add({"d": d, "eps": eps, "t": 1.0, "phi_id": phi_id, "value": 9.0, "gap": gap,
                   "paired_gap": gap / 2, "paired_stderr": 1 / 3})
        cli._emit_converge_plotdata(t, tmp_path / "plotdata")
        files = sorted(p.name for p in (tmp_path / "plotdata").iterdir())
        assert files == ["gap_d1_coordinate_1.dat", "gap_d2_clipped_norm_2.dat",
                         "gap_d2_coordinate_1.dat"]
        # eps, gap, paired_gap, paired_stderr in table order, at 17 digits
        rows = (tmp_path / "plotdata" / "gap_d2_coordinate_1.dat").read_text().splitlines()
        assert rows == ["0.10000000000000001 0.5 0.25 0.33333333333333331",
                        "0.050000000000000003 0.25 0.125 0.33333333333333331"]

    def test_empty_table_no_series(self, tmp_path):
        cli._emit_converge_plotdata(cli.ResultTable(columns=self.COLUMNS), tmp_path / "plotdata")
        assert list((tmp_path / "plotdata").iterdir()) == []


class TestConvergePlotData:
    def test_series_per_level_and_functional(self, tmp_path):
        cfg = cli.load_config({"command": "converge",
                               "mc": {"n_paths": 300, "seed": 13},
                               "grid": {"n_cells": 16},
                               "schedule": [[1, 0.2], [2, 0.1], [2, 0.05]],
                               "phis": ["coordinate:1"]})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK
        header = read_header(tmp_path / "results.csv")
        assert 0.0 < float(header["ess_fraction"]) <= 1.0  # of the target's sample
        assert float(header["mean_weight"]) > 0.0
        assert header["low_ess"] in ("False", "True")
        files = sorted(p.name for p in (tmp_path / "plotdata").iterdir())
        assert files == ["gap_d1_coordinate_1.dat", "gap_d2_coordinate_1.dat"]
        two = (tmp_path / "plotdata" / "gap_d2_coordinate_1.dat").read_text()
        assert len(two.splitlines()) == 2  # one line per schedule width
