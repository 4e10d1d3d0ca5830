import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cylfbm import cli


def read_body(path):
    """CSV rows without the comment header (timestamps live only there)."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def read_header(path):
    """The ``# key: value`` comment lines as a mapping."""
    return dict(ln[2:].split(": ", 1) for ln in path.read_text().splitlines()
                if ln.startswith("# "))


class TestConfigSchema:
    def test_module_run_without_runpy_warning(self):
        # the package must not import cli itself, or runpy warns that
        # cylfbm.cli is already in sys.modules
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "cylfbm.cli", "--schema"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=120)
        assert proc.returncode == 0
        assert "configuration schema" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_mentions_sup_constraint(self):
        text = cli.config_schema()
        assert "sup" in text
        assert "1/12" in text or f"{1/12:.6f}" in text

    def test_defaults_round_trip(self):
        defaults = {key: default for key, (_, default, _note) in cli._SCHEMA.items()}
        cfg = cli.load_config(cli._nest(defaults))
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
    ])
    def test_bad_functional_or_time_exits_one(self, tmp_path, capsys, params, field):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text(yaml.safe_dump({"mc": {"n_paths": 100}, "grid": {"n_cells": 16},
                                            **params}))
        rc = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert f"config key {field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejected_at_run_leaves_no_directory(self, tmp_path, capsys):
        # the sequence constraints are checked when the model is built
        cfg = cli.load_config({"command": "simulate", "mc": {"n_paths": 100},
                               "grid": {"n_cells": 16}, "sequences": {"hurst_first": 0.2}})
        assert cli.run(cfg, out_dir=tmp_path / "o") == cli.EXIT_CONFIG
        assert "1/12" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_validate_command(self, tmp_path):
        cfg = cli.load_config({"command": "validate", "grid": {"n_cells": 32},
                               "d": 2, "mc": {"n_paths": 200, "seed": 2}})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK

    def test_schema_flag(self, capsys):
        assert cli.main(["--schema"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "sup" in out


class TestImportPath:
    def test_sampling_commands_skip_quadrature_and_lemma_suite(self, tmp_path):
        # only verify-suite (and the stochastic derivative) need scipy.integrate;
        # the package still resolves `verify` on access, as the tracer does.
        # Only the sampling commands run component lanes: verify-suite and
        # validate start no thread.
        script = f"""
import sys
import threading
import cylfbm
from cylfbm import cli
started = []
start = threading.Thread.start
def counted_start(thread):
    started.append(thread.name)
    start(thread)
threading.Thread.start = counted_start
for command in ("girsanov", "converge"):
    cfg = cli.load_config({{"command": command, "grid": {{"n_cells": 16}},
                           "mc": {{"n_paths": 200, "seed": 3}}}})
    assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/" + command) == cli.EXIT_OK
loaded = sorted({{"scipy.integrate", "cylfbm.verify"}} & set(sys.modules))
assert not loaded, loaded
assert getattr(cylfbm, "verify").__name__ == "cylfbm.verify"
assert started or cylfbm.cylinder.usable_cpus() == 1, "lanes start no thread"
active = threading.active_count()
started.clear()
cfg = cli.load_config({{"command": "verify-suite", "mc": {{"seed": 0}}}})
assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/verify") == cli.EXIT_OK
cfg = cli.load_config({{"command": "validate", "grid": {{"n_cells": 16}}, "d": 2}})
assert cli.run(cfg, out_dir={str(tmp_path)!r} + "/validate") == cli.EXIT_OK
assert not started, started
assert threading.active_count() == active
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "verify" / "report.csv").exists()


class TestVerifySuiteCommand:
    def test_report_lists_all_checks(self, tmp_path):
        cfg = cli.load_config({"command": "verify-suite", "mc": {"seed": 0,
                                                                "n_paths": 100}})
        assert cli.run(cfg, out_dir=tmp_path) == cli.EXIT_OK
        body = read_body(tmp_path / "report.csv")
        assert body[0].startswith("check_id,")
        ids = [ln.split(",")[0] for ln in body[1:]]
        for expected in ("shuffle_integral", "prod_sum", "permanent",
                         "gauss_moment_bounds", "gauss_conditioning",
                         "simplex_beta", "kernel_increment", "haar_battery",
                         "stirling_bound", "occupation_density"):
            assert expected in ids
        assert all(",pass," in ln for ln in body[1:])


class TestPlotData:
    def _table(self):
        t = cli.ResultTable(columns=["eps", "gap", "label"])
        t.add({"eps": 0.1, "gap": 0.5, "label": "a"})
        t.add({"eps": 0.05, "gap": 0.25, "label": "b"})
        return t

    def test_two_column_output(self, tmp_path):
        path = tmp_path / "series.dat"
        cli.emit_plotdata(self._table(), "eps", ["gap"], path)
        rows = path.read_text().splitlines()
        assert len(rows) == 2
        assert [float(v) for v in rows[0].split()] == [0.1, 0.5]

    def test_empty_table_empty_file(self, tmp_path):
        t = cli.ResultTable(columns=["x", "y"])
        path = tmp_path / "empty.dat"
        cli.emit_plotdata(t, "x", ["y"], path)
        assert path.read_text() == ""

    def test_missing_column_named(self, tmp_path):
        with pytest.raises(cli.ConfigError) as err:
            cli.emit_plotdata(self._table(), "eps", ["nope"], tmp_path / "x.dat")
        assert "nope" in str(err.value)

    def test_non_numeric_column_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.emit_plotdata(self._table(), "eps", ["label"], tmp_path / "x.dat")


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
