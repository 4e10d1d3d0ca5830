"""The benchmark's tracer wraps functions by module binding and counts cache
misses by name, so a rename or a changed import in the program would make it
miss a layer silently.  This test installs it and checks that it finds every
function, cache and binding that the benchmark's workloads expect to hit."""

from pathlib import Path

import cylfbm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_expected_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer(cylfbm)
    try:
        tracer.install()
        assert tracer.errors == []
        assert set(tracer.cache_misses()) >= set(tracing.CACHES)
        for workload in workloads.WORKLOADS.values():
            # drift.mollified is wrapped per mollify() result, not by binding
            missing = workload.expect["hit"] - {"drift.mollified"} - tracer.bindings
            assert not missing, f"{workload.name}: bindings not found: {sorted(missing)}"
    finally:
        tracer.uninstall()


def test_tracer_hooks_compute_layer_metrics(monkeypatch, tmp_path):
    # the hooks read attributes of what the traced functions return (a
    # solution's iteration count, an ensemble's path count, an estimator's
    # ESS); run each Monte Carlo workload once, small, with the tracer on
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    from cylfbm import cli

    tracer = tracing.Tracer(cylfbm)
    try:
        tracer.install()
        for run_id, name in enumerate(("converge-sched", "girsanov-d4")):
            workload = workloads.WORKLOADS[name]
            mapping = workload.config(3)
            mapping["mc"]["n_paths"] = 200
            mapping["grid"] = {"n_cells": 16}
            out = tmp_path / name
            before = tracer.cache_misses()
            rc = tracer.root(run_id, lambda: cli.run(cli.load_config(mapping), out_dir=out))
            assert rc == cli.EXIT_OK
            after = tracer.cache_misses()
            builds = {k: after[k] - before[k] for k in after}
            spans = tracing.op_spans(tracer, run_id)
            assert tracing.self_check(tracer, spans, builds, workload.expect, cold=False) == []
            metrics = tracing.layer_metrics(spans, builds)
            assert metrics["cylinder.sample_cyl_fbm.paths"] > 0
            assert 0.0 < metrics["girsanov.ess_fraction"] <= 1.0
            if name == "converge-sched":
                assert metrics["solver.picard_iters"] == metrics["solver.picard_solve.calls"] > 0
                assert metrics["drift.mollified.calls"] > 0
    finally:
        tracer.uninstall()
