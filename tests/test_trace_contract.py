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
