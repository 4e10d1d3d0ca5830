"""One benchmark process: import cylfbm, run operations, report as JSON.

    python3 perfbench/worker.py '<job as JSON>'

The job names the workload, the cylfbm source directory, an output
directory, the operations' seeds (``first_seed`` for the cold operation and
the first warm one, then the stream ``stream``), how many seconds of warm
operations to run (``warm_seconds``, at least ``min_warm`` of them) and
whether to trace.  The single line printed holds the import time, every
operation (wall time, output problems, standard error, CSV body hash, config
hash), the peak resident memory and the machine; a traced job adds the
per-layer metrics and the trace self-check.
"""

# argparse and dataclasses are among the stdlib modules cylfbm.cli imports;
# loading them first keeps import_s to cylfbm and its third-party dependencies
import argparse  # noqa: F401
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads as wl


@dataclasses.dataclass
class Op:
    """One operation: a generated config run by ``cli.run`` and checked."""

    mapping: dict
    cold: bool
    wall: float = 0.0
    problems: list = dataclasses.field(default_factory=list)
    body_sha: str = ""
    se: float = None

    @property
    def config(self) -> str:
        return json.dumps(self.mapping, sort_keys=True)


class Client:
    """The closed-loop client: runs one operation at a time and checks each
    output."""

    def __init__(self, cli, workload, out_dir):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.ops = []

    def run(self, mapping, cold=False, runner=None) -> Op:
        op = Op(mapping, cold)
        csv_path = self.out_dir / self.workload.csv_name
        csv_path.unlink(missing_ok=True)

        def call():
            # module attributes are looked up per call, so traced wrappers apply
            return self.cli.run(self.cli.load_config(mapping), out_dir=self.out_dir)

        t0 = time.perf_counter()
        try:
            rc = runner(call) if runner else call()
        except Exception:  # the program failed; record it and keep the loop going
            traceback.print_exc()
            rc = None
        op.wall = time.perf_counter() - t0
        if rc != 0:
            op.problems.append(f"cli.run returned {rc}")
        else:
            self._check(op, csv_path)
        for p in op.problems:
            print(f"[{self.workload.name}] operation {len(self.ops)}: {p}", file=sys.stderr)
        self.ops.append(op)
        return op

    def _check(self, op, csv_path):
        try:
            body, rows = wl.read_csv(csv_path)
        except OSError as exc:
            op.problems.append(f"no output: {exc}")
            return
        op.body_sha = hashlib.sha256(body.encode()).hexdigest()
        op.problems += self.workload.check(rows)
        if not op.problems and self.workload.standard_error:
            op.se = self.workload.standard_error(rows)

    def next_op(self, seeds, **kw) -> Op:
        return self.run(self.workload.config(next(seeds)), **kw)


def timed(client, seeds, warm_seconds, min_warm) -> dict:
    """A cold operation, then warm ones for ``warm_seconds``."""
    client.next_op(seeds, cold=True)
    start = time.perf_counter()
    n = 0
    while n < min_warm or time.perf_counter() - start < warm_seconds:
        client.next_op(seeds)
        n += 1
    return {}


def traced(client, seeds, seconds, package) -> dict:
    """The cold operation and every second warm one run with the wrappers
    installed; the others give the untraced time.  At least two of each, so
    ``trace.overhead_s`` is not one difference of two single runs."""
    import tracing

    tracer = tracing.Tracer(package)
    per_op = []  # (op, layer metrics, self-check problems)

    def traced_op(cold):
        run_id = len(client.ops)
        tracer.install()
        before = tracer.cache_misses()
        try:
            op = client.next_op(seeds, cold=cold, runner=lambda call: tracer.root(run_id, call))
        finally:
            tracer.uninstall()
        after = tracer.cache_misses()
        builds = {k: after[k] - before[k] for k in after}
        spans = tracing.op_spans(tracer, run_id)
        checks = tracing.self_check(tracer, spans, builds, client.workload.expect, cold)
        per_op.append((op, tracing.layer_metrics(spans, builds), checks))

    traced_op(cold=True)
    untraced = []
    start = time.perf_counter()
    while len(per_op) < 3 or time.perf_counter() - start < seconds:
        if len(untraced) < len(per_op):
            untraced.append(client.next_op(seeds).wall)
        else:
            traced_op(cold=False)
    tracer.dump(client.out_dir.parent / "spans.jsonl")

    cold_metrics = per_op[0][1]
    warm = [m for _, m, _ in per_op[1:]]
    metrics = {name: (cold_metrics[name] if name in tracing.COLD_METRICS
                      else statistics.median(m[name] for m in warm))
               for name in warm[0]}
    run_s = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(op.wall for op, _, _ in per_op[1:]) - run_s
    metrics["time_to_se_s"] = wl.time_to_se(
        {op.config: op.se for op in client.ops if op.se is not None}, run_s)
    problems = sorted({p for _, _, checks in per_op for p in checks})
    for p in problems:
        print(f"[{client.workload.name}] trace self-check: {p}", file=sys.stderr)
    return {"layers": {name: metrics[name] for name in tracing.PER_LAYER},
            "trace_problems": problems,
            "traced_ops": len(per_op), "untraced_ops": len(untraced)}


def machine(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    job = json.loads(argv[0])
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import cylfbm
    import_s = time.perf_counter() - t0
    if Path(cylfbm.__file__).resolve().parent != src / "cylfbm":
        print(f"imported cylfbm from {cylfbm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    client = Client(cylfbm.cli, wl.WORKLOADS[job["workload"]], out_dir)
    seeds = wl.op_seeds(job["first_seed"], job["stream"])
    if job["trace"]:
        report = traced(client, seeds, job["warm_seconds"], cylfbm)
    else:
        report = timed(client, seeds, job["warm_seconds"], job["min_warm"])
    report.update(
        import_s=import_s,
        ops=[{"cold": op.cold, "wall": op.wall, "problems": op.problems, "se": op.se,
              "body_sha": op.body_sha, "config": op.config,
              "config_hash": cylfbm.cli.load_config(op.mapping).config_hash()}
             for op in client.ops],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(np, scipy),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
