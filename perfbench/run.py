"""cylfbm benchmark: one closed-loop client calling ``cli.run`` on generated
configs, from the root of a source checkout.

    python3 perfbench/run.py --workload girsanov-d4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the program untouched and prints the end-to-end
metrics; with ``--trace 1`` it wraps each module's public functions and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the run and the machine.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
WORKER = Path(__file__).resolve().parent / "worker.py"
# single-threaded BLAS: the plain baseline, and no more than two threads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fresh processes per timed run; each gives one set-up sample
PROCESSES = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def budget_s(seconds) -> float:
    """Wall time after which a run stops waiting for its workers: a program
    several times slower still ends with a result, its killed worker counted
    as a failed operation."""
    return 120.0 + 2.0 * seconds


def crashed(problem) -> dict:
    print(problem, file=sys.stderr)
    return {"ops": [{"cold": True, "wall": 0.0, "se": None, "body_sha": "", "config": "",
                     "config_hash": "", "problems": [problem]}],
            "import_s": 0.0, "rss_mb": 0.0, "machine": {}, "crashed": True}


def run_worker(job, timeout) -> dict:
    """Run one worker process to completion; a crash reads as one failed op."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                              capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **BLAS_ENV}, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        err = exc.stderr or ""
        sys.stderr.write(err.decode(errors="replace") if isinstance(err, bytes) else err)
        return crashed(f"worker killed after {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return crashed(f"worker exited with {proc.returncode}")


def check_bodies(reports):
    """A repeated config must reproduce its CSV body, within one process (cold
    and warm) and across processes."""
    first = {}
    for rep in reports:
        for op in rep["ops"]:
            if op["body_sha"] and op["body_sha"] != first.setdefault(op["config"], op["body_sha"]):
                op["problems"].append("CSV body differs from another run of the same config")
                print(f"CSV body differs between runs of {op['config']}", file=sys.stderr)


def end_to_end(reports):
    warm = [op["wall"] for rep in reports for op in rep["ops"] if not op["cold"]]
    run_s = statistics.median(warm)
    ops = [op for rep in reports for op in rep["ops"]]
    failed = sum(bool(op["problems"]) for op in ops)
    # a fresh process's time to its first result: import plus the cold run
    setup = [rep["import_s"] + op["wall"] for rep in reports
             for op in rep["ops"][:1] if not rep.get("crashed")]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "peak_rss_mb": max(rep["rss_mb"] for rep in reports),
        "ok_frac": 1.0 - failed / len(ops),
    }
    se_by_config = {op["config"]: op["se"] for op in ops if op["se"] is not None}
    detail = {"run_s_samples": len(warm), "setup_samples_s": setup,
              "cold_excess_s": [s - run_s for s in setup],
              "time_to_se_s": wl.time_to_se(se_by_config, run_s)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def per_layer(report):
    import tracing
    metrics = {name: {"value": report["layers"][name], "unit": unit}
               for name, (unit, _) in tracing.PER_LAYER.items()}
    detail = {"traced_ops": report["traced_ops"], "untraced_ops": report["untraced_ops"],
              "self_check": report["trace_problems"] or "pass"}
    return metrics, detail


def _git_commit(root):
    """HEAD of the checkout, or None outside a git repository (git does not
    look above the checkout)."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
                              ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sources = sorted((SRC / "cylfbm").glob("*.py"))
    if not sources:
        print(f"cylfbm sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    first_seed = random.Random(args.seed).randrange(2 ** 31)

    def job(k, warm_seconds, min_warm):
        return {"workload": args.workload, "src": str(SRC), "out_dir": str(run_dir / f"p{k}"),
                "first_seed": first_seed, "stream": f"{args.seed}:{k}",
                "warm_seconds": warm_seconds, "min_warm": min_warm, "trace": args.trace}

    deadline = time.monotonic() + budget_s(args.seconds)
    reports = []
    if args.trace:
        reports.append(run_worker(job(0, args.seconds, 1), budget_s(args.seconds)))
    else:
        # the warm time is spread over the processes: process k runs until
        # the warm operations so far add up to (k + 1) / PROCESSES of it
        done = 0.0
        for k in range(PROCESSES):
            reports.append(run_worker(job(k, args.seconds * (k + 1) / PROCESSES - done,
                                          1 if k == 0 else 0),
                                      max(deadline - time.monotonic(), 1.0)))
            if reports[-1].get("crashed"):
                break
            done += sum(op["wall"] for op in reports[-1]["ops"] if not op["cold"])
    check_bodies(reports)

    ops = [op for rep in reports for op in rep["ops"]]
    failed = sum(bool(op["problems"]) for op in ops)
    if args.trace and "layers" in reports[0]:
        metrics, detail = per_layer(reports[0])
        trace_ok = not reports[0]["trace_problems"]
    elif not args.trace and any(not op["cold"] for op in ops):
        metrics, detail = end_to_end(reports)
        trace_ok = True
    else:
        print("no operation completed", file=sys.stderr)
        return 1
    tree = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail,
              "machine": {**reports[0]["machine"], "git_commit": _git_commit(ROOT),
                          "source_sha256": tree.hexdigest()[:16],
                          "config_hash": sorted({op["config_hash"] for op in ops})}}
    result = {"correct": failed == 0 and trace_ok, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**record, **result, "reports": reports}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
