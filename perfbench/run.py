"""ctrlkit benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload shoot --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json: the cold
start of `import ctrlkit.cli` (setup_s), the median pass time (pass_s), the
time to a correct result (tts_s) and the peak RSS of the workload process.
With --trace 1 it prints the per-layer metrics from a traced run.  The
workload runs in its own interpreter (perfbench/child.py) with
PYTHONPATH=src and single-threaded BLAS; every item is checked, and the last
line of stdout is one JSON object.  A full record of the run, with the
environment, the seed, every pass time and every report digest, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

# Tiny matrices: BLAS threads only add scheduling noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env():
    return dict(os.environ, PYTHONPATH="src", **THREAD_ENV)


def measure_setup():
    """Median cold start, from spawning an interpreter until `import ctrlkit.cli` returns."""
    code = "import time, ctrlkit.cli; print(time.perf_counter())"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first start also writes bytecode caches
            samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples), samples


def run_child(args, remaining):
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.jsonl")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    started = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(whys)}")
    for need in ("src/ctrlkit/cli.py", "specs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"ctrlkit source tree not found: {need} is missing under {ROOT}")
    os.makedirs(OUT, exist_ok=True)

    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "mpmath": importlib.metadata.version("mpmath"),
            **THREAD_ENV,
        },
    }
    if not args.trace:
        record["setup_s"], record["setup_samples"] = measure_setup()
    child = run_child(args, DEADLINE_S - (time.perf_counter() - started))
    record.update(child)

    passes = [p[0] for p in child["passes"]]
    record["pass_samples"] = len(passes)
    record["pass_tail"] = stats.tail_percentile(passes)
    # Every item's report must hash the same in every pass, traced or not.
    unsteady = [k for k, v in child["digests"].items() if len(v) != 1]
    record["deterministic"] = not unsteady
    correct = child["failed"] == 0 and not unsteady

    if args.trace:
        values = {**child["layer"], **child["converge_rows"]}
        wanted = spec["per_layer"]
    else:
        values = {k: record[k] for k in ("pass_s", "tts_s", "peak_rss_mb", "setup_s")}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:36s} {m['value']:.6g} {m['unit']}")
    pct, tail = record["pass_tail"]
    print(
        f"{args.workload:9s} passes={len(passes)} fail_frac={record['fail_frac']:.3g} "
        f"deterministic={record['deterministic']} "
        + (f"p{pct}={tail:.6g}s" if pct is not None else "tail: fewer than 11 passes")
    )
    if unsteady:
        print(f"report digests differ between passes: {unsteady}")
    if child["failed_items"]:
        print(f"failed items: {child['failed_items']}")
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
