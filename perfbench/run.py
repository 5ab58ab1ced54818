"""Benchmark of the wmhseg pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is train_c5, predict_paper or score_challenge.  With ``--trace 0`` the
last line of standard output is one JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run instead.
``all`` runs every workload, untraced and traced, each in a fresh process,
and prints one summary.  Results also go to perfbench/out/.  A run whose
operations did not all pass their output checks still prints its result,
with ``correct`` false, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are fixed before numpy loads: two, never more than the cores
# this process may run on.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train_c5", "predict_paper", "score_challenge")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "input_per_s": "1/s", "work_per_s": "1/s"}


def cpu_ticks():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def import_package():
    """Import wmhseg from this checkout's src/ and nowhere else."""
    if not (SRC / "wmhseg" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'wmhseg'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import wmhseg

    if Path(wmhseg.__file__).resolve().parent != (SRC / "wmhseg").resolve():
        sys.exit(f"error: wmhseg imported from {wmhseg.__file__}, not from {SRC}")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy as np

    import layertrace
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-s{seed}-{os.getpid()}"
    ticks = cpu_ticks()
    try:
        setup_s, inputs = [], None
        for i in range(1 if traced else SETUP_REPEATS):
            inputs = None  # let the previous set-up's arrays go first
            d = workdir / f"setup{i}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            inputs = wl.setup(d, seed, wl.full)
            setup_s.append(time.perf_counter() - start)
            if i:
                shutil.rmtree(workdir / f"setup{i - 1}")
        tracer = layertrace.Tracer() if traced else None
        body = wl.measure(inputs, seed, seconds, wl.full, tracer)
        inputs = None
        result = {"workload": name, "seed": seed, "seconds": seconds, "blas_threads": BLAS_THREADS,
                  "setup_s": setup_s, "attempted": body.attempted, "failed": body.failed,
                  "correct": body.correct, **body.info}
        if not traced:
            metrics = {"setup_s": float(np.median(setup_s)), "peak_rss_mb": body.peak_rss_mb,
                       "input_per_s": body.input_per_s, "work_per_s": body.work_per_s}
            result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        else:
            result["metrics"], result["layers"], companions = traced_metrics(
                name, seed, workdir, tracer, body)
            # A companion run's operations are checked like the body's.
            for cbody in companions:
                result["attempted"] += cbody.attempted
                result["failed"] += cbody.failed
                result["correct"] = result["correct"] and cbody.correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["steal_share"] = steal_share(ticks, cpu_ticks())
    return result


def traced_metrics(name, seed, workdir, tracer, body):
    """The traced body's per-layer metrics, then the rows it never reaches
    filled from small traced companion runs of the other workloads.  Returns
    the metrics, the per-body layer tables and the companion bodies."""
    import layertrace
    from workloads import WORKLOADS

    values = layertrace.layer_metrics(tracer, body.units, body.step_wall_s)
    values["traced.work_per_s"] = body.work_per_s
    layers = {name: {"units": body.units, "rows": layertrace.table_rows(tracer),
                     "gemm_gflops": tracer.gemm_gflops, "missing": tracer.missing}}
    companions = []
    for other, wl in WORKLOADS.items():
        if other == name:
            continue
        d = workdir / f"companion-{other}"
        d.mkdir(parents=True)
        companion = layertrace.Tracer()
        cbody = wl.measure(wl.setup(d, seed, wl.small), seed, 0.0, wl.small, companion)
        companions.append(cbody)
        filled = layertrace.layer_metrics(companion, cbody.units, cbody.step_wall_s)
        values.update({k: v for k, v in filled.items() if k not in values})
        layers[f"{other} (small)"] = {"units": cbody.units, "missing": companion.missing,
                                     "rows": layertrace.table_rows(companion),
                                     "gemm_gflops": companion.gemm_gflops}
    units = {n: unit_of(n) for n in layertrace.metric_names()}
    missing = [n for n in units if n not in values]
    if missing:
        print(f"# missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    return metrics, layers, companions


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    return "ratio"


def print_layers(result: dict) -> None:
    for body, table in result["layers"].items():
        print(f"# {body}: units {table['units']}")
        for row in table["rows"]:
            print(f"#   {row['row']:<26} calls {row['calls']:>6}  total {row['total_ms']:10.1f} ms"
                  f"  self {row['self_ms']:10.1f} ms  per {row['unit'] or '-'}")
        for conv, (achieved, bare) in table["gemm_gflops"].items():
            print(f"#   {conv:<26} {achieved:7.2f} GFLOP/s achieved, {bare:7.2f} bare matmul")
        if table["missing"]:
            print(f"#   missing: {', '.join(table['missing'])}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return 1
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    named = [("setup_s", "s", None), ("peak_rss_mb", "MB", None),
             ("prep_slices_per_s", "slices/s", ("train_c5", "input_per_s")),
             ("train_slices_per_s", "slices/s", ("train_c5", "work_per_s")),
             ("predict_slices_per_s", "slices/s", ("predict_paper", "work_per_s")),
             ("score_cases_per_s", "cases/s", ("score_challenge", "work_per_s"))]
    print(f"{'metric':<22} {'unit':<9} " + " ".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    for metric, unit, source in named:
        cells = []
        for name in WORKLOAD_NAMES:
            m = rows[name, 0]["metrics"]
            if source is None:
                cells.append(f"{m[metric]['value']:16.4f}")
            elif source[0] == name:
                cells.append(f"{m[source[1]]['value']:16.4f}")
            else:
                cells.append(f"{'':>16}")
        print(f"{metric:<22} {unit:<9} " + " ".join(cells))
    print(f"{'attempted/failed':<32} " + " ".join(
        f"{str(rows[n, 0]['attempted']) + '/' + str(rows[n, 0]['failed']):>16}" for n in WORKLOAD_NAMES))
    print("tracing overhead (work_per_s untraced -> traced):")
    for name in WORKLOAD_NAMES:
        plain = rows[name, 0]["metrics"]["work_per_s"]["value"]
        traced = rows[name, 1]["metrics"]["traced.work_per_s"]["value"]
        print(f"  {name:<16} {plain:.4f} -> {traced:.4f} ({100 * (plain / traced - 1):+.1f}%)")
    bad = sum(rows[n, t]["failed"] for n in WORKLOAD_NAMES for t in (0, 1))
    return 1 if bad or not all(r["correct"] for r in rows.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=float))
    info = {k: v for k, v in result.items() if k not in ("metrics", "layers")}
    print("# " + json.dumps(info, default=float))
    if args.trace:
        print_layers(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
