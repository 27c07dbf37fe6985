"""Benchmark of billiardlab on one workload; prints its metrics and a JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sector-20ghz --seed 1 --seconds 30 --trace 0

Workloads are ``sector-20ghz``, ``paper-4.6ghz`` and ``resonance-traces``
(see workloads.py).  The run builds the workload's inputs from ``--seed``,
repeats one operation until ``--seconds`` have passed, checks every
operation's outputs outside the timed region, and prints one metric per
line with its unit.  The last line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced operations,
so it also measures the tracing overhead.  The full report, and with
``--trace 1`` the spans, are written to perfbench/out/.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

BLAS_THREADS = "1"  # eigvalsh is the only BLAS-heavy call; one thread keeps runs steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2  # fresh processes that repeat the set-up, besides this one
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads(root: str):
    """Import the workloads against the billiardlab sources of this checkout, nothing else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "billiardlab", "billiard.py")):
        raise SystemExit(f"billiardlab sources not found under {src}; run from the repository root")
    sys.path.insert(0, src)
    import billiardlab.billiard

    if not os.path.abspath(billiardlab.billiard.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported billiardlab from {billiardlab.billiard.__file__}, not from {src}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def setup_samples(args, own: float) -> list[float]:
    """Set-up time of this process and of SETUP_PROBES fresh ones, run one after another."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_ops(wl, tracer, seconds: float, trace: bool) -> list[dict]:
    """Repeat the operation until ``seconds`` have passed; odd operations are traced in a traced run."""
    from tracing import counting_billiard_kernels

    records = []
    loop_start = time.perf_counter()
    k = 0
    while k < 1 + trace or time.perf_counter() - loop_start < seconds:
        traced = trace and k % 2 == 1
        tracer.enabled = traced
        tracer.counts.clear()
        root = len(tracer.spans)
        out, error = None, None
        inputs = wl.prepare(k)
        kernels = counting_billiard_kernels(tracer) if traced else contextlib.nullcontext()
        with tracer.recording_warnings(), kernels:
            start = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = wl.op(tracer, inputs)
            except Exception:  # the operation failed; record it and go on measuring
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        tracer.enabled = False
        rec = {"k": k, "wall": wall, "traced": traced, "failures": [], "counts": {}, "quality": {},
               "trace_counts": dict(tracer.counts)}
        if error is not None:
            rec["failures"], rec["defects"] = [error], []
        else:
            rec["failures"], rec["counts"], rec["quality"] = wl.check(out)
            rec["defects"] = rec["quality"].pop("defects", [])
        if traced:
            rec["self_times"], rec["bench_self"] = tracer.self_times(root)
        records.append(rec)
        k += 1
    return records


def timing_summary(walls: list[float]) -> dict:
    walls = sorted(walls)
    n = len(walls)
    out = {"median": statistics.median(walls), "samples": n, "percentile": None}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out["percentile"] = {"p": p, "value": statistics.quantiles(walls, n=1000)[int(p * 10) - 1]}
            break
    return out


def mean_over(records, key) -> dict:
    """Per-operation mean of a dict-valued record field."""
    total: dict[str, float] = {}
    for r in records:
        for name, v in r[key].items():
            total[name] = total.get(name, 0.0) + v
    return {name: v / len(records) for name, v in total.items()}


def resonance_quality(records) -> dict:
    q = [r["quality"] for r in records if r["quality"]]
    if not q or "poles" not in q[0]:
        return {}
    poles = sum(x["poles"] for x in q)
    recovered = sum(x["recovered"] for x in q)
    fitted = sum(x["fitted"] for x in q)
    errors = [e for x in q for e in x["center_errors"]]
    return {
        "poles_per_s": recovered / sum(x["fit_seconds"] for x in q),
        "recall": recovered / poles,
        "precision": sum(x["fitted_matched"] for x in q) / fitted if fitted else 0.0,
        "center_err": statistics.median(errors) if errors else 0.0,  # no pole recovered: recall is 0
    }


def layer_metrics(records, traced_wall: float, untraced_wall: float, extra: dict) -> dict:
    """Per-layer metrics: mean self time per traced operation, and counts."""
    traced = [r for r in records if r["traced"] and "self_times" in r]
    times = mean_over(traced, "self_times")
    counts = mean_over(traced, "counts")
    kernel = mean_over(traced, "trace_counts")
    m = {f"{name}.s": v for name, v in times.items()}
    m.update(counts)
    for name, v in kernel.items():
        if name.endswith("_warnings"):
            m[name] = v
    jv_zeros = kernel.get("jv@billiard.sector_eigenvalues", 0.0)
    m["billiard.jv_evals"] = sum(v for n, v in kernel.items() if n.startswith("jv@"))
    m["billiard.brentq_calls"] = sum(v for n, v in kernel.items() if n.startswith("brentq@"))
    levels = counts.get("billiard.sector_eigenvalues.levels", 0.0)
    m["billiard.jv_per_level"] = jv_zeros / levels if levels else 0.0
    m["bench.self.s"] = statistics.fmean(r["bench_self"] for r in traced) if traced else 0.0
    m["trace.wall_s"] = statistics.fmean(r["wall"] for r in traced) if traced else 0.0
    m["trace.overhead"] = traced_wall / untraced_wall if traced and untraced_wall else 0.0
    m["trace.coverage"] = sum(times.values()) / m["trace.wall_s"] if traced else 0.0
    m.update(extra)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    workloads = import_workloads(root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - PROCESS_START
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    from tracing import Tracer

    tracer = Tracer()
    records = run_ops(wl, tracer, args.seconds, bool(args.trace))
    extra, finish_failures = wl.finish()
    setups = setup_samples(args, own_setup)

    attempted = len(records)
    failed = sum(bool(r["defects"] or r["failures"]) for r in records)
    correct = not finish_failures and not any(r["failures"] for r in records)
    untraced = timing_summary([r["wall"] for r in records if not r["traced"]])
    traced_walls = [r["wall"] for r in records if r["traced"]]
    quality = resonance_quality(records)

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": untraced["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = layer_metrics(
        records, statistics.median(traced_walls) if traced_walls else 0.0, untraced["median"],
        {**{f"billiard.{k}": v for k, v in extra.items()}, **{f"resonance.{k}": v for k, v in quality.items()}},
    )

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else e2e
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}

    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "correct": correct,
        "setup_samples_s": setups,
        "wall_s": untraced,
        "traced_wall_s": traced_walls,
        "end_to_end": e2e,
        "quality": {**extra, **quality},
        "per_layer": per_layer if args.trace else {},
        "failures": finish_failures + [f"op {r['k']}: {f}" for r in records for f in r["failures"]],
        "defects": [f"op {r['k']}: {e}" for r in records for e in r["defects"]],
        "op_walls_s": [r["wall"] for r in records],
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"report-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)

    print_report(report, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_report(report: dict, metrics: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {env['seed']}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']} x{env['blas_threads']} threads")
    w = report["wall_s"]
    pct = w["percentile"]
    print(f"  wall_s        {w['median']:.6g} s  median of {w['samples']} ops; "
          + (f"p{pct['p']:g} {pct['value']:.6g} s" if pct else "no percentile has 10 samples beyond it"))
    print(f"  setup_s       {report['end_to_end']['setup_s']:.6g} s  median of {len(report['setup_samples_s'])} set-ups")
    print(f"  peak_rss_mb   {report['end_to_end']['peak_rss_mb']:.6g} MB")
    print(f"  fail_frac     {report['fail_frac']:.6g}  ({report['failed']} of {report['attempted']} ops)")
    units = {"trunc_err": "spacings", "trunc_err_median": "spacings", "poles_per_s": "1/s",
             "recall": "ratio", "precision": "ratio", "center_err": "gamma"}
    for name, v in report["quality"].items():
        print(f"  {name:<13} {v:.6g} {units.get(name, '')}")
    for name, m in metrics.items():
        if name not in report["end_to_end"]:
            print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    for line in report["failures"][:10] + report["defects"][:4]:
        print("  !", line.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
