"""Benchmark for seqal: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is seq-entropy-eval, sing-gauss-replay, seq-motion-disk, or all (the
three in turn). Run it from anywhere; it uses the package under src/ of
the checkout that holds it. See perfbench/README.md for the workloads and
what each metric should move.

Each operation runs in a fresh worker process (perfbench/worker.py) on a
pool no earlier operation touched; new operations start until S seconds
have passed. With --trace 0 the run prints setup_s, run_s and peak_rss_mb,
the medians over its operations; with --trace 1 it prints the per-layer
metrics instead, medians as well. Either way it checks every workload's
outputs (perfbench/checks.py), prints the SHA-256 of records.csv and
ledger.csv and the host's CPU steal and load average over the run, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
It exits 1 when a check fails and 2 when there is no src/seqal to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 150
MOTION_SETUPS = 3

PER_LAYER = {
    "synth.generate_pool_s": "s",
    "synth.frames": "count",
    "synth.raster_mb": "MB",
    "pool.write_pool_s": "s",
    "pool.files_written": "count",
    "pool.bytes_written": "bytes",
    "pool.load_pool_s": "s",
    "pool.files_read": "count",
    "pool.bytes_read": "bytes",
    "flowproxy.compute_flow_stats_s": "s",
    "flowproxy.calls": "count",
    "flowproxy.computations": "count",
    "flowproxy.frame_pairs": "count",
    "surrogate.pool_feature_table_s": "s",
    "surrogate.frame_scores_s": "s",
    "surrogate.frame_scores_calls": "count",
    "surrogate.frames_scored": "count",
    "surrogate.predict_test_s": "s",
    "surrogate.test_frames": "count",
    "surrogate.detections": "count",
    "surrogate.write_traces_s": "s",
    "surrogate.trace_rows_written": "count",
    "surrogate.read_traces_s": "s",
    "surrogate.trace_rows_read": "count",
    "metrics.mean_ap_s": "s",
    "metrics.mean_ap_calls": "count",
    "metrics.predictions": "count",
    "metrics.truth_boxes": "count",
    "acquisition.select_s": "s",
    "acquisition.select_calls": "count",
    "acquisition.fit_gmm2_s": "s",
    "acquisition.fit_gmm2_calls": "count",
    "acquisition.gmm_iterations": "count",
    "runner.filter_small_boxes_s": "s",
    "runner.write_outputs_s": "s",
    "runner.output_bytes": "bytes",
    "runner.rounds": "count",
    "runner.self_s": "s",
    "runner.run_s": "s",
}


def host_sample() -> tuple[list[int], str] | None:
    """CPU tick counters and load averages, or None off Linux."""
    try:
        ticks = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:9]]
        load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except (OSError, ValueError):
        return None
    return ticks, load


def host_line(before, after) -> str:
    if before is None or after is None:
        return "host: /proc/stat unreadable, no steal or load figures"
    delta = [b - a for a, b in zip(before[0], after[0])]
    steal = 100.0 * delta[7] / max(sum(delta), 1)
    return f"host: CPU steal {steal:.2f}% of ticks over the run; loadavg {before[1]} -> {after[1]}"


def run_ops(name: str, seed: int, seconds: int, trace: bool, work: Path, pool_dir=None):
    """Start operations until `seconds` have passed; returns the reports of
    those that finished and the number attempted."""
    reports, attempted = [], 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        out = work / f"op{attempted}"
        attempted += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name]
        cmd += ["--seed", str(seed), "--out", str(out)]
        cmd += ["--pool-dir", str(pool_dir)] if pool_dir else []
        cmd += ["--trace"] if trace else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(f"{name} operation {attempted} failed:\n{proc.stderr}")
            continue
        report = json.loads(proc.stdout.splitlines()[-1])
        report["out"] = out
        reports.append(report)
    return reports, attempted


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from seqal.pool import write_pool
    from seqal.synth import generate_pool

    import checks
    import workloads

    work = WORK / name
    work.mkdir(parents=True)
    setup_layers = {}
    pool_dir = None
    if name == workloads.MOTION:
        pool_dir = work / "pool"
        gen_s, write_s = [], []
        for _ in range(MOTION_SETUPS):
            shutil.rmtree(pool_dir, ignore_errors=True)
            t0 = perf_counter()
            pool = generate_pool(workloads.gen_config(name))
            t1 = perf_counter()
            write_pool(pool, pool_dir)
            gen_s.append(t1 - t0)
            write_s.append(perf_counter() - t1)
        files = [p for p in pool_dir.rglob("*") if p.is_file()]
        setup_layers = {
            **workloads.synth_layers(pool),
            "synth.generate_pool_s": median(gen_s),
            "pool.write_pool_s": median(write_s),
            "pool.files_written": len(files),
            "pool.bytes_written": sum(p.stat().st_size for p in files),
        }
        setup_s = median(g + w for g, w in zip(gen_s, write_s))

    reports, attempted = run_ops(name, seed, seconds, trace, work, pool_dir)
    result = {
        "attempted": attempted,
        "failed": attempted - len(reports),
        "errors": [],
        "run_s": [r["run_s"] for r in reports],
    }
    if not reports:
        result["errors"].append("no operation finished")
        return result

    first = reports[0]["out"]
    outputs = {
        workloads.ENTROPY: first / "run",
        workloads.GAUSS: first / "live",
        workloads.MOTION: first / "run",
    }[name]
    digests = {f: sha256(outputs / f) for f in ("records.csv", "ledger.csv")}
    for rep in reports[1:]:
        for f, digest in digests.items():
            if sha256(rep["out"] / outputs.name / f) != digest:
                result["errors"].append(f"{f} of {rep['out'].name} differs from {first.name}'s")
    result["sha256"] = digests

    if name == workloads.ENTROPY:
        pool = generate_pool(workloads.gen_config(name))
        result["errors"] += checks.check_entropy(pool, seed, outputs)
    elif name == workloads.GAUSS:
        pool = generate_pool(workloads.gen_config(name))
        result["errors"] += checks.check_gauss(pool, seed, outputs, first / "replay")
    else:
        result["errors"] += checks.check_motion(pool, seed, outputs, reports[0]["loaded"])
        if any(r["loaded"] != reports[0]["loaded"] for r in reports):
            result["errors"].append("the operations loaded different pools")

    if trace:
        layers = [{**dict.fromkeys(PER_LAYER, 0.0), **r["layers"], **setup_layers} for r in reports]
        result["metrics"] = {
            key: (median(layer[key] for layer in layers), unit) for key, unit in PER_LAYER.items()
        }
    else:
        if name != workloads.MOTION:
            setup_s = median(t for r in reports for t in r["setup_s"])
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "run_s": (median(r["run_s"] for r in reports), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in reports), "MB"),
        }
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "seqal" / "__init__.py").is_file():
        print(f"perfbench: no src/seqal under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    before = host_sample()
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    after = host_sample()

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else name + "."
        print(f"== {name}: seed {args.seed}, {res['attempted']} operations, {res['failed']} failed")
        for key, (value, unit) in res.get("metrics", {}).items():
            print(f"{prefix}{key}: {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        if res.get("run_s"):
            print("run_s per operation: " + " ".join(f"{t:.3f}" for t in res["run_s"]))
        for f, digest in res.get("sha256", {}).items():
            print(f"sha256 {f}: {digest}")
        for err in res["errors"]:
            print(f"CHECK FAILED: {err}")
    print(host_line(before, after))
    correct = not any(res["errors"] for res in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
