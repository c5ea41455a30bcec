"""One timed operation of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--pool-dir DIR] [--trace]

The in-memory workloads generate their pool here, SETUPS times (the
set-up, timed apart from the run), so every operation starts from a pool
no earlier run has touched: the flow proxy caches its stats on the pool's
sequences and the box filter edits the pool in place. seq-motion-disk
instead runs `seqal run` on a pool directory run.py wrote, so its peak
RSS is that of the load, not of the generation.

With --trace the worker wraps the module attributes the runner calls and
reports each layer's self time (its span minus the wrapped spans nested in
it) and work counts; runner.self_s is run_s minus the top-level spans.

The last stdout line is one JSON object with the set-up times, run_s,
peak_rss_mb, the loaded pool's summary (seq-motion-disk) and, when
traced, the layers.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from seqal import acquisition, cli, flowproxy, metrics, runner, surrogate  # noqa: E402
from seqal import pool as pool_mod  # noqa: E402
from seqal.synth import generate_pool  # noqa: E402

import workloads  # noqa: E402

# Pool generations per in-memory operation; setup_s is their median.
SETUPS = 3


class Tracer:
    """Spans and counters around module attributes, kept in memory.

    `counts` maps a metric name to a function of (args, result) whose value
    each call adds to that metric."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._child_time = [0.0]  # per open span; [0] is the timed part

    def _count(self, counts: dict | None, args, result) -> None:
        for key, fn in (counts or {}).items():
            self.values[key] += fn(args, result)

    def span(self, module, attr: str, name: str, counts: dict | None = None) -> None:
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = self._child_time.pop()
                self._child_time[-1] += elapsed
                self.values[name + "_s"] += elapsed - nested
            self._count(counts, args, result)
            return result

        setattr(module, attr, wrapped)

    def counter(self, module, attr: str, counts: dict) -> None:
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(counts, args, result)
            return result

        setattr(module, attr, wrapped)

    def top_level_s(self) -> float:
        return self._child_time[0]


def _trace_rows(traces) -> int:
    return sum(
        len(obj)
        for trace in traces.values()
        for table in trace.rounds.values()
        for obj, _ in table.values()
    )


def install(tracer: Tracer, read_paths: list[Path]) -> None:
    last_computations = [flowproxy.computations()]

    def flow_pairs(args, result):
        # compute_flow_stats bumps the counter only when it computes.
        now = flowproxy.computations()
        computed = now > last_computations[0]
        last_computations[0] = now
        return args[0].n_frames - 1 if computed else 0

    def path_read(args, result):
        read_paths.append(Path(args[0]))  # sized after the timed part
        return 1

    def one(args, result):
        return 1

    tracer.span(runner, "load_pool", "pool.load_pool")
    tracer.counter(pool_mod, "_parse_manifest", {"pool.files_read": path_read})
    tracer.counter(pool_mod, "read_pgm", {"pool.files_read": path_read})
    tracer.counter(
        pool_mod,
        "parse_label_file",
        {"pool.files_read": one, "pool.bytes_read": lambda a, r: len(a[1])},
    )
    tracer.span(
        flowproxy,
        "compute_flow_stats",
        "flowproxy.compute_flow_stats",
        {"flowproxy.calls": one, "flowproxy.frame_pairs": flow_pairs},
    )
    tracer.span(surrogate, "pool_feature_table", "surrogate.pool_feature_table")
    tracer.span(
        surrogate,
        "frame_scores",
        "surrogate.frame_scores",
        {"surrogate.frame_scores_calls": one, "surrogate.frames_scored": lambda a, r: a[1].n_frames},
    )
    tracer.span(
        surrogate,
        "predict_test",
        "surrogate.predict_test",
        {
            "surrogate.test_frames": lambda a, r: a[1].n_frames,
            "surrogate.detections": lambda a, r: sum(len(d) for d in r),
        },
    )
    tracer.span(
        surrogate,
        "write_traces",
        "surrogate.write_traces",
        {"surrogate.trace_rows_written": lambda a, r: _trace_rows(a[0])},
    )
    tracer.span(
        surrogate,
        "read_traces",
        "surrogate.read_traces",
        {"surrogate.trace_rows_read": lambda a, r: _trace_rows(r)},
    )
    tracer.span(
        metrics,
        "mean_ap",
        "metrics.mean_ap",
        {
            "metrics.mean_ap_calls": one,
            "metrics.predictions": lambda a, r: sum(len(f) for f in a[0]),
            "metrics.truth_boxes": lambda a, r: sum(len(f) for f in a[1]),
        },
    )
    tracer.span(acquisition, "select", "acquisition.select", {"acquisition.select_calls": one})
    tracer.span(
        acquisition,
        "fit_gmm2",
        "acquisition.fit_gmm2",
        {"acquisition.fit_gmm2_calls": one, "acquisition.gmm_iterations": lambda a, r: r.iterations},
    )
    tracer.span(runner, "filter_small_boxes", "runner.filter_small_boxes")
    tracer.span(runner, "write_outputs", "runner.write_outputs")
    tracer.counter(runner, "write_records", {"runner.rounds": lambda a, r: len(a[0])})


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).
    Not ru_maxrss: after exec that starts at the spawning parent's size,
    which for seq-motion-disk holds the generated pool."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pool-dir", type=Path)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = Tracer()
    read_paths: list[Path] = []
    if args.trace:
        install(tracer, read_paths)
    # Kept in untraced runs too: run.py checks the pool the CLI loaded.
    loaded = []
    load = runner.load_pool

    def capture_load(*a, **k):
        loaded.append(load(*a, **k))
        return loaded[-1]

    runner.load_pool = capture_load

    report: dict = {}
    values = tracer.values
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == workloads.MOTION:
        ini = args.out / "run.ini"
        ini.write_text(workloads.motion_ini(args.pool_dir.resolve(), args.seed))
        outs = [args.out / "run"]
        t0 = perf_counter()
        code = cli.main(["run", "--config", str(ini), "--out", str(outs[0])])
        run_s = perf_counter() - t0
        if code != 0:
            print(f"seqal run exited with {code}", file=sys.stderr)
            return 1
        pool = loaded[0]
        report["loaded"] = {
            "frames": sum(s.n_frames for s in pool.sequences.values()),
            "costs": {sid: s.meta.cost_hours for sid, s in pool.sequences.items()},
        }
    else:
        report["setup_s"] = []
        for _ in range(SETUPS):
            pool = None  # one pool alive at a time, as in a plain run
            t0 = perf_counter()
            pool = generate_pool(workloads.gen_config(args.workload))
            report["setup_s"].append(perf_counter() - t0)
        values["synth.generate_pool_s"] = median(report["setup_s"])
        values.update(workloads.synth_layers(pool))
        if args.workload == workloads.ENTROPY:
            outs = [args.out / "run"]
            t0 = perf_counter()
            runner.run_experiment(
                workloads.entropy_config(args.seed), pool=pool, out_dir=outs[0]
            )
        else:
            outs = [args.out / "live", args.out / "replay"]
            t0 = perf_counter()
            runner.run_experiment(workloads.gauss_config(args.seed), pool=pool, out_dir=outs[0])
            runner.run_experiment(
                workloads.gauss_config(args.seed, replay_from=outs[0]),
                pool=pool,
                out_dir=outs[1],
            )
        run_s = perf_counter() - t0
    report["run_s"] = run_s
    report["peak_rss_mb"] = peak_rss_mb()

    if args.trace:
        values["flowproxy.computations"] = flowproxy.computations()
        values["pool.bytes_read"] += sum(p.stat().st_size for p in read_paths)
        values["runner.output_bytes"] = sum(_dir_bytes(d) for d in outs)
        values["runner.run_s"] = run_s
        values["runner.self_s"] = run_s - tracer.top_level_s()
        report["layers"] = dict(values)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
