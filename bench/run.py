"""fibwalk benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Outputs go to ``.bench_out/``
at the repository root.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the gate results and the environment.

--trace 0 repeats rounds of the workload's CLI calls, with maps on a pool
of nproc workers, for about --seconds, and reports the end-to-end metrics
(medians over rounds of each call's seconds, calibrated to the host's
speed by calibrate.py).  --trace 1 runs one round three times: the maps on
the pool, untraced; every call serially, untraced; every call serially
with spans.  It reports per-layer metrics and writes the spans and a
per-layer table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[mode]}
            for mode in ("end_to_end", "per_layer")}


def import_fibwalk():
    """Import fibwalk from this checkout's src/, or exit with code 2."""
    if not (SRC / "fibwalk" / "__init__.py").is_file():
        print(f"bench: no fibwalk sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fibwalk

    if Path(fibwalk.__file__).resolve().parent != (SRC / "fibwalk").resolve():
        print(f"bench: imported fibwalk from {fibwalk.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return fibwalk


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- environment stamp -----------------------------------------------------------

def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, workers: int) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workers": workers,
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
    }


# --- calls -----------------------------------------------------------------------

class Runner:
    """Calls the CLI in-process, checks each output and keeps the tallies."""

    def __init__(self, cli, outdir: Path, tracer=None):
        self.cli = cli
        self.outdir = outdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.gates: dict[str, list[int]] = {}  # gate -> [passed, failed]

    def call(self, op, tag_dir: str, extra_gate=None):
        """Run one CLI call with --output under tag_dir and apply op's gate,
        then extra_gate, a (name, check) pair, if given."""
        out = self.outdir / tag_dir
        out.mkdir(parents=True, exist_ok=True)
        path = str(out / (op.tag + op.suffix))
        argv = [*op.argv, "--output", path]
        stdout, stderr = io.StringIO(), io.StringIO()
        span = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            if self.tracer is not None:
                self.tracer.run += 1
                span = self.tracer.open("cli.main")
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed call; keep benchmarking
                rc = -1
                traceback.print_exc()
            finally:
                if span is not None:
                    self.tracer.close(span)
            seconds = perf_counter() - t0
        result = workloads.CallResult(rc, path, stderr.getvalue(), seconds)
        self.attempted += 1
        gates = [(("flagship-" if op.info.get("flagship") else "") + op.kind, op.check)]
        if extra_gate is not None:
            gates.append(extra_gate)
        for gate, check in gates:
            error = f"exit code {rc}: {result.stderr.strip()[-500:]}" if rc != 0 \
                else self._check(check, op, result)
            self.gates.setdefault(gate, [0, 0])[error is not None] += 1
            if error is not None:
                self.failures.append(f"{op.tag} ({gate}): {error}")
                break
        return result

    @staticmethod
    def _check(check, op, result):
        try:
            return check(op, result)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("nan")


def end_to_end(ops, seconds: dict[str, float]) -> dict[str, float]:
    """Throughputs and per-call latencies from each call's median seconds."""
    unique = {op.tag: op for op in ops}.values()

    def of(kind):
        return [op for op in unique if op.kind == kind]

    wa, mm = of("winding-average"), of("mcd-map")
    return {
        "windings_per_s": _ratio(sum(op.cells * op.members for op in wa),
                                 sum(seconds[op.tag] for op in wa)),
        "mcd_cells_per_s": _ratio(sum(op.cells for op in mm), sum(seconds[op.tag] for op in mm)),
        **{f"{kind}_query_s": statistics.fmean(seconds[op.tag] for op in of(kind))
           for kind in ("spectrum", "winding", "mcd")},
    }


def measure_setup(args) -> float:
    """Median calibrated seconds from process start until fibwalk is imported
    and the workload's inputs are generated, over SETUP_PROBES fresh
    interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    times, refs = [], [calibrate.reference_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
        refs.append(calibrate.reference_seconds())
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.decode()[-500:]}")
    return statistics.median(calibrate.scale(times, refs))


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_run(args, cli, sizes, outdir: Path) -> tuple[Runner, dict, dict]:
    workers = nproc()
    setup_s = measure_setup(args)
    ops = workloads.build(args.workload, args.seed, sizes, workers, traced=False)
    runner = Runner(cli, outdir)
    tags: list[str] = []
    raw: list[float] = []
    refs = [calibrate.reference_seconds()]
    start = perf_counter()
    # Cycle through the round, at least once, while the next call should
    # still end within --seconds.  The reference kernel runs between calls.
    while True:
        op = ops[len(raw) % len(ops)]
        tags.append(op.tag)
        raw.append(runner.call(op, "timed").seconds)
        refs.append(calibrate.reference_seconds())
        following = ops[len(raw) % len(ops)]
        if len(raw) >= len(ops) and perf_counter() - start + statistics.median(
                r for t, r in zip(tags, raw) if t == following.tag) > args.seconds:
            break
    scaled = calibrate.scale(raw, refs)

    def medians(seconds):
        return {op.tag: statistics.median(s for t, s in zip(tags, seconds) if t == op.tag)
                for op in ops}

    metrics = end_to_end(ops, medians(scaled))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    counts = {kind: sum(op.kind == kind for op in ops) for kind in
              ("winding-average", "mcd-map", "spectrum", "winding", "mcd")}
    extra = {"rounds": round(len(raw) / len(ops), 2), "calls_per_round": counts,
             "cell_statuses": _statuses(ops, outdir / "timed"),
             "uncalibrated": end_to_end(ops, medians(raw)),
             "reference_s_median": statistics.median(statistics.fmean(r) for r in refs),
             "calls": list(zip(tags, raw, scaled)), "refs": refs}
    return runner, metrics, extra


def _statuses(ops, directory: Path) -> dict:
    paths = {op.tag: directory / (op.tag + op.suffix) for op in ops if op.is_map}
    return {tag: workloads.map_status_counts(str(path))
            for tag, path in paths.items() if path.is_file()}


def traced_run(args, cli, sizes, outdir: Path) -> tuple[Runner, dict, dict]:
    workers = nproc()
    pool_ops = [op for op in workloads.build(args.workload, args.seed, sizes, workers,
                                             traced=True) if op.is_map]
    serial_ops = workloads.build(args.workload, args.seed, sizes, 1, traced=True)
    runner = Runner(cli, outdir)

    pool_s = {op.tag: runner.call(op, "pool").seconds for op in pool_ops}
    t0 = perf_counter()
    serial_s = {op.tag: runner.call(op, "serial").seconds for op in serial_ops}
    serial_wall = perf_counter() - t0

    determinism = ("determinism", workloads.same_bytes_as(outdir / "pool"))
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracing.install(tracer)
    try:
        t0 = perf_counter()
        for op in serial_ops:
            runner.call(op, "traced", determinism if op.is_map else None)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_wall - serial_wall
    for kind, map_kind in (("winding", "winding-average"), ("mcd", "mcd-map")):
        tags = [op.tag for op in pool_ops if op.kind == map_kind]
        metrics[f"sweep.{kind}_pool_efficiency"] = _ratio(
            sum(serial_s[t] for t in tags), workers * sum(pool_s[t] for t in tags))
    spans_path = outdir / "spans.csv"
    tracer.write_spans(spans_path)
    table = tracer.table()
    (outdir / "layers.txt").write_text(table)
    extra = {"traced_wall_s": traced_wall, "serial_wall_s": serial_wall,
             "spans_file": str(spans_path), "layer_table": table,
             "cell_statuses": _statuses(serial_ops, outdir / "traced")}
    return runner, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_fibwalk()
    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    if args.setup_probe:
        workloads.build(args.workload, args.seed, sizes, nproc(), traced=False)
        return 0

    from fibwalk import cli

    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    run = traced_run if args.trace else timed_run
    runner, metrics, extra = run(args, cli, sizes, outdir)

    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    env = environment(args, 1 if args.trace else nproc())
    report = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    (outdir / "result.json").write_text(json.dumps(
        {**report, "env": env, "gates": runner.gates, "failures": runner.failures,
         **{k: v for k, v in extra.items() if k != "layer_table"}}, indent=2) + "\n")
    print(f"result file {json.dumps(str(outdir / 'result.json'))}")

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in extra.items():
        if key == "layer_table":
            print(value, end="")
        elif key in ("calls", "refs"):
            continue
        else:
            print(f"{key} {json.dumps(value, sort_keys=True)}")
    for gate, (passed, failed) in sorted(runner.gates.items()):
        print(f"gate {gate}: {passed} passed, {failed} failed")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {runner.attempted}, failed {len(runner.failures)}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
