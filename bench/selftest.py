"""Fast self-test of the benchmark at tiny sizes (2x2 grids, N=34).

    python3 bench/selftest.py

Checks that:
- every workload, timed and traced, prints as its last line a result with
  exactly the keys the contract names, and every metric BENCHMARK.json
  declares for that mode, with its unit;
- every gate passes on the real program's outputs and fires when the
  output is corrupted, when the CLI exits non-zero, and when a map's bytes
  differ from the pooled run's;
- the calibration scales each call by the kernel times around it and
  leaves the process on the CPUs it started with;
- a directory holding only BENCHMARK.json and the benchmark's files makes
  the benchmark exit non-zero without printing a result.

Exits 0 when every check holds and prints each failure otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SELF_OUT = run.OUT / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def check_printed_results(spec) -> None:
    for workload in workloads.WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            expect(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
            if done.returncode != 0:
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} calls failed")
            metrics = result["metrics"]
            expect(set(metrics) == set(spec[mode]), f"{label}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(metrics) ^ set(spec[mode]))}")
            for name, unit in spec[mode].items():
                m = metrics.get(name, {})
                value = m.get("value")
                expect(m.get("unit") == unit, f"{label}: {name} unit {m.get('unit')} != {unit}")
                expect(isinstance(value, float) and math.isfinite(value),
                       f"{label}: {name} = {value!r}")
                expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines), f"{label}: {name} not printed with its unit")
                if mode == "end_to_end":
                    expect(isinstance(value, float) and value > 0, f"{label}: {name} = {value}")


# --- corruptions, one per gate -------------------------------------------------

def _rewrite_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _rewrite_json(path, edit) -> None:
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def _bump_winding(doc):
    doc["rows"][0][0] += 1


def _flag_ambiguous(doc):
    doc["rows"][0][-1] = True


def _drop_pi_modes(rows):
    col = rows[0].index("pinning")
    return [rows[0]] + [[*r[:col], "bulk" if r[col] == "pi" else r[col], *r[col + 1:]]
                        for r in rows[1:]]


def _sidecar(key, value):
    """A corruption that sets one sidecar entry."""
    def corrupt(path):
        _rewrite_json(path + ".meta.json", lambda doc: doc.__setitem__(key, value))
    return corrupt


def corruptions(op):
    """(label, corrupt(path)) pairs that the op's gate must reject."""
    if op.is_map:
        return [("row dropped", lambda p: _rewrite_csv(p, lambda rows: rows[:-1])),
                ("bad status", lambda p: _rewrite_csv(
                    p, lambda rows: rows[:1] + [[*rows[1][:3], "maybe", *rows[1][4:]]]
                    + rows[2:]))]
    if op.kind == "winding":
        found = [("winding not an integer", lambda p: _rewrite_json(
            p, lambda d: d["rows"][0].__setitem__(0, "two")))]
        if op.info["flagship"]:
            found += [("wrong winding", lambda p: _rewrite_json(p, _bump_winding)),
                      ("ambiguous", lambda p: _rewrite_json(p, _flag_ambiguous))]
        return found
    if op.kind == "spectrum":
        found = [("residual", _sidecar("max_residual", 1e-6)),
                 ("state missing", lambda p: _rewrite_csv(p, lambda rows: rows[:-1]))]
        if op.info["flagship"]:
            found.append(("no pi mode", lambda p: _rewrite_csv(p, _drop_pi_modes)))
        return found
    found = [("not finite", _sidecar("mcd_avg", float("nan")))]
    if op.info["flagship"]:
        found.append(("off plateau", _sidecar("mcd_avg", -0.5)))
    return found


class CorruptingCli:
    """Runs the real CLI, then damages its output before the gate reads it."""

    def __init__(self, real, corrupt=None, exit_code=None):
        self.real, self.corrupt, self.exit_code = real, corrupt, exit_code

    def main(self, argv):
        rc = self.real.main(argv)
        if self.corrupt is not None:
            self.corrupt(argv[argv.index("--output") + 1])
        return rc if self.exit_code is None else self.exit_code


def check_gates() -> None:
    run.import_fibwalk()
    from fibwalk import cli

    shutil.rmtree(SELF_OUT, ignore_errors=True)
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 5, workloads.TINY, 1, traced=True)
        clean = run.Runner(cli, SELF_OUT / workload)
        for op in ops:
            clean.call(op, "clean")
        expect(not clean.failures, f"{workload}: clean outputs rejected: {clean.failures}")
        for op in ops:
            for label, corrupt in corruptions(op):
                runner = run.Runner(CorruptingCli(cli, corrupt), SELF_OUT / workload)
                runner.call(op, "corrupt")
                expect(len(runner.failures) == 1, f"{op.tag}: gate missed '{label}'")
            runner = run.Runner(CorruptingCli(cli, exit_code=2), SELF_OUT / workload)
            runner.call(op, "corrupt")
            expect(len(runner.failures) == 1, f"{op.tag}: exit code 2 not counted as failed")
        maps = [op for op in ops if op.is_map]
        gate = ("determinism", workloads.same_bytes_as(SELF_OUT / workload / "clean"))
        runner = run.Runner(cli, SELF_OUT / workload)
        for op in maps:
            runner.call(op, "again", gate)
        expect(not runner.failures, f"{workload}: determinism gate rejects equal maps")
        damaged = run.Runner(CorruptingCli(cli, lambda p: _rewrite_csv(
            p, lambda rows: rows[:1] + rows[:0:-1])), SELF_OUT / workload)
        for op in maps:
            damaged.call(op, "shuffled", gate)
        expect(len(damaged.failures) == len(maps),
               f"{workload}: determinism gate missed reordered maps")


def check_calibration() -> None:
    cpus = os.sched_getaffinity(0)
    ref = calibrate.reference_seconds()
    expect(len(ref) == len(cpus) + 1 and all(t > 0 for t in ref),
           f"calibration: kernel times {ref}")
    expect(os.sched_getaffinity(0) == cpus, "calibration: CPU affinity not restored")
    nominal = calibrate.NOMINAL_S
    scaled = calibrate.scale([1.0, 3.0], [[nominal] * 3, [nominal] * 3, [2.0 * nominal] * 3])
    expect(all(math.isclose(a, b) for a, b in zip(scaled, [1.0, 2.0])),
           f"calibration: scale gave {scaled}, expected [1.0, 2.0]")


def check_bare_directory() -> None:
    bare = SELF_OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workloads.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0, "bare directory: benchmark exited 0")
    expect("metrics" not in done.stdout, "bare directory: a result was printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_printed_results(run.declared_metrics())
    check_gates()
    check_calibration()
    check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
