"""Spans around calls into fibwalk's public functions, and per-layer totals.

A Tracer replaces a public name at the attribute its caller looks up (for
example ``fibwalk.dynamics.apply_step``, which ``mcd_series`` calls) with a
wrapper that records a span: name, start, end, parent span and run id.  The
run id is the index of the CLI call that caused the span.  Spans stay in
memory until ``write_spans``.  ``uninstall`` puts every original back, so
untraced passes in the same process run the unmodified code.

Span names are ``<layer>.<function>``; the layer is the fibwalk module that
owns the function.  A span's self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import os
import statistics
from time import perf_counter

LAYERS = ("cli", "sequence", "walk", "dynamics", "spectrum", "schur", "sweep", "output")

# Span indices of one record: name, start, end, parent, run.
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counts: dict[str, float] = {}
        self.cell_times: dict[str, list[float]] = {"winding": [], "mcd": []}
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def children(self, idx: int) -> list[list]:
        return [s for s in self.spans[idx + 1:] if s[PARENT] == idx]

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s[NAME]] = out.get(s[NAME], 0) + 1
        return out

    def outermost_time(self, layer: str) -> float:
        """Wall time of spans of a layer whose parent is in another layer."""
        total = 0.0
        for s in self.spans:
            if _layer(s[NAME]) != layer:
                continue
            if s[PARENT] >= 0 and _layer(self.spans[s[PARENT]][NAME]) == layer:
                continue
            total += s[END] - s[START]
        return total

    def table(self) -> str:
        """Self time and call count per span name, grouped by layer."""
        self_t, calls = self.self_times(), self.calls()
        lines = [f"{'span':34s} {'calls':>9s} {'self_s':>11s}"]
        for layer in LAYERS:
            for name in sorted(n for n in self_t if _layer(n) == layer):
                lines.append(f"{name:34s} {calls[name]:9d} {self_t[name]:11.6f}")
        return "\n".join(lines) + "\n"

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(f"{s[RUN]},{i},{s[PARENT]},{s[NAME]},"
                         f"{s[START] - t0:.9f},{s[END] - t0:.9f}\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# --- result hooks: counts read from what the public functions return ---------

def _on_winding(tracer, idx, args, kwargs, result):
    tracer.count("schur.windings")
    tracer.count("schur.refine_depth_sum", result.refine_depth_used)
    tracer.counts["schur.refine_depth_max"] = max(
        tracer.counts.get("schur.refine_depth_max", 0.0), float(result.refine_depth_used))
    tracer.count("schur.ambiguous", int(result.ambiguous))


def _on_spectrum(tracer, idx, args, kwargs, result):
    tracer.count("spectrum.states", len(result.energies))
    tracer.counts["spectrum.max_residual"] = max(
        tracer.counts.get("spectrum.max_residual", 0.0), result.max_residual)


def _on_step(tracer, idx, args, kwargs, result):
    tracer.count("walk.steps")
    tracer.count("walk.site_steps", result.n_sites)


def _on_sweep(tracer, idx, args, kwargs, result):
    for status in result.statuses:
        tracer.count(f"sweep.cells_{status}")
    kids = tracer.children(idx)
    if result.kind == "mcd":
        # One mcd_time_average call per cell.
        tracer.cell_times["mcd"].extend(
            s[END] - s[START] for s in kids if s[NAME] == "dynamics.mcd_time_average")
        return
    # A winding cell runs one member per termination; each member starts
    # with angles_for, so children are grouped into cells by that marker.
    members = len(kwargs.get("ensemble", ())) or 1
    cells: list[float] = []
    member = -1
    for s in kids:
        if s[NAME] == "sequence.angles_for":
            member += 1
            if member % members == 0:
                cells.append(0.0)
        if member >= 0:
            cells[-1] += s[END] - s[START]
    tracer.cell_times["winding"].extend(cells)


def _on_write_table(tracer, idx, args, kwargs, result):
    # In json format write_table delegates to write_json, which counts it.
    if (args[3] if len(args) > 3 else kwargs.get("fmt_style")) == "csv":
        tracer.count("output.bytes", os.path.getsize(args[0]))


def _on_write_json(tracer, idx, args, kwargs, result):
    tracer.count("output.bytes", os.path.getsize(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap the public names each layer is entered through."""
    from fibwalk import cli, dynamics, output, schur, spectrum, sweep, walk

    seq = "sequence."
    for owner, names in (
        (cli, ("parse_termination", "word_for_termination", "phason_ensemble")),
        (schur, ("word_for_termination", "angles_for", "reflection_amplitudes")),
        (sweep, ("word_for_termination", "angles_for", "reflection_amplitudes",
                 "termination_label")),
        (walk, ("angles_for",)),
    ):
        for attr in names:
            tracer.wrap(owner, attr, seq + attr)

    tracer.wrap(dynamics, "apply_step", "walk.apply_step", _on_step)
    tracer.wrap(dynamics, "localized_state", "walk.localized_state")
    tracer.wrap(spectrum, "build_unitary", "walk.build_unitary")

    for owner, attr in ((cli, "mcd_series"), (cli, "series_average"),
                        (sweep, "mcd_time_average"), (dynamics, "mcd_series"),
                        (dynamics, "series_average")):
        tracer.wrap(owner, attr, "dynamics." + attr)

    tracer.wrap(cli, "quasienergies", "spectrum.quasienergies", _on_spectrum)
    for attr in ("find_gaps", "classify_edge_modes", "gap_labels"):
        tracer.wrap(cli, attr, "spectrum.analysis")

    tracer.wrap(schur, "winding_number", "schur.winding_number", _on_winding)
    tracer.wrap(schur, "reflection_params", "schur.reflection_params")
    tracer.wrap(schur, "SchurParams", "schur.params")

    for attr in ("sweep_mcd", "sweep_winding", "sweep_winding_average"):
        tracer.wrap(sweep, attr, "sweep." + attr, _on_sweep)

    tracer.wrap(output, "write_table", "output.write_table", _on_write_table)
    tracer.wrap(output, "write_json", "output.write_json", _on_write_json)
    for attr in ("spectrum_rows", "mcd_rows", "winding_rows", "sweep_rows"):
        tracer.wrap(output, attr, "output.rows")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts from a finished traced pass."""
    self_t = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in self_t.items() if _layer(n) == layer)
    m["cli.calls"] = calls.get("cli.main", 0)
    m["sequence.calls"] = sum(n for k, n in calls.items() if _layer(k) == "sequence")

    step_s = self_t.get("walk.apply_step", 0.0)
    steps = c.get("walk.steps", 0.0)
    m["walk.apply_step.self_s"] = step_s
    m["walk.build_unitary.self_s"] = self_t.get("walk.build_unitary", 0.0)
    m["walk.steps"] = steps
    m["walk.step_us"] = 1e6 * step_s / steps if steps else 0.0
    dyn_wall = tracer.outermost_time("dynamics")
    m["dynamics.site_steps_per_s"] = c.get("walk.site_steps", 0.0) / dyn_wall if dyn_wall else 0.0

    m["spectrum.quasienergies.self_s"] = self_t.get("spectrum.quasienergies", 0.0)
    m["spectrum.analysis.self_s"] = self_t.get("spectrum.analysis", 0.0)
    m["spectrum.states"] = c.get("spectrum.states", 0.0)
    m["spectrum.max_residual"] = c.get("spectrum.max_residual", 0.0)

    windings = c.get("schur.windings", 0.0)
    m["schur.winding_number.self_s"] = self_t.get("schur.winding_number", 0.0)
    m["schur.params.self_s"] = self_t.get("schur.params", 0.0)
    m["schur.windings"] = windings
    depth_sum = c.get("schur.refine_depth_sum", 0.0)
    m["schur.refine_depth_mean"] = depth_sum / windings if windings else 0.0
    m["schur.refine_depth_max"] = c.get("schur.refine_depth_max", 0.0)
    m["schur.ambiguous"] = c.get("schur.ambiguous", 0.0)

    for kind in ("winding", "mcd"):
        cells = tracer.cell_times[kind]
        m[f"sweep.{kind}_cell_s_p50"] = _median(cells)
        m[f"sweep.{kind}_cell_s_max"] = max(cells, default=0.0)
    for status in ("ok", "ambiguous", "error"):
        m[f"sweep.cells_{status}"] = c.get(f"sweep.cells_{status}", 0.0)

    m["output.write_table.self_s"] = self_t.get("output.write_table", 0.0)
    m["output.write_json.self_s"] = self_t.get("output.write_json", 0.0)
    m["output.bytes"] = c.get("output.bytes", 0.0)
    m["trace.spans"] = len(tracer.spans)
    return m
