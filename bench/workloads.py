"""Seeded inputs and per-call correctness gates for the benchmark workloads.

Every operation is one call of the fibwalk CLI (``fibwalk.cli.main``) with
an argv list.  The seed fixes the inputs only: grid offsets, parameter
points and terminations.  Each operation carries a gate that reads the
primary output and sidecar back and returns an error text, or None when
the output is correct.

Each workload has a focus and a fixed companion set.  The benchmark prints
every end-to-end metric on every workload, so the companion set measures
the operation kinds the focus lacks, at small fixed sizes that do not
depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FLAGSHIP = (math.pi / 2.0, 0.0)
QUARTET = {"ABA": 2, "AAB": 4, "BAA": 0, "BAB": 0}
ENSEMBLE_SIZE = 4  # the CLI's default ensemble ABA,AAB,BAA,BAB
MAP_STATUSES = {"ok", "ambiguous", "error"}
MAP_HEADER = ["theta_a", "theta_b", "value", "status", "kind", "termination"]
MCD_WINDOW = (-1.2, -0.8)
RESIDUAL_LIMIT = 1e-8
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

WORKLOADS = ("winding-ensemble", "mcd-map", "point-queries")


@dataclass(frozen=True)
class Sizes:
    winding_res: int        # winding-average grid, focus of winding-ensemble
    winding_trace_res: int  # the same map in the traced run
    mcd_res: int            # mcd-map grid, focus of mcd-map
    mcd_trace_res: int
    mcd_map_n: int
    mcd_map_steps: int
    wind_n: int             # recursion cutoff of every winding call
    spectrum_n: int         # point-queries spectrum size
    point_mcd_n: int
    point_mcd_steps: int
    generic_spectra: int
    generic_windings: int
    generic_mcds: int
    # companion set: fixed inputs, small sizes
    comp_winding_res: int
    comp_mcd_res: int
    comp_spectrum_n: int
    comp_windings: int


FULL = Sizes(
    winding_res=3, winding_trace_res=3, mcd_res=9, mcd_trace_res=7,
    mcd_map_n=610, mcd_map_steps=250, wind_n=233,
    spectrum_n=610, point_mcd_n=987, point_mcd_steps=400,
    generic_spectra=2, generic_windings=24, generic_mcds=6,
    comp_winding_res=2, comp_mcd_res=5, comp_spectrum_n=233, comp_windings=2,
)

TINY = Sizes(
    winding_res=2, winding_trace_res=2, mcd_res=2, mcd_trace_res=2,
    mcd_map_n=34, mcd_map_steps=12, wind_n=34,
    spectrum_n=34, point_mcd_n=34, point_mcd_steps=12,
    generic_spectra=1, generic_windings=2, generic_mcds=1,
    comp_winding_res=2, comp_mcd_res=2, comp_spectrum_n=34, comp_windings=1,
)


@dataclass
class Op:
    """One CLI call: its kind, argv (without --output) and correctness gate."""

    kind: str   # winding-average | mcd-map | spectrum | winding | mcd
    tag: str    # output file stem, unique within a workload
    argv: list[str]
    check: Callable[["Op", "CallResult"], str | None]
    cells: int = 0     # map cells
    members: int = 1   # windings per map cell
    info: dict = field(default_factory=dict)

    @property
    def is_map(self) -> bool:
        return self.kind.endswith("map") or self.kind == "winding-average"

    @property
    def suffix(self) -> str:
        return ".json" if self.kind == "winding" else ".csv"


@dataclass
class CallResult:
    rc: int
    output: str      # primary output path
    stderr: str
    seconds: float


# --- gates -------------------------------------------------------------------

def _sidecar(result: CallResult) -> dict:
    with open(result.output + ".meta.json") as fh:
        return json.load(fh)


def _csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_map(op: Op, result: CallResult) -> str | None:
    header, rows = _csv_rows(result.output)
    if header != MAP_HEADER:
        return f"map header {header}"
    if len(rows) != op.cells:
        return f"map has {len(rows)} rows, expected {op.cells}"
    for row in rows:
        if len(row) != len(MAP_HEADER) or row[3] not in MAP_STATUSES:
            return f"bad map row {row}"
        if row[3] == "ok" and not math.isfinite(float(row[2])):
            return f"ok cell with value {row[2]}"
    return None


def map_status_counts(path: str) -> dict[str, int]:
    _, rows = _csv_rows(path)
    counts = dict.fromkeys(sorted(MAP_STATUSES), 0)
    for row in rows:
        counts[row[3]] = counts.get(row[3], 0) + 1
    return counts


def _winding_row(result: CallResult) -> dict:
    with open(result.output) as fh:
        doc = json.load(fh)
    return dict(zip(doc["columns"], doc["rows"][0]))


def check_winding(op: Op, result: CallResult) -> str | None:
    row = _winding_row(result)
    if not isinstance(row["winding"], int) or not isinstance(row["ambiguous"], bool):
        return f"malformed winding row {row}"
    expected = op.info.get("expect")
    if expected is not None and (row["winding"], row["ambiguous"]) != (expected, False):
        return (f"flagship {op.info['termination']}: W={row['winding']} "
                f"ambiguous={row['ambiguous']}, expected W={expected} unambiguous")
    return None


def check_spectrum(op: Op, result: CallResult) -> str | None:
    header, rows = _csv_rows(result.output)
    if len(rows) != 2 * op.info["n"]:
        return f"spectrum has {len(rows)} states, expected {2 * op.info['n']}"
    residual = _sidecar(result)["max_residual"]
    if not residual < RESIDUAL_LIMIT:
        return f"max_residual {residual} not below {RESIDUAL_LIMIT}"
    if op.info.get("flagship"):
        pinning = [row[header.index("pinning")] for row in rows]
        if "zero" not in pinning or "pi" not in pinning:
            return "flagship spectrum lacks a zero mode or a pi mode"
    return None


def check_mcd(op: Op, result: CallResult) -> str | None:
    value = _sidecar(result)["mcd_avg"]
    if not math.isfinite(value):
        return f"mcd_avg {value}"
    if op.info.get("flagship") and not MCD_WINDOW[0] <= value <= MCD_WINDOW[1]:
        return f"flagship mcd_avg {value} outside {list(MCD_WINDOW)}"
    return None


def same_bytes_as(reference_dir):
    """Gate: a map's CSV must equal, byte for byte, the one in reference_dir."""
    def check(op: Op, result: CallResult) -> str | None:
        with open(os.path.join(reference_dir, op.tag + op.suffix), "rb") as fh:
            reference = fh.read()
        with open(result.output, "rb") as fh:
            if fh.read() != reference:
                return f"CSV differs from {reference_dir}"
        return None
    return check


# --- inputs --------------------------------------------------------------------

def _f(x: float) -> str:
    return repr(float(x))


def _grid_args(res: int, shift_a: float, shift_b: float) -> list[str]:
    """Full (theta_a, theta_b) plane, shifted by a fraction of one cell."""
    step = 2.0 * math.pi / res
    lo_a, lo_b = -math.pi + shift_a * step, -math.pi + shift_b * step
    return ["--theta-a-min", _f(lo_a), "--theta-a-max", _f(lo_a + 2.0 * math.pi),
            "--theta-b-min", _f(lo_b), "--theta-b-max", _f(lo_b + 2.0 * math.pi),
            "--resolution", str(res)]


# Grid offsets, in cells.  Cell centers land on the masking lines theta in
# {0, pi} at offset 0 or 1/2, on gamma = 0 at 1/4 or 3/4 (odd resolution)
# or 0 (even), and on the lines theta_a = +-theta_b, where every site
# reflects alike and cells are slowest, when the two offsets differ by an
# integer or sum to one.  The seeded windows keep every cell clear of all of
# these, so the seed moves the cells without changing how many of each sort
# a map holds.
SHIFT_A = (0.10, 0.20)
SHIFT_B = (0.60, 0.70)
COMPANION_SHIFT = (0.15, 0.65)
COMPANION_POINTS = [(1.0, 0.4), (2.5, -1.0), (-2.0, 1.2)]


def _shifts(rng) -> tuple[float, float]:
    return float(rng.uniform(*SHIFT_A)), float(rng.uniform(*SHIFT_B))


def _winding_average(tag, res, shift_a, shift_b, sizes, workers) -> Op:
    argv = ["winding-average", *_grid_args(res, shift_a, shift_b),
            "--n", str(sizes.wind_n), "--workers", str(workers)]
    return Op("winding-average", tag, argv, check_map, cells=res * res,
              members=ENSEMBLE_SIZE)


def _mcd_map(tag, res, shift_a, shift_b, sizes, workers) -> Op:
    argv = ["mcd-map", *_grid_args(res, shift_a, shift_b),
            "--n", str(sizes.mcd_map_n), "--steps", str(sizes.mcd_map_steps),
            "--workers", str(workers)]
    return Op("mcd-map", tag, argv, check_map, cells=res * res)


def _point(theta_a, theta_b) -> list[str]:
    return ["--theta-a", _f(theta_a), "--theta-b", _f(theta_b)]


def _spectrum(tag, theta_a, theta_b, n, flagship=False) -> Op:
    argv = ["spectrum", *_point(theta_a, theta_b), "--n", str(n)]
    return Op("spectrum", tag, argv, check_spectrum, info={"n": n, "flagship": flagship})


def _winding(tag, theta_a, theta_b, n, termination, expect=None) -> Op:
    argv = ["winding", *_point(theta_a, theta_b), "--n", str(n),
            "--termination", termination]
    return Op("winding", tag, argv, check_winding,
              info={"termination": termination, "expect": expect, "flagship": expect is not None})


def _mcd(tag, theta_a, theta_b, n, steps, flagship=False) -> Op:
    argv = ["mcd", *_point(theta_a, theta_b), "--n", str(n), "--steps", str(steps)]
    return Op("mcd", tag, argv, check_mcd, info={"flagship": flagship})


def _generic_points(rng, count: int) -> list[tuple[float, float]]:
    """A seeded shift of a Kronecker lattice: even cover of the plane.

    Points within 0.05 rad of a multiple of pi/2 are nudged off it, so no
    point is masked (|gamma| = 1) or transparent (gamma = 0).
    """
    u = rng.uniform(0.0, 1.0, 2)
    pts = []
    for k in range(count):
        a = (u[0] + (k + 0.5) / count) % 1.0
        b = (u[1] + k * GOLDEN) % 1.0
        pts.append(tuple(_off_axes(-math.pi + 2.0 * math.pi * x) for x in (a, b)))
    return pts


def _off_axes(theta: float) -> float:
    quarter = math.pi / 2.0
    nearest = round(theta / quarter) * quarter
    if abs(theta - nearest) < 0.05:
        theta = nearest + math.copysign(0.05, theta - nearest or 1.0)
    return theta


def flagship_ops(sizes: Sizes, spectrum_n: int) -> list[Op]:
    ta, tb = FLAGSHIP
    ops = [_spectrum("flagship-spectrum", ta, tb, spectrum_n, flagship=True)]
    ops += [_winding(f"flagship-winding-{t}", ta, tb, sizes.wind_n, t, expect=w)
            for t, w in QUARTET.items()]
    ops.append(_mcd("flagship-mcd", ta, tb, sizes.point_mcd_n, sizes.point_mcd_steps,
                    flagship=True))
    return ops


def companion_ops(workload: str, sizes: Sizes, workers: int, map_repeats: int) -> list[Op]:
    """Fixed small calls for the operation kinds a workload's focus lacks,
    with each companion map map_repeats times."""
    ops = []
    if workload != "winding-ensemble":
        ops += map_repeats * [_winding_average("companion-winding-average",
                                               sizes.comp_winding_res, *COMPANION_SHIFT,
                                               sizes, workers)]
    if workload != "mcd-map":
        ops += map_repeats * [_mcd_map("companion-mcd-map", sizes.comp_mcd_res,
                                       *COMPANION_SHIFT, sizes, workers)]
    if workload != "point-queries":
        ops += flagship_ops(sizes, sizes.comp_spectrum_n)
        ops += [_spectrum(f"companion-spectrum-{k}", ta, tb, sizes.comp_spectrum_n)
                for k, (ta, tb) in enumerate(COMPANION_POINTS)]
        ops += [_winding(f"companion-winding-{k}", ta, tb, sizes.wind_n, term)
                for k, ((ta, tb), term) in enumerate(zip(
                    COMPANION_POINTS[:sizes.comp_windings], ("standard", "ABA")))]
        ops += [_mcd(f"companion-mcd-{k}", ta, tb, sizes.point_mcd_n, sizes.point_mcd_steps)
                for k, (ta, tb) in enumerate(COMPANION_POINTS)]
    return ops


def build(workload: str, seed: int, sizes: Sizes, workers: int, traced: bool) -> list[Op]:
    """The calls of one round of a workload, from its seed.

    An Op may appear more than once; its tag identifies it.
    """
    rng = np.random.default_rng(seed)
    if workload == "winding-ensemble":
        res = sizes.winding_trace_res if traced else sizes.winding_res
        focus = [_winding_average("winding-average", res, *_shifts(rng), sizes, workers)]
    elif workload == "mcd-map":
        res = sizes.mcd_trace_res if traced else sizes.mcd_res
        focus = [_mcd_map("mcd-map", res, *_shifts(rng), sizes, workers)]
    elif workload == "point-queries":
        focus = flagship_ops(sizes, sizes.spectrum_n)
        phason = f"phason:{float(rng.uniform(0.05, 0.95)):.6f}"
        terms = ["standard", "ABA", "AAB", "BAA", "BAB", phason]
        terms = [terms[i] for i in rng.permutation(sizes.generic_windings) % len(terms)]
        focus += [_spectrum(f"spectrum-{k}", *p, sizes.spectrum_n)
                  for k, p in enumerate(_generic_points(rng, sizes.generic_spectra))]
        focus += [_winding(f"winding-{k}", *p, sizes.wind_n, t) for k, (p, t) in
                  enumerate(zip(_generic_points(rng, sizes.generic_windings), terms))]
        focus += [_mcd(f"mcd-{k}", *p, sizes.point_mcd_n, sizes.point_mcd_steps)
                  for k, p in enumerate(_generic_points(rng, sizes.generic_mcds))]
        # The long spectrum calls leave room for few timed rounds, so there
        # the companion maps run three times a round.  Shuffling interleaves
        # every kind, so a burst of load from elsewhere hits all of them alike.
        calls = focus + companion_ops(workload, sizes, workers, 1 if traced else 3)
        return [calls[i] for i in rng.permutation(len(calls))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # A companion map is short and its time varies from call to call about as
    # much as the focus map's, so it runs twice a round to get as many samples.
    companions = companion_ops(workload, sizes, workers, 1 if traced else 2)
    if workload == "winding-ensemble" and not traced:
        # The pooled 3x3 winding map varies more from call to call than the
        # uniform MCD map, so it too runs twice a round, half a round apart.
        half = len(companions) // 2
        return focus + companions[:half] + focus + companions[half:]
    return focus + companions
