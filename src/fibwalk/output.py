"""Deterministic CSV/JSON writers for the CLI layer.

CSV cells and stdout summaries print floats with 17 significant digits;
JSON documents rely on Python's shortest exact float repr.  Both render a
given value identically on every run, which the determinism guarantees
depend on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np

from .schur import WindingResult
from .spectrum import EdgeMode, QuasienergySpectrum
from .sweep import PhaseDiagram


def fmt(value) -> str:
    """Render one CSV/stdout cell."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v == 0.0:
            v = 0.0  # drop the sign of negative zero
        return f"{v:.17g}"
    return str(value)


def write_table(path, header: list[str], rows: list[list], fmt_style: str) -> None:
    """Write rows as CSV or as a {columns, rows} JSON document."""
    path = Path(path)
    if fmt_style == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
        _write(path, "\n".join(lines) + "\n")
    elif fmt_style == "json":
        doc = {"columns": header, "rows": [[_jsonable(c) for c in row] for row in rows]}
        write_json(path, doc)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt_style!r}")


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return 0.0 if v == 0.0 else v
    return str(value)


def write_json(path, document: dict) -> None:
    _write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


_written: list[Path] | None = None  # the files opened inside all_or_nothing()


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        if _written is not None:
            _written.append(Path(path))
        fh.write(text)


@contextlib.contextmanager
def all_or_nothing():
    """Remove every file written inside the block when the block raises."""
    global _written
    _written = []
    try:
        yield
    except BaseException:
        for path in _written:
            path.unlink(missing_ok=True)
        raise
    finally:
        _written = None


def spectrum_rows(
    spec: QuasienergySpectrum, modes: list[EdgeMode]
) -> tuple[list[str], list[list]]:
    """Per-eigenstate rows: theta_a, theta_b, energy, boundary_weight, pinning."""
    pinning = {m.state_index: m.pinning for m in modes}
    coins = spec.config.coins
    rows = [
        [coins.theta_a, coins.theta_b, float(e), float(w), pinning.get(k, "bulk")]
        for k, (e, w) in enumerate(zip(spec.energies, spec.boundary_weights))
    ]
    return ["theta_a", "theta_b", "energy", "boundary_weight", "pinning"], rows


def mcd_rows(series: np.ndarray) -> tuple[list[str], list[list]]:
    return ["t", "mcd"], [[t, float(c)] for t, c in enumerate(series)]


def trace_rows(phis: np.ndarray, values: np.ndarray) -> tuple[list[str], list[list]]:
    rows = [
        [float(phi), float(f.real), float(f.imag), float(abs(f))]
        for phi, f in zip(phis, values)
    ]
    return ["phi", "re_f", "im_f", "abs_f"], rows


WINDING_COLUMNS = tuple(f.name for f in dataclasses.fields(WindingResult))


def winding_rows(result: WindingResult) -> tuple[list[str], list[list]]:
    """One row of the WindingResult fields, in field order."""
    return list(WINDING_COLUMNS), [list(dataclasses.astuple(result))]


def sweep_rows(diagram: PhaseDiagram) -> tuple[list[str], list[list]]:
    """One row per cell: theta_a, theta_b, value, status, kind, termination."""
    rows = [
        [ta, tb, float(v), status, diagram.kind, diagram.termination]
        for (ta, tb), v, status in zip(
            diagram.grid.cells(), diagram.values, diagram.statuses
        )
    ]
    return ["theta_a", "theta_b", "value", "status", "kind", "termination"], rows

