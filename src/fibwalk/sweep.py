"""Phase-diagram sweeps over the (theta_a, theta_b) parameter plane.

Grid points sit at cell centers and cells are evaluated in row-major order
with theta_b fastest.  Every cell is a pure function of its parameters, so
results are bitwise identical whether cells run serially or on a process
pool; per-cell computation failures become cell statuses instead of
aborting the sweep.  A termination-averaged cell is one batched Schur
evaluation (schur.winding_numbers): its members are refined together and
share the recursion over their common suffix.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import schur
from .dynamics import BASIS_AVERAGE, check_mcd_window, mcd_time_average
from .errors import ComputationError
from .sequence import (
    CoinAngles,
    DEFAULT_ENSEMBLE,
    Standard,
    Termination,
    angles_for,
    reflection_amplitudes,
    termination_label,
    word_for_termination,
)
from .walk import WalkConfig

STATUS_OK = "ok"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_ERROR = "error"

KIND_MCD = "mcd"
KIND_WINDING = "winding"
KIND_WINDING_AVERAGE = "winding_average"

DEFAULT_RESOLUTION = 101
DISPLAY_CLAMP = -12.0  # presentation hint for MCD maps; raw values are stored


@dataclass(frozen=True)
class GridSpec:
    """Square cell grid over a rectangle of coin angles."""

    theta_a_lo: float = -np.pi
    theta_a_hi: float = np.pi
    theta_b_lo: float = -np.pi
    theta_b_hi: float = np.pi
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        for lo, hi, name in (
            (self.theta_a_lo, self.theta_a_hi, "theta_a"),
            (self.theta_b_lo, self.theta_b_hi, "theta_b"),
        ):
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                raise ValueError(f"{name} range [{lo}, {hi}] is not a finite interval")

    def theta_a_values(self) -> np.ndarray:
        step = (self.theta_a_hi - self.theta_a_lo) / self.resolution
        return self.theta_a_lo + (np.arange(self.resolution) + 0.5) * step

    def theta_b_values(self) -> np.ndarray:
        step = (self.theta_b_hi - self.theta_b_lo) / self.resolution
        return self.theta_b_lo + (np.arange(self.resolution) + 0.5) * step

    def cells(self) -> list[tuple[float, float]]:
        """Cell-center angle pairs, row-major with theta_b fastest."""
        tb = self.theta_b_values()
        return [(float(ta), float(b)) for ta in self.theta_a_values() for b in tb]


@dataclass
class PhaseDiagram:
    """Per-cell values and statuses over a grid, plus a provenance snapshot."""

    grid: GridSpec
    kind: str
    values: np.ndarray
    statuses: list[str]
    provenance: dict


def _run_cells(cell_fn, cells, workers: int | None):
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers <= 1 or len(cells) < 2:
        return [cell_fn(cell) for cell in cells]
    chunk = max(1, len(cells) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(cell_fn, cells, chunksize=chunk))


def _mcd_cell(cell, word, steps, coin_policy, convention):
    theta_a, theta_b = cell
    config = WalkConfig(len(word), CoinAngles(theta_a, theta_b), word)
    try:
        avg = mcd_time_average(config, steps, coin_policy, convention)
    except ComputationError:
        return float("nan"), STATUS_ERROR
    return avg.value, STATUS_OK


def _winding_cell(cell, word, contour):
    theta_a, theta_b = cell
    gammas = reflection_amplitudes(angles_for(word, CoinAngles(theta_a, theta_b)))
    try:
        result = schur.winding_number(schur.SchurParams(gammas=gammas, **contour))
    except ComputationError:
        return float("nan"), STATUS_ERROR
    status = STATUS_AMBIGUOUS if result.ambiguous else STATUS_OK
    return float(result.winding), status


def _winding_average_cell(cell, words, contour):
    coins = CoinAngles(*cell)
    members = [
        schur.SchurParams(gammas=reflection_amplitudes(angles_for(word, coins)), **contour)
        for word in words
    ]
    values = [
        float(result.winding)
        for result in schur.winding_numbers(members)
        if isinstance(result, schur.WindingResult) and not result.ambiguous
    ]
    if not values:
        return float("nan"), STATUS_AMBIGUOUS
    worst = STATUS_OK if len(values) == len(members) else STATUS_AMBIGUOUS
    return float(np.mean(values)), worst


def _contour_settings(steps_per_site, samples, min_modulus, max_refine_depth):
    return {
        "steps_per_site": steps_per_site,
        "samples": samples,
        "min_modulus": min_modulus,
        "max_refine_depth": max_refine_depth,
    }


def sweep_mcd(
    grid: GridSpec,
    n_sites: int,
    steps: int,
    coin_policy=BASIS_AVERAGE,
    termination: Termination = Standard(),
    convention: str = "mean",
    workers: int | None = 1,
) -> PhaseDiagram:
    """Long-time MCD average per grid cell."""
    check_mcd_window(n_sites, steps)
    word = word_for_termination(n_sites, termination)
    cell_fn = partial(
        _mcd_cell, word=word, steps=steps,
        coin_policy=coin_policy, convention=convention,
    )
    results = _run_cells(cell_fn, grid.cells(), workers)
    return PhaseDiagram(
        grid=grid,
        kind=KIND_MCD,
        values=np.array([value for value, _ in results]),
        statuses=[status for _, status in results],
        provenance={
            "n_sites": n_sites,
            "steps": steps,
            "coin_policy": str(coin_policy),
            "convention": convention,
            "termination": termination_label(termination),
            "display_clamp": DISPLAY_CLAMP,
        },
    )


def sweep_winding(
    grid: GridSpec,
    termination: Termination = Standard(),
    n_sites: int = schur.DEFAULT_CUTOFF,
    steps_per_site: int = 2,
    samples: int = schur.SWEEP_SAMPLES,
    min_modulus: float = schur.DEFAULT_MIN_MODULUS,
    max_refine_depth: int = schur.DEFAULT_MAX_REFINE_DEPTH,
    workers: int | None = 1,
) -> PhaseDiagram:
    """Schur winding number per grid cell for one surface termination."""
    word = word_for_termination(n_sites, termination)
    contour = _contour_settings(steps_per_site, samples, min_modulus, max_refine_depth)
    cell_fn = partial(_winding_cell, word=word, contour=contour)
    results = _run_cells(cell_fn, grid.cells(), workers)
    return PhaseDiagram(
        grid=grid,
        kind=KIND_WINDING,
        values=np.array([value for value, _ in results]),
        statuses=[status for _, status in results],
        provenance={
            "n_sites": n_sites,
            "termination": termination_label(termination),
            **contour,
        },
    )


def sweep_winding_average(
    grid: GridSpec,
    ensemble: tuple[Termination, ...] = DEFAULT_ENSEMBLE,
    n_sites: int = schur.DEFAULT_CUTOFF,
    steps_per_site: int = 2,
    samples: int = schur.SWEEP_SAMPLES,
    min_modulus: float = schur.DEFAULT_MIN_MODULUS,
    max_refine_depth: int = schur.DEFAULT_MAX_REFINE_DEPTH,
    workers: int | None = 1,
) -> PhaseDiagram:
    """Mean winding number over a termination ensemble, per grid cell.

    A cell is Ok only when every ensemble member resolved; otherwise it is
    marked ambiguous and the mean runs over the members that did resolve.
    """
    if not ensemble:
        raise ValueError("ensemble must contain at least one termination")
    words = [word_for_termination(n_sites, term) for term in ensemble]
    contour = _contour_settings(steps_per_site, samples, min_modulus, max_refine_depth)
    cell_fn = partial(_winding_average_cell, words=words, contour=contour)
    results = _run_cells(cell_fn, grid.cells(), workers)
    return PhaseDiagram(
        grid=grid,
        kind=KIND_WINDING_AVERAGE,
        values=np.array([value for value, _ in results]),
        statuses=[status for _, status in results],
        provenance={
            "n_sites": n_sites,
            "ensemble": [termination_label(t) for t in ensemble],
            **contour,
        },
    )
