"""Phase-diagram sweeps over the (theta_a, theta_b) parameter plane.

Grid points sit at cell centers and cells are evaluated in row-major order
with theta_b fastest.  Every cell is a pure function of its parameters, so
results are bitwise identical whether cells run serially or on a process
pool; per-cell computation failures become cell statuses instead of
aborting the sweep.

Both winding maps run one cell function: a cell is one batched Schur
evaluation (schur.winding_numbers) of its members -- one termination for
a winding map, the ensemble for an average -- which are refined together
and share the recursion over their common suffix.  Each member becomes a
(value, status) pair by one rule, and a reduction turns the pairs into
the cell's pair: a winding map keeps its single member's, an average
takes the mean of the resolved members.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

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
    """Per-cell values and statuses over a grid."""

    grid: GridSpec
    kind: str
    values: np.ndarray
    statuses: list[str]
    termination: str  # the termination's label, or the ensemble's joined by '+'


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


def _sweep(grid, kind, termination, cell_fn, workers) -> PhaseDiagram:
    results = _run_cells(cell_fn, grid.cells(), workers)
    return PhaseDiagram(
        grid=grid,
        kind=kind,
        values=np.array([value for value, _ in results]),
        statuses=[status for _, status in results],
        termination=termination,
    )


def _mcd_cell(cell, word, steps, coin_policy, convention):
    theta_a, theta_b = cell
    config = WalkConfig(len(word), CoinAngles(theta_a, theta_b), word)
    try:
        avg = mcd_time_average(config, steps, coin_policy, convention)
    except ComputationError:
        return float("nan"), STATUS_ERROR
    return avg.value, STATUS_OK


def _member(result) -> tuple[float, str]:
    """(value, status) of one member's WindingResult or ComputationError."""
    if isinstance(result, ComputationError):
        return float("nan"), STATUS_ERROR
    return float(result.winding), STATUS_AMBIGUOUS if result.ambiguous else STATUS_OK


def _mean(members: list[tuple[float, str]]) -> tuple[float, str]:
    """Mean over the resolved members: ok when all resolved, error when all
    failed, ambiguous otherwise."""
    if all(status == STATUS_ERROR for _, status in members):
        return float("nan"), STATUS_ERROR
    values = [value for value, status in members if status == STATUS_OK]
    status = STATUS_OK if len(values) == len(members) else STATUS_AMBIGUOUS
    return (float(np.mean(values)) if values else float("nan")), status


def _winding_cell(cell, words, reduce, **contour):
    coins = CoinAngles(*cell)
    members = [
        schur.SchurParams(gammas=reflection_amplitudes(angles_for(word, coins)), **contour)
        for word in words
    ]
    return reduce([_member(result) for result in schur.winding_numbers(members)])


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
    return _sweep(grid, KIND_MCD, termination_label(termination), cell_fn, workers)


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
    cell_fn = partial(_winding_cell, words=[word], reduce=itemgetter(0), **contour)
    return _sweep(grid, KIND_WINDING, termination_label(termination), cell_fn, workers)


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

    A cell is ok only when every ensemble member resolved and error only
    when every member failed; otherwise it is ambiguous and the mean runs
    over the members that did resolve.
    """
    if not ensemble:
        raise ValueError("ensemble must contain at least one termination")
    words = [word_for_termination(n_sites, term) for term in ensemble]
    contour = _contour_settings(steps_per_site, samples, min_modulus, max_refine_depth)
    cell_fn = partial(_winding_cell, words=words, reduce=_mean, **contour)
    label = "+".join(termination_label(term) for term in ensemble)
    return _sweep(grid, KIND_WINDING_AVERAGE, label, cell_fn, workers)
