"""Phase-diagram sweeps over the (theta_a, theta_b) parameter plane.

Grid points sit at cell centers and cells are evaluated in row-major order
with theta_b fastest, in blocks of consecutive cells that run serially or
on a process pool.  Every cell's value is a pure function of its
parameters, bitwise the same whatever its block or the worker count;
per-cell computation failures become cell statuses instead of aborting
the sweep.

An MCD block is one mcd_block_series call, which steps all its cells as
one array; blocks are capped by an amplitude budget.

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
# mcd_time_average stays importable from here: bench/tracing.py wraps it by name.
from .dynamics import (  # noqa: F401
    BASIS_AVERAGE,
    check_mcd_window,
    mcd_block_series,
    mcd_time_average,
    series_average,
)
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
# every cell status, in the order the CLI counts them
STATUSES = (STATUS_OK, STATUS_AMBIGUOUS, STATUS_ERROR)

KIND_MCD = "mcd"
KIND_WINDING = "winding"
KIND_WINDING_AVERAGE = "winding_average"

DEFAULT_RESOLUTION = 101

# Amplitudes per MCD block, at two runs of two coin rows per cell: 13 cells
# at N = 610.  Per cell, blocks of 13 to 52 cells ran within 10% of each
# other (2-core host); smaller blocks leave the pool more to balance.
_MCD_BLOCK_AMPLITUDES = 2 ** 15


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


def _run_blocks(block_fn, cells, workers: int | None, max_block: int | None = None):
    """block_fn over consecutive blocks of cells, its results joined in cell order.

    block_fn maps a list of cells to a list of results.  Without max_block a
    block holds len(cells) // (workers * 8) cells; with it, at most max_block
    cells and at most a worker's share.  A block holds at least one cell.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_block is None:
        size = len(cells) // (workers * 8)
    else:
        size = min(max_block, -(-len(cells) // workers))
    size = max(1, size)
    blocks = [cells[i:i + size] for i in range(0, len(cells), size)]
    if workers <= 1 or len(blocks) < 2:
        return [result for block in blocks for result in block_fn(block)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for done in pool.map(block_fn, blocks) for result in done]


def _each(cell_fn, block):
    return [cell_fn(cell) for cell in block]


def _run_cells(cell_fn, cells, workers: int | None):
    """cell_fn over every cell, one call per cell."""
    return _run_blocks(partial(_each, cell_fn), cells, workers)


def _diagram(grid, kind, termination, results) -> PhaseDiagram:
    return PhaseDiagram(
        grid=grid,
        kind=kind,
        values=np.array([value for value, _ in results]),
        statuses=[status for _, status in results],
        termination=termination,
    )


def _mcd_block(cells, word, steps, coin_policy, convention):
    coins = [CoinAngles(*cell) for cell in cells]
    config = WalkConfig(len(word), coins[0], word)
    return [
        (float("nan"), STATUS_ERROR) if isinstance(series, ComputationError)
        else (series_average(series, convention), STATUS_OK)
        for series in mcd_block_series(config, coins, steps, coin_policy)
    ]


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
    block_fn = partial(
        _mcd_block, word=word, steps=steps,
        coin_policy=coin_policy, convention=convention,
    )
    max_block = max(1, _MCD_BLOCK_AMPLITUDES // (4 * n_sites))
    results = _run_blocks(block_fn, grid.cells(), workers, max_block)
    return _diagram(grid, KIND_MCD, termination_label(termination), results)


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
    results = _run_cells(cell_fn, grid.cells(), workers)
    return _diagram(grid, KIND_WINDING, termination_label(termination), results)


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
    results = _run_cells(cell_fn, grid.cells(), workers)
    return _diagram(grid, KIND_WINDING_AVERAGE, label, results)
