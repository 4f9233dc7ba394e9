"""The mean chiral displacement (MCD) of walkers started at the lattice center.

The instantaneous MCD of a walker started on site x0 is

    C = 2 * sum_x (x - x0) * (|L_x|^2 - |R_x|^2),

so that C(0) = 0.  The long-time average runs over t = 1..T with T < N/2,
which keeps the light cone of a center-started walker away from the
boundaries.  The default coin policy averages the runs started from |L>
and |R>.

mcd_series steps all runs of a coin policy together as one (runs, 2, N)
array, in real arithmetic when the boundary phases and the start spinors
are real.  C(t) is taken per run on contiguous rows and the runs are added
in run order, so every value is bitwise the one that stepping each run
alone, as a complex (2, N) array through apply_step, gives.
"""

from __future__ import annotations

import math

import numpy as np

from . import walk
from .errors import BoundaryContaminationError, ComputationError
# apply_step and localized_state stay importable from here: bench/tracing.py
# wraps both by name.
from .walk import WalkConfig, apply_step, localized_state  # noqa: F401

BASIS_AVERAGE = "basis-average"


def _displacement(x: np.ndarray, prob: np.ndarray) -> float:
    """2 * sum_x x (|L_x|^2 - |R_x|^2) from the (2, N) coin probabilities."""
    return float(2.0 * np.dot(x, prob[0] - prob[1]))


def _coin_runs(coin_policy) -> list:
    """Start coins of a policy: both basis coins, 'L', 'R', or one spinor."""
    if isinstance(coin_policy, str) and coin_policy not in ("L", "R"):
        if coin_policy != BASIS_AVERAGE:
            raise ValueError(
                f"coin_policy must be '{BASIS_AVERAGE}', 'L', 'R', or a length-2 "
                f"amplitude pair, got {coin_policy!r}"
            )
        return ["L", "R"]
    return [coin_policy]


def mcd_series(config: WalkConfig, steps: int, coin_policy=BASIS_AVERAGE) -> np.ndarray:
    """C(t) for t = 0..steps from the lattice center, averaged over the coin policy.

    Raises ComputationError when a run's norm drifts from 1 by more than
    walk.NORM_TOLERANCE at any step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    runs = _coin_runs(coin_policy)
    n, center = config.n_sites, config.n_sites // 2
    stack = walk.localized_state(config, center, runs)
    step = walk.stepper(config, stack.dtype)
    x = np.arange(n, dtype=float) - center
    total = np.zeros(steps + 1)
    for t in range(steps + 1):
        if t:
            stack = step(stack)
        prob = np.abs(stack) ** 2
        for r, run in enumerate(prob):
            drift = abs(math.sqrt(run.sum()) - 1.0)
            if not drift <= walk.NORM_TOLERANCE:
                raise ComputationError(
                    f"norm of run {r} (coin {runs[r]!r}) drifted by {drift:.3g} "
                    f"at step {t}, beyond {walk.NORM_TOLERANCE:g}"
                )
            total[t] += _displacement(x, run)
    return total / len(runs)


def series_average(series: np.ndarray, convention: str = "mean") -> float:
    """Average of C(t) over t = 1..T: plain mean, or mean of running means."""
    tail = series[1:]
    if convention == "mean":
        return float(np.mean(tail))
    if convention == "cesaro":
        return float(np.mean(np.cumsum(tail) / np.arange(1, len(tail) + 1)))
    raise ValueError(f"convention must be 'mean' or 'cesaro', got {convention!r}")


def check_mcd_window(n_sites: int, steps: int) -> None:
    """Validate an MCD averaging window: n_sites >= 8 and 1 <= steps < n_sites/2.

    The upper bound keeps the light cone of a center-started walker off the
    boundaries; breaking it raises BoundaryContaminationError.
    """
    if n_sites < 8:
        raise ValueError(f"MCD averages need n >= 8 sites, got {n_sites}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps >= n_sites / 2.0:
        raise BoundaryContaminationError(
            f"time window {steps} reaches the boundaries: need steps < "
            f"n/2 = {n_sites / 2:g}"
        )


def mcd_time_average(
    config: WalkConfig,
    steps: int,
    coin_policy=BASIS_AVERAGE,
    convention: str = "mean",
) -> float:
    """Long-time MCD average over t = 1..steps, a window check_mcd_window accepts."""
    check_mcd_window(config.n_sites, steps)
    return series_average(mcd_series(config, steps, coin_policy), convention)
