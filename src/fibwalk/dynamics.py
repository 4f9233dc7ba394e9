"""The mean chiral displacement (MCD) of walkers started at the lattice center.

The instantaneous MCD of a walker started on site x0 is

    C = 2 * sum_x (x - x0) * (|L_x|^2 - |R_x|^2),

so that C(0) = 0.  The long-time average runs over t = 1..T with T < N/2,
which keeps the light cone of a center-started walker away from the
boundaries.  The default coin policy averages the runs started from |L>
and |R>.

Every MCD runs one stepping loop over a (cells, runs, 2, N) stack: cells
share the word, the boundary phases, the timeframe and the start site and
differ only in their coin angles.  mcd_block_series steps a block of
cells, and mcd_series is its one-cell case.  Only the light cone is
stepped: at step t, only sites center - t .. center + t can be non-zero.
The stack is real when the boundary phases and the start spinors are
real.  C(t) is taken per run with full-length reductions and the runs are
added in run order, so every value is bitwise the one that stepping each
run alone, as a complex (2, N) array through apply_step, gives, whatever
the block.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import walk
from .errors import BoundaryContaminationError, ComputationError
from .sequence import CoinAngles
# apply_step and localized_state stay importable from here: bench/tracing.py
# wraps both by name.
from .walk import WalkConfig, apply_step, localized_state  # noqa: F401

BASIS_AVERAGE = "basis-average"


def _displacement(x: np.ndarray, prob: np.ndarray):
    """2 * sum_x x (|L_x|^2 - |R_x|^2) from (..., 2, N) coin probabilities.

    A stack goes in as (cells, runs, 2, N): np.dot on a 3-D operand takes
    one dot product per run, bitwise the np.dot of a single run.  A 2-D
    operand would go through gemv, which rounds differently.
    """
    return 2.0 * np.dot(prob[..., 0, :] - prob[..., 1, :], x)


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


def _series(stack: np.ndarray, factors, timeframe, steps: int, runs: list) -> list:
    """C(t) for t = 0..steps per cell of a (cells, runs, 2, N) stack at t = 0.

    The stack starts at the center site and steps inside its light cone:
    at step t only sites center - t .. center + t are stepped, with the
    per-cell coin factors (cells, 1, N) of factors = (cos, sin, alpha_l,
    alpha_r) sliced to match; every other site is still exactly 0.  A cell
    whose run norm drifts from 1 by more than walk.NORM_TOLERANCE gets a
    ComputationError naming its first drifting run and step instead of its
    series.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    cells, _, _, n = stack.shape
    c, s, alpha_l, alpha_r = factors
    center = n // 2
    x = np.arange(n, dtype=float) - center
    disp = np.empty((steps + 1, cells, len(runs)))
    norm2 = np.empty_like(disp)
    for t in range(steps + 1):
        if t:
            lo, hi = max(center - t, 0), min(center + t + 1, n)
            stack[..., lo:hi] = walk.step_sites(
                stack[..., lo:hi], c[..., lo:hi], s[..., lo:hi], alpha_l, alpha_r, timeframe
            )
        prob = np.abs(stack) ** 2
        norm2[t] = prob.reshape(cells, len(runs), -1).sum(axis=-1)
        disp[t] = _displacement(x, prob)
    total = np.zeros((cells, steps + 1))
    for r in range(len(runs)):  # 0.0 + C_0 + C_1 + ...: the runs in run order
        total += disp[:, :, r].T
    series = total / len(runs)
    drift = np.abs(np.sqrt(norm2) - 1.0)
    drifted = ~(drift <= walk.NORM_TOLERANCE)
    out = []
    for cell in range(cells):
        if not drifted[:, cell].any():
            out.append(series[cell])
            continue
        t, r = divmod(int(drifted[:, cell].argmax()), len(runs))
        out.append(ComputationError(
            f"norm of run {r} (coin {runs[r]!r}) drifted by {drift[t, cell, r]:.3g} "
            f"at step {t}, beyond {walk.NORM_TOLERANCE:g}"
        ))
    return out


def mcd_series(config: WalkConfig, steps: int, coin_policy=BASIS_AVERAGE) -> np.ndarray:
    """C(t) for t = 0..steps from the lattice center, averaged over the coin policy.

    The one-cell case of mcd_block_series.  Raises ComputationError when a
    run's norm drifts from 1 by more than walk.NORM_TOLERANCE at any step.
    """
    [series] = mcd_block_series(config, [config.coins], steps, coin_policy)
    if isinstance(series, ComputationError):
        raise series
    return series


def mcd_block_series(
    config: WalkConfig, coins: list[CoinAngles], steps: int, coin_policy=BASIS_AVERAGE
) -> list:
    """mcd_series of each cell of a block, stepped together as one array.

    config fixes the word, the boundary phases and the timeframe; each coin
    pair in coins is one cell.  A cell whose norm drifts gets the
    ComputationError mcd_series would raise, in place of its series.
    """
    runs = _coin_runs(coin_policy)
    start = walk.localized_state(config, config.n_sites // 2, runs)
    stack = np.repeat(start[None], len(coins), axis=0)
    factors = [walk.step_factors(replace(config, coins=pair), stack.dtype) for pair in coins]
    c = np.stack([f[0] for f in factors])[:, None]
    s = np.stack([f[1] for f in factors])[:, None]
    return _series(stack, (c, s, *factors[0][2:]), config.timeframe, steps, runs)


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
