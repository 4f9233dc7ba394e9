"""Wavepacket evolution and the mean chiral displacement (MCD).

The instantaneous MCD of a state is

    C = 2 * sum_x (x - origin) * (|L_x|^2 - |R_x|^2),

measured relative to the walker's starting site so that C(0) = 0.  The
long-time average runs over t = 1..T with T < N/2, which keeps the
light cone of a center-started walker away from the boundaries.  The
default coin policy averages the runs started from |L> and |R>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContaminationError
from .walk import WalkConfig, WalkerState, apply_step, localized_state

BASIS_AVERAGE = "basis-average"


@dataclass
class McdSeries:
    """C(t) for t = 0..T from a walker started at the lattice center."""

    values: np.ndarray
    config: WalkConfig
    initial_coin: str


@dataclass(frozen=True)
class McdAverage:
    value: float
    window: int
    n_sites: int


def evolve(config: WalkConfig, initial: WalkerState, steps: int) -> list[WalkerState]:
    """States at t = 0..steps, matrix-free."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [initial]
    for _ in range(steps):
        states.append(apply_step(states[-1], config))
    return states


def mcd_instant(state: WalkerState) -> float:
    """Chirality-weighted displacement of one state."""
    x = np.arange(state.n_sites) - state.origin
    chirality = np.abs(state.amplitudes[:, 0]) ** 2 - np.abs(state.amplitudes[:, 1]) ** 2
    return float(2.0 * np.dot(x, chirality))


def _coin_runs(coin_policy) -> tuple[list, str]:
    if isinstance(coin_policy, str):
        if coin_policy == BASIS_AVERAGE:
            return ["L", "R"], BASIS_AVERAGE
        if coin_policy in ("L", "R"):
            return [coin_policy], coin_policy
        raise ValueError(
            f"coin_policy must be '{BASIS_AVERAGE}', 'L', 'R', or a length-2 "
            f"amplitude pair, got {coin_policy!r}"
        )
    spinor = np.asarray(coin_policy, dtype=np.complex128)
    return [spinor], f"custom({spinor[0]!r},{spinor[1]!r})"


def mcd_series(config: WalkConfig, steps: int, coin_policy=BASIS_AVERAGE) -> McdSeries:
    """MCD time series from the lattice center, averaged over the coin policy."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    runs, label = _coin_runs(coin_policy)
    center = config.n_sites // 2
    total = np.zeros(steps + 1)
    for coin in runs:
        state = localized_state(config.n_sites, center, coin)
        total[0] += mcd_instant(state)
        for t in range(1, steps + 1):
            state = apply_step(state, config)
            total[t] += mcd_instant(state)
    return McdSeries(total / len(runs), config, label)


def series_average(series: McdSeries, convention: str = "mean") -> float:
    """Average of C(t) over t = 1..T: plain mean, or mean of running means."""
    tail = series.values[1:]
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
) -> McdAverage:
    """Long-time MCD average over t = 1..steps, a window check_mcd_window accepts."""
    check_mcd_window(config.n_sites, steps)
    series = mcd_series(config, steps, coin_policy)
    return McdAverage(
        value=series_average(series, convention),
        window=steps,
        n_sites=config.n_sites,
    )
