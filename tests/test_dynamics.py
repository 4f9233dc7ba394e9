from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import dense_unitary

from fibwalk import walk
from fibwalk.cli import main
from fibwalk.dynamics import (
    _displacement,
    mcd_block_series,
    mcd_series,
    mcd_time_average,
    series_average,
)
from fibwalk.errors import BoundaryContaminationError, ComputationError
from fibwalk.sequence import CoinAngles, FibonacciWord, standard_word
from fibwalk.sweep import STATUS_ERROR, GridSpec, sweep_mcd
from fibwalk.walk import (
    Timeframe,
    WalkConfig,
    apply_step,
    localized_state,
)


def uniform_config(n, theta):
    return WalkConfig(n, CoinAngles(theta, theta), FibonacciWord("A" * n, 1))


def fib_config(n, theta_a, theta_b):
    return WalkConfig(n, CoinAngles(theta_a, theta_b), standard_word(n))


def steps_from(config, amps, steps):
    """The amplitude arrays at t = 0..steps, one apply_step per step."""
    states = [amps]
    for _ in range(steps):
        states.append(apply_step(states[-1], config))
    return states


def test_steps_ballistic_right_mover():
    cfg = uniform_config(16, 0.0)
    states = steps_from(cfg, localized_state(cfg, 5, ["R"])[0], 3)
    assert np.allclose(states[-1][1, 8], 1.0)


def test_steps_norm_drift():
    cfg = fib_config(34, 1.2, -0.7)
    states = steps_from(cfg, localized_state(cfg, 17, ["L"])[0], 60)
    drift = max(abs(np.linalg.norm(s) - 1.0) for s in states)
    assert drift < 1e-10


def test_displacement_cases():
    x = np.arange(8) - 3  # origin at site 3
    prob = np.zeros((2, 8))
    prob[0, 3] = 1.0
    assert _displacement(x, prob) == 0.0

    prob = np.zeros((2, 8))
    prob[0, 4] = 1.0  # origin + 1, coin L
    assert _displacement(x, prob) == 2.0

    prob = np.zeros((2, 8))
    prob[[0, 0, 1, 1], [2, 4, 2, 4]] = 0.25  # quarters at origin +-1, both coins
    assert _displacement(x, prob) == 0.0


def test_ballistic_time_average_is_exact():
    cfg = uniform_config(64, 0.0)
    avg = mcd_time_average(cfg, 20)
    assert avg == pytest.approx(-21.0, abs=1e-12)


def test_matrix_free_evolution_matches_dense_powers():
    rng = np.random.default_rng(53)
    for _ in range(5):
        n = int(rng.integers(8, 22))
        cfg = fib_config(n, float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)))
        u = dense_unitary(cfg)
        psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        psi /= np.linalg.norm(psi)
        dense = psi.reshape(-1)
        for amps in steps_from(cfg, psi.T.copy(), 12)[1:]:
            dense = u @ dense
            assert np.max(np.abs(dense.reshape(n, 2) - amps.T)) < 1e-10


def test_light_cone_keeps_probability_off_the_edges():
    cfg = fib_config(64, 1.0, 0.3)
    steps = 64 // 2 - 2
    for coin in ("L", "R"):
        for amps in steps_from(cfg, localized_state(cfg, 32, [coin])[0], steps):
            p = (np.abs(amps) ** 2).sum(axis=0)
            assert p[0] + p[-1] < 1e-12


def test_series_starts_at_zero_and_is_deterministic():
    cfg = fib_config(64, 0.8, 0.2)
    s1 = mcd_series(cfg, 25)
    s2 = mcd_series(cfg, 25)
    assert s1[0] == 0.0
    assert s1.tobytes() == s2.tobytes()
    assert np.all(np.isfinite(s1))


def test_boundary_contamination_rejected():
    cfg = uniform_config(64, 0.0)
    with pytest.raises(BoundaryContaminationError):
        mcd_time_average(cfg, 32)
    with pytest.raises(ValueError):
        mcd_time_average(uniform_config(7, 0.0), 2)


def test_pure_coin_policies():
    cfg = uniform_config(32, 0.0)
    left = mcd_time_average(cfg, 10, coin_policy="L")
    right = mcd_time_average(cfg, 10, coin_policy="R")
    both = mcd_time_average(cfg, 10)
    assert left == pytest.approx(-11.0)
    assert right == pytest.approx(-11.0)
    assert both == pytest.approx(-11.0)
    custom = mcd_time_average(cfg, 10, coin_policy=(1.0, 1.0j))
    assert np.isfinite(custom)
    with pytest.raises(ValueError):
        mcd_time_average(cfg, 10, coin_policy="X")


def test_cesaro_convention_on_ballistic_walk():
    cfg = uniform_config(64, 0.0)
    series = mcd_series(cfg, 20)
    # running means of -2t are -(t+1); their mean is -(T+3)/2... computed directly:
    running = np.cumsum(series[1:]) / np.arange(1, 21)
    assert series_average(series, "cesaro") == pytest.approx(float(np.mean(running)))
    with pytest.raises(ValueError):
        series_average(series, "median")


def test_plateau_value_near_minus_one():
    cfg = fib_config(233, np.pi / 2, 0.0)
    avg = mcd_time_average(cfg, 100)
    assert -1.2 < avg < -0.8


def test_single_step_average_against_dense_oracle():
    # T=1 average from the matrix-free path vs an explicit dense product.
    cfg = uniform_config(21, np.pi / 2)
    u = dense_unitary(cfg)
    x = np.arange(21) - 10
    expected = 0.0
    for coin_col in (0, 1):  # |L>, |R>
        psi = np.zeros(42, dtype=complex)
        psi[2 * 10 + coin_col] = 1.0
        psi = (u @ psi).reshape(21, 2)
        chirality = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
        expected += 2.0 * float(x @ chirality) / 2.0
    value = mcd_time_average(cfg, 1)
    assert abs(value - expected) < 1e-12


def reference_series(config, steps, coin_policy):
    """C(t) stepping each start alone as a complex (2, N) array, one apply_step per step."""
    runs = ["L", "R"] if coin_policy == "basis-average" else [coin_policy]
    center = config.n_sites // 2
    x = np.arange(config.n_sites) - center
    total = np.zeros(steps + 1)
    for coin in runs:
        amps = localized_state(config, center, [coin])[0].astype(np.complex128)
        for t, amps in enumerate(steps_from(config, amps, steps)):
            total[t] += _displacement(x, np.abs(amps) ** 2)
    return total / len(runs)


@pytest.mark.parametrize("n", [8, 64, 233])
@pytest.mark.parametrize("coin_policy", ["L", "R", "basis-average", (1.0, 1.0j)])
@pytest.mark.parametrize(
    "phases", [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)], ids=["real", "mixed-sign", "both-minus"],
)
@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_stacked_series_is_bitwise_the_per_run_loop(timeframe, phases, coin_policy, n):
    cfg = WalkConfig(n, CoinAngles(0.9, -2.3), standard_word(n), *phases, timeframe)
    steps = n // 2 - 1
    series = mcd_series(cfg, steps, coin_policy)
    assert series.tobytes() == reference_series(cfg, steps, coin_policy).tobytes()


def full_width_series(config, steps, coin_policy):
    """C(t) of an apply_step loop over the whole chain, one run at a time.

    C(t) = 2 sum_x x (|L_x|^2 - |R_x|^2) per run, with the runs added in run
    order and then divided by their count.
    """
    runs = ["L", "R"] if coin_policy == "basis-average" else [coin_policy]
    center = config.n_sites // 2
    x = np.arange(config.n_sites, dtype=float) - center
    total = np.zeros(steps + 1)
    for coin in runs:
        amps = localized_state(config, center, [coin])[0]
        for t in range(steps + 1):
            if t:
                amps = walk.apply_step(amps, config)
            prob = np.abs(amps) ** 2
            total[t] += 2.0 * np.dot(x, prob[0] - prob[1])
    return total / len(runs)


BLOCK_COINS = [CoinAngles(0.9, -2.3), CoinAngles(0.2, 1.4), CoinAngles(-2.8, 0.7)]


# n // 2 steps take the cone to site 0 (and, for even n, past site n - 1);
# at n = 21 the walk runs on long after its cone has filled the chain.
@pytest.mark.parametrize("n,steps", [(89, 44), (90, 45), (21, 30)])
@pytest.mark.parametrize("coin_policy", ["basis-average", (0.6, 0.8j)])
@pytest.mark.parametrize("phases", [(-1.0, 1.0), (-1.0, -1.0)], ids=["real", "both-minus"])
@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_light_cone_series_are_bitwise_the_full_width_loop(timeframe, phases, coin_policy,
                                                           n, steps):
    cfg = WalkConfig(n, BLOCK_COINS[0], standard_word(n), *phases, timeframe)
    expected = [full_width_series(replace(cfg, coins=pair), steps, coin_policy)
                for pair in BLOCK_COINS]
    assert mcd_series(cfg, steps, coin_policy).tobytes() == expected[0].tobytes()
    block = mcd_block_series(cfg, BLOCK_COINS, steps, coin_policy)
    assert [series.tobytes() for series in block] == [e.tobytes() for e in expected]


def test_a_drifting_cell_fails_alone_in_its_block(monkeypatch):
    # The identity coin keeps the center-started runs still, so cells with
    # theta = 0 stay exactly normalized; a tolerance of 0 fails the rest.
    monkeypatch.setattr(walk, "NORM_TOLERANCE", 0.0)
    cfg = fib_config(64, 1.0, 0.3)
    block = mcd_block_series(cfg, [CoinAngles(0.0, 0.0), CoinAngles(1.0, 0.3)], 10)
    assert block[0].tobytes() == mcd_series(uniform_config(64, 0.0), 10).tobytes()
    assert isinstance(block[1], ComputationError)
    with pytest.raises(ComputationError) as single:
        mcd_series(cfg, 10)
    assert str(block[1]) == str(single.value)


def test_norm_drift_is_a_computation_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(walk, "NORM_TOLERANCE", -1.0)
    with pytest.raises(ComputationError, match=r"run 0 .* drifted by 0 at step 0"):
        mcd_series(fib_config(64, 1.0, 0.3), 10)

    diagram = sweep_mcd(GridSpec(0.5, 1.0, 0.5, 1.0, resolution=2), 64, 10, workers=1)
    assert diagram.statuses == [STATUS_ERROR] * 4
    assert np.all(np.isnan(diagram.values))

    out_path = tmp_path / "mcd.csv"
    code = main([
        "mcd", "--theta-a", "1.0", "--theta-b", "0.3", "--n", "64", "--steps", "10",
        "--output", str(out_path),
    ])
    assert code == 2
    assert "computation error" in capsys.readouterr().err
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def test_norm_guard_names_the_drifting_run_and_step(monkeypatch):
    step_sites = walk.step_sites

    def leaky_step_sites(amps, *factors):
        return step_sites(amps, *factors) * np.array([1.0, 1.001])[:, None, None]

    monkeypatch.setattr(walk, "step_sites", leaky_step_sites)
    with pytest.raises(ComputationError, match=r"run 1 \(coin 'R'\) drifted by 0\.001 at step 1"):
        mcd_series(fib_config(64, 1.0, 0.3), 10)
