import os
from functools import partial

import numpy as np
import pytest

from fibwalk import walk
from fibwalk.dynamics import mcd_time_average
from fibwalk.sequence import (
    DEFAULT_ENSEMBLE,
    CoinAngles,
    Phason,
    PrefixOverride,
    Standard,
    phason_ensemble,
    standard_word,
    word_for_termination,
)
from fibwalk.schur import (
    DEFAULT_CUTOFF,
    DEFAULT_MAX_REFINE_DEPTH,
    DEFAULT_MIN_MODULUS,
    SWEEP_SAMPLES,
    reflection_params,
    winding_number,
)
from fibwalk.sweep import (
    GridSpec,
    STATUS_AMBIGUOUS,
    STATUS_ERROR,
    STATUS_OK,
    _contour_settings,
    _run_cells,
    _winding_cell,
    sweep_mcd,
    sweep_winding,
    sweep_winding_average,
)
from fibwalk.walk import WalkConfig

FLAGSHIP = dict(
    theta_a_lo=np.pi / 2 - 0.3, theta_a_hi=np.pi / 2 + 0.3,
    theta_b_lo=-0.3, theta_b_hi=0.3,
)


def test_grid_cells_are_row_major_theta_b_fastest():
    grid = GridSpec(0.0, 1.0, 10.0, 11.0, resolution=2)
    cells = grid.cells()
    assert len(cells) == 4
    assert cells == [(0.25, 10.25), (0.25, 10.75), (0.75, 10.25), (0.75, 10.75)]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=1)
    with pytest.raises(ValueError):
        GridSpec(theta_a_lo=1.0, theta_a_hi=1.0)


def test_grid_center_cell_hits_the_window_center():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    assert grid.cells()[4] == (pytest.approx(np.pi / 2), pytest.approx(0.0))


def test_sweep_mcd_flagship_center_cell():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    diagram = sweep_mcd(grid, n_sites=610, steps=250)
    assert diagram.statuses == [STATUS_OK] * 9
    center = diagram.values[4]
    assert -1.2 < center < -0.8


def test_sweep_mcd_identity_cell_is_exact():
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, resolution=3)  # center cell at (0, 0)
    diagram = sweep_mcd(grid, n_sites=64, steps=20)
    assert diagram.values[4] == pytest.approx(-21.0, abs=1e-12)


def test_sweep_mcd_rejects_long_windows():
    with pytest.raises(ValueError):
        sweep_mcd(GridSpec(resolution=2), n_sites=64, steps=40)


def test_sweep_winding_flagship_quartet():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    expected = {"ABA": 2, "AAB": 4, "BAA": 0, "BAB": 0}
    for prefix, w in expected.items():
        diagram = sweep_winding(grid, PrefixOverride(prefix))
        center = 4
        assert diagram.statuses[center] == STATUS_OK
        assert diagram.values[center] == w


def test_masking_line_for_b_first_terminations():
    # theta_b = 0 makes the leading B a perfect mirror: W = 0 along the line.
    grid = GridSpec(-3.0, 3.0, -1e-9, 1e-9, resolution=3)
    diagram = sweep_winding(grid, PrefixOverride("BAA"), n_sites=89)
    assert all(s == STATUS_OK for s in diagram.statuses)
    assert np.all(diagram.values == 0.0)


def test_all_transparent_cell_reports_error_status():
    # A pure-A word at theta = pi/2 has every |gamma| ~ 1e-16: no reflection.
    grid = GridSpec(np.pi / 2 - 1e-12, np.pi / 2 + 1e-12,
                    np.pi / 2 - 1e-12, np.pi / 2 + 1e-12, resolution=2)
    diagram = sweep_winding(grid, Phason(0.0), n_sites=34)
    # cells evaluate the standard word; at (pi/2, pi/2) all gammas vanish
    assert all(s == STATUS_ERROR for s in diagram.statuses)
    assert np.all(np.isnan(diagram.values))


def test_average_cell_whose_every_member_failed_reports_error_status():
    # Every termination is transparent at (pi/2, pi/2): all members fail.
    grid = GridSpec(np.pi / 2 - 1e-15, np.pi / 2 + 1e-15,
                    np.pi / 2 - 1e-15, np.pi / 2 + 1e-15, resolution=2)
    diagram = sweep_winding_average(grid, n_sites=34)
    assert all(s == STATUS_ERROR for s in diagram.statuses)
    assert np.all(np.isnan(diagram.values))


def test_winding_map_cells_match_single_windings():
    # This grid has ambiguous cells; they carry their winding, not NaN.
    grid = GridSpec(resolution=5)
    diagram = sweep_winding(grid, Standard(), n_sites=89)
    assert diagram.statuses.count(STATUS_AMBIGUOUS) == 8
    for (ta, tb), value, status in zip(grid.cells(), diagram.values, diagram.statuses):
        result = winding_number(reflection_params(ta, tb, 89, samples=SWEEP_SAMPLES))
        expected = STATUS_AMBIGUOUS if result.ambiguous else STATUS_OK
        assert (value, status) == (result.winding, expected)


def test_winding_average_flagship_value():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    diagram = sweep_winding_average(grid)
    assert diagram.statuses[4] == STATUS_OK
    assert diagram.values[4] == 1.5


def test_singleton_ensemble_matches_plain_sweep():
    grid = GridSpec(**FLAGSHIP, resolution=2)
    single = sweep_winding_average(grid, ensemble=(PrefixOverride("ABA"),))
    plain = sweep_winding(grid, PrefixOverride("ABA"))
    ok = [s == STATUS_OK for s in plain.statuses]
    assert all(
        (not o) or single.values[i] == plain.values[i] for i, o in enumerate(ok)
    )


def test_average_bound_and_quarter_multiples():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    members = [sweep_winding(grid, t) for t in DEFAULT_ENSEMBLE]
    avg = sweep_winding_average(grid)
    for i, status in enumerate(avg.statuses):
        if status != STATUS_OK:
            continue
        values = [m.values[i] for m in members]
        assert min(values) <= avg.values[i] <= max(values)
        assert (4 * avg.values[i]) == pytest.approx(round(4 * avg.values[i]))


def test_deep_trivial_cell_averages_to_zero():
    # center cell sits at (0, 0): every site is a perfect mirror, so all
    # four terminations are masked and give exactly W = 0.
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, resolution=3)
    diagram = sweep_winding_average(grid, n_sites=55)
    assert diagram.statuses[4] == STATUS_OK
    assert diagram.values[4] == 0.0


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        sweep_winding_average(GridSpec(resolution=2), ensemble=())


def test_serial_and_parallel_runs_are_bitwise_identical():
    grid = GridSpec(**FLAGSHIP, resolution=3)
    serial = sweep_winding(grid, Standard(), n_sites=89)
    parallel = sweep_winding(grid, Standard(), n_sites=89, workers=4)
    assert serial.values.tobytes() == parallel.values.tobytes()
    assert serial.statuses == parallel.statuses

    mcd_serial = sweep_mcd(grid, n_sites=64, steps=20)
    mcd_parallel = sweep_mcd(grid, n_sites=64, steps=20, workers=4)
    assert mcd_serial.values.tobytes() == mcd_parallel.values.tobytes()
    assert mcd_serial.statuses == mcd_parallel.statuses


def test_mcd_blocks_do_not_change_the_map(monkeypatch):
    # 49 cells at N = 233 make blocks of 35 + 14 cells serially, 25 + 24 on
    # two workers and 17 + 17 + 15 on three.
    grid = GridSpec(-3.0, 3.1, -2.9, 3.05, resolution=7)
    word = standard_word(233)
    expected = np.array([mcd_time_average(WalkConfig(233, CoinAngles(*cell), word), 100)
                         for cell in grid.cells()])
    for workers in (1, 2, 3):
        diagram = sweep_mcd(grid, n_sites=233, steps=100, workers=workers)
        assert diagram.values.tobytes() == expected.tobytes()
        assert diagram.statuses == [STATUS_OK] * 49

    monkeypatch.setattr(walk, "NORM_TOLERANCE", -1.0)
    diagram = sweep_mcd(grid, n_sites=233, steps=100, workers=1)
    assert diagram.statuses == [STATUS_ERROR] * 49
    assert np.all(np.isnan(diagram.values))


@pytest.mark.parametrize("ensemble", [DEFAULT_ENSEMBLE, phason_ensemble(3)],
                         ids=["prefixes", "phason-grid-3"])
def test_serial_and_parallel_averages_are_bitwise_identical(ensemble):
    grid = GridSpec(**FLAGSHIP, resolution=3)
    serial = sweep_winding_average(grid, ensemble, n_sites=89)
    parallel = sweep_winding_average(grid, ensemble, n_sites=89, workers=4)
    assert serial.values.tobytes() == parallel.values.tobytes()
    assert serial.statuses == parallel.statuses


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected_before_any_cell(workers):
    def no_cell(cell):
        raise AssertionError("a cell ran despite an invalid worker count")

    with pytest.raises(ValueError, match="workers must be >= 1"):
        _run_cells(no_cell, [(0.0, 0.0), (1.0, 1.0)], workers)

@pytest.mark.slow
def test_winding_plateaus_are_quantized_on_a_coarse_grid():
    # Each cell is one batched winding_numbers call over the four
    # terminations; member k's (value, status) is what sweep_winding gives
    # for termination k.
    grid = GridSpec(resolution=21)
    words = [word_for_termination(DEFAULT_CUTOFF, t) for t in DEFAULT_ENSEMBLE]
    contour = _contour_settings(2, SWEEP_SAMPLES, DEFAULT_MIN_MODULUS, DEFAULT_MAX_REFINE_DEPTH)
    cell_fn = partial(_winding_cell, words=words, reduce=list, **contour)
    cells = _run_cells(cell_fn, grid.cells(), workers=min(4, os.cpu_count() or 1))
    for k in range(len(DEFAULT_ENSEMBLE)):
        values = np.array([members[k][0] for members in cells]).reshape(21, 21)
        ok = np.array([members[k][1] == STATUS_OK for members in cells]).reshape(21, 21)
        for i in range(19):
            for j in range(19):
                block = values[i:i + 3, j:j + 3]
                if ok[i:i + 3, j:j + 3].all() and (block == block[0, 0]).all():
                    assert block[0, 0] in (0.0, 2.0, 4.0)
