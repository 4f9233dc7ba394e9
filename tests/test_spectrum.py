import numpy as np
import pytest
from helpers import circle_multisets_close

from fibwalk import spectrum
from fibwalk.cli import main
from fibwalk.errors import SolverConvergenceError
from fibwalk.sequence import GOLDEN_RATIO_INV, CoinAngles, FibonacciWord, standard_word
from fibwalk.spectrum import (
    Gap,
    classify_edge_modes,
    find_gaps,
    gap_labels,
    quasienergies,
)
from fibwalk.walk import Timeframe, WalkConfig, build_unitary


def uniform_config(n, theta):
    word = FibonacciWord("A" * n, 1)
    return WalkConfig(n, CoinAngles(theta, theta), word)


def fib_config(n, theta_a, theta_b):
    return WalkConfig(n, CoinAngles(theta_a, theta_b), standard_word(n))


def random_config(rng, n=None):
    if n is None:
        n = int(rng.integers(2, 35))
    return WalkConfig(
        n,
        CoinAngles(float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi))),
        standard_word(n),
        boundary_phase_left=float(rng.choice([-1.0, 1.0])),
        boundary_phase_right=float(rng.choice([-1.0, 1.0])),
    )


def test_identity_coin_energies():
    spec = quasienergies(fib_config(2, 0.0, 0.0))
    assert np.allclose(spec.energies, [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-12)


def test_uniform_half_pi_walk_is_flat_apart_from_pinned_boundary_pair():
    # Bulk bands collapse onto +-pi/2; the reflective ends contribute one
    # exact E=0 and one exact E=pi eigenvector (|0,R> and |N-1,L>).
    spec = quasienergies(uniform_config(34, np.pi / 2))
    cos_e = np.cos(spec.energies)
    off_band = np.abs(cos_e) > 1e-8
    assert off_band.sum() == 2
    pinned = np.sort(np.abs(spec.energies[off_band]))
    assert pinned[0] < 1e-10
    assert abs(pinned[1] - np.pi) < 1e-10


def test_energies_closed_under_negation_for_real_matrices():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = quasienergies(random_config(rng))
        assert circle_multisets_close(-spec.energies, spec.energies, 1e-8)


def test_eigen_residuals_and_modulus():
    rng = np.random.default_rng(37)
    for _ in range(5):
        cfg = random_config(rng)
        spec = quasienergies(cfg)
        u = np.exp(-1j * spec.energies)
        assert spec.max_residual < 1e-8
        assert np.max(np.abs(np.abs(u) - 1.0)) < 1e-8


def test_eigenvector_completeness_and_orthogonality():
    spec = quasienergies(fib_config(89, 1.1, 0.4))
    assert len(spec.energies) == 178
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(178))) < 1e-6


@pytest.mark.parametrize("timeframe", list(Timeframe))
@pytest.mark.parametrize("n", [34, 233])
@pytest.mark.parametrize("theta_a, theta_b", [(np.pi / 2, 0.0), (1.1, 0.4)])
def test_complex_boundary_phases(timeframe, n, theta_a, theta_b):
    # Complex phases make U complex, so the solver runs in complex dtype.
    cfg = WalkConfig(
        n, CoinAngles(theta_a, theta_b), standard_word(n),
        boundary_phase_left=np.exp(0.3j),
        boundary_phase_right=np.exp(-1.1j),
        timeframe=timeframe,
    )
    spec = quasienergies(cfg)
    reference = -np.angle(np.linalg.eigvals(build_unitary(cfg)))
    assert circle_multisets_close(spec.energies, reference, 1e-10)
    assert spec.max_residual < 1e-8
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-10


def test_degenerate_zero_modes_stay_on_their_own_edges():
    # A left and a right zero mode with the same quasienergy: any mixing of
    # the pair is an eigenbasis, and the real skew block would mix them
    # into two equal halves unless the solver keeps the real basis.
    spec = quasienergies(WalkConfig(55, CoinAngles(1.0, 2.5), standard_word(55), 1.0, -1.0))
    modes = classify_edge_modes(spec, find_gaps(spec, 0.02))
    zero = [m for m in modes if m.pinning == "zero"]
    assert sorted(m.side for m in zero) == ["left", "right"]
    assert all(m.boundary_weight > 0.99 for m in zero)


def test_residual_guard_raises_with_the_config(tmp_path, monkeypatch, capsys):
    cfg = fib_config(34, 1.1, 0.4)
    achieved = quasienergies(cfg).max_residual
    assert achieved > 0.0
    monkeypatch.setattr(spectrum, "RESIDUAL_TOLERANCE", achieved / 2.0)
    with pytest.raises(SolverConvergenceError) as excinfo:
        quasienergies(cfg)
    assert excinfo.value.config is cfg

    out_path = tmp_path / "s.csv"
    code = main(["spectrum", "--theta-a", "1.1", "--theta-b", "0.4", "--n", "34",
                 "--output", str(out_path)])
    assert code == 2
    assert "eigen-residual" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_residual_guard_raises_on_a_nan_operator(monkeypatch):
    cfg = fib_config(13, 1.1, 0.4)
    monkeypatch.setattr(spectrum, "build_unitary", lambda config: np.full((26, 26), np.nan))
    with pytest.raises(SolverConvergenceError, match="eigen-residual nan"):
        quasienergies(cfg)


def test_find_gaps_rejects_a_nan_width():
    spec = quasienergies(fib_config(13, 1.1, 0.4))
    with pytest.raises(ValueError, match="min_width"):
        find_gaps(spec, float("nan"))


@pytest.mark.parametrize("edge_sites", [0, -3])
def test_edge_sites_below_one_rejected_before_the_solve(edge_sites, tmp_path, monkeypatch, capsys):
    cfg = fib_config(34, 1.0, 0.4)

    def no_solve(config):
        raise AssertionError("build_unitary reached")

    monkeypatch.setattr(spectrum, "build_unitary", no_solve)
    with pytest.raises(ValueError, match="edge_sites"):
        quasienergies(cfg, edge_sites=edge_sites)

    out_path = tmp_path / "s.csv"
    code = main(["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "34",
                 "--edge-sites", str(edge_sites), "--output", str(out_path)])
    assert code == 1
    assert "edge_sites must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

def test_theta_shift_by_pi_shifts_energies_by_pi():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(4, 30))
        ta, tb = rng.uniform(-1.5, 1.5, 2)
        word = standard_word(n)
        e1 = quasienergies(WalkConfig(n, CoinAngles(ta, tb), word)).energies
        e2 = quasienergies(WalkConfig(n, CoinAngles(ta + np.pi, tb + np.pi), word)).energies
        assert circle_multisets_close(e1 + np.pi, e2, 1e-8)


def test_dense_guard():
    with pytest.raises(ValueError):
        quasienergies(fib_config(5001, 0.0, 0.0))


def test_find_gaps_two_point_circle():
    spec = quasienergies(fib_config(2, 0.0, 0.0))
    # Construct a synthetic two-point spectrum: energies {-pi/2, +pi/2}.
    spec.energies = np.array([-np.pi / 2, np.pi / 2])
    gaps = find_gaps(spec, 1.0)
    assert len(gaps) == 2
    straddles = [(g.lower < 0.0 < g.upper) for g in gaps]
    wraps = [(g.lower <= np.pi <= g.upper) for g in gaps]
    assert any(straddles) and any(wraps)
    by_mid = sorted(gaps, key=lambda g: (g.lower + g.upper) / 2)
    assert by_mid[0].ids == pytest.approx(0.5)
    assert by_mid[1].ids == pytest.approx(1.0)


def test_find_gaps_empty_when_min_width_exceeds_spacing():
    spec = quasienergies(fib_config(13, 0.9, 0.3))
    assert find_gaps(spec, 7.0) == []


def test_fibonacci_gaps_surround_zero_and_pi():
    # The arcs adjacent to the pinned in-gap modes reach 0 and pi up to
    # the (machine-precision) position of those isolated eigenvalues.
    spec = quasienergies(fib_config(233, np.pi / 2, 0.0))
    gaps = find_gaps(spec, 0.05)
    tol = 1e-9

    def closure_contains(target):
        def dist(g):
            lo, hi = g.lower - tol, g.upper + tol
            return lo <= target <= hi or lo <= target + 2 * np.pi <= hi
        return any(dist(g) for g in gaps)

    assert closure_contains(0.0)
    assert closure_contains(np.pi)


def test_ids_monotone_along_the_circle():
    spec = quasienergies(fib_config(89, np.pi / 2, 0.1))
    gaps = find_gaps(spec, 0.02)
    ids = [g.ids for g in gaps]
    assert ids == sorted(ids)


def test_classify_edge_modes_at_the_flagship_point():
    spec = quasienergies(fib_config(233, np.pi / 2, 0.0))
    gaps = find_gaps(spec, 0.02)
    modes = classify_edge_modes(spec, gaps)
    pinnings = {m.pinning for m in modes}
    assert "zero" in pinnings
    assert "pi" in pinnings
    assert all(m.boundary_weight >= 0.6 for m in modes)


def test_bulk_states_are_not_edge_modes():
    spec = quasienergies(fib_config(144, 0.9, 0.4))
    gaps = find_gaps(spec, 0.02)
    modes = classify_edge_modes(spec, gaps, weight_threshold=0.6)
    bulk_indices = set(range(len(spec.energies))) - {m.state_index for m in modes}
    # plane-wave-like states carry only ~2m/N of weight at the edges
    assert bulk_indices
    for m in modes:
        assert m.boundary_weight >= 0.6


def test_state_fully_on_site_zero_is_classified():
    spec = quasienergies(fib_config(233, np.pi / 2, 0.0))
    gaps = find_gaps(spec, 0.02)
    modes = classify_edge_modes(spec, gaps)
    zero_mode = [m for m in modes if m.pinning == "zero"]
    assert zero_mode and zero_mode[0].boundary_weight > 0.99
    assert zero_mode[0].side == "left"


def test_gap_labels_examples():
    tau_inv = GOLDEN_RATIO_INV
    gaps = [
        Gap(0, 1, 1, 0.5),
        Gap(0, 1, 1, tau_inv),
        Gap(0, 1, 1, 2.0 - 2.0 * tau_inv),
    ]
    labels = gap_labels(gaps, q_max=3, tolerance=1e-3)
    assert labels[0] is None
    assert labels[1] == (0, 1)
    assert labels[2] == (2, -2)
