import tracemalloc

import numpy as np
import pytest
from helpers import circle_multisets_close

from fibwalk import spectrum, walk
from fibwalk.cli import main
from fibwalk.errors import SolverConvergenceError
from fibwalk.sequence import (
    GOLDEN_RATIO_INV,
    CoinAngles,
    FibonacciWord,
    parse_termination,
    standard_word,
    word_for_termination,
)
from fibwalk.spectrum import (
    Gap,
    QuasienergySpectrum,
    classify_edge_modes,
    find_gaps,
    gap_labels,
    quasienergies,
)
from fibwalk.walk import Timeframe, WalkConfig, build_unitary, chiral_frames


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
def test_reflected_boundary_phases_match_the_dense_eigenvalues(timeframe, n, theta_a, theta_b):
    # Both ends reflect with alpha = -1; the reference is the general
    # (non-Hermitian) eigenvalue solve of the dense U, not the sector blocks.
    cfg = WalkConfig(n, CoinAngles(theta_a, theta_b), standard_word(n),
                     boundary_phase_left=-1.0, boundary_phase_right=-1.0, timeframe=timeframe)
    spec = quasienergies(cfg)
    reference = -np.angle(np.linalg.eigvals(build_unitary(cfg)))
    assert circle_multisets_close(spec.energies, reference, 1e-10)
    assert spec.max_residual < 1e-8
    gram = spec.states.conj().T @ spec.states
    assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-10


def dense_spectrum(config):
    """Reference solve: one 2N x 2N eigh of H = (U + U^T)/2 for a real U.

    Each cos E cluster is split by the skew part unless its sin E values
    agree within the solver's SUBCLUSTER_TOLERANCE, and eigenvalues are
    Rayleigh quotients of the dense U.
    """
    u = build_unitary(config).real
    cos_e, basis = np.linalg.eigh((u + u.T) / 2.0)
    anti = ((u - u.T) / 2.0) @ basis
    vecs = basis.astype(complex)
    splits = np.flatnonzero(np.diff(cos_e) > spectrum.CLUSTER_TOLERANCE) + 1
    for lo, hi in zip(np.r_[0, splits], np.r_[splits, len(cos_e)]):
        skew = -1j * basis[:, lo:hi].T @ anti[:, lo:hi]
        sin_vals, rot = np.linalg.eigh((skew + skew.conj().T) / 2.0)
        if sin_vals[-1] - sin_vals[0] > spectrum.SUBCLUSTER_TOLERANCE:
            vecs[:, lo:hi] = basis[:, lo:hi] @ rot
    energies = -np.angle(np.sum(vecs.conj() * (u @ vecs), axis=0))
    energies[energies <= -np.pi] = np.pi
    order = np.argsort(energies, kind="stable")
    vecs = vecs[:, order]
    m = spectrum._edge_sites(config.n_sites, None)
    left, right = spectrum._boundary_masses(vecs, config.n_sites, m)
    reference = QuasienergySpectrum(energies[order], left, right, config, m, 0.0,
                                    lambda: iter([(np.arange(2 * config.n_sites), vecs.T)]))
    assert np.array_equal(reference.states, vecs)
    return reference


def edge_mode_set(spec):
    modes = classify_edge_modes(spec, find_gaps(spec, 0.02))
    return sorted((m.pinning, m.side) for m in modes), np.sort([m.energy for m in modes])


def sector_configs(seed, timeframe, count):
    rng = np.random.default_rng(seed)
    terminations = ["standard", "ABA", "AAB", "BAA", "BAB", "phason:0.37", "phason:0.81"]
    for k in range(count):
        n = int(rng.integers(8, 120))
        word = word_for_termination(n, parse_termination(terminations[k % len(terminations)]))
        theta_a, theta_b = rng.uniform(-np.pi, np.pi, 2)
        yield WalkConfig(
            n, CoinAngles(float(theta_a), float(theta_b)), word,
            boundary_phase_left=float(rng.choice([-1.0, 1.0])),
            boundary_phase_right=float(rng.choice([-1.0, 1.0])),
            timeframe=timeframe,
        )


@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_sector_solve_matches_a_dense_reference(timeframe):
    for cfg in sector_configs(53, timeframe, 14):
        spec = quasienergies(cfg)
        reference = dense_spectrum(cfg)
        gap = np.angle(np.exp(1j * (spec.energies - reference.energies)))
        assert np.max(np.abs(gap)) < 1e-12
        modes, mode_energies = edge_mode_set(spec)
        ref_modes, ref_energies = edge_mode_set(reference)
        assert modes == ref_modes
        assert np.allclose(mode_energies, ref_energies, rtol=0.0, atol=1e-12)
        assert spec.max_residual < 1e-8


def dense_sector_blocks(u, frames):
    """H's (+, +) and (-, -) blocks and A's (+, -) block, sliced from the dense real U.

    Block (a, b) of F^T U F is sum over coins c, d of F[a, :, c] U[c::2, d::2]
    F[b, :, d], with F the block-diagonal chiral frames.
    """
    rows = [[frames[a, :, 0, None] * u[0::2, d::2] + frames[a, :, 1, None] * u[1::2, d::2]
             for d in (0, 1)] for a in (0, 1)]
    w = [[rows[a][0] * frames[b, :, 0] + rows[a][1] * frames[b, :, 1] for b in (0, 1)]
         for a in (0, 1)]
    return np.stack([(w[0][0] + w[0][0].T) / 2.0, (w[1][1] + w[1][1].T) / 2.0,
                     (w[0][1] - w[1][0].T) / 2.0])


@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_hamiltonian_has_no_off_sector_block(timeframe):
    for cfg in sector_configs(59, timeframe, 6):
        n = cfg.n_sites
        u = build_unitary(cfg).real
        frames = chiral_frames(cfg)
        # Q's column s*N + x is site x's spinor of sector s, zero elsewhere.
        q = np.zeros((2 * n, 2 * n))
        for s in (0, 1):
            q[0::2, s * n:(s + 1) * n] = np.diag(frames[s, :, 0])
            q[1::2, s * n:(s + 1) * n] = np.diag(frames[s, :, 1])
        h = q.T @ ((u + u.T) / 2.0) @ q
        a = q.T @ ((u - u.T) / 2.0) @ q
        assert np.max(np.abs(h[:n, n:])) < 1e-14
        assert np.max(np.abs(a[:n, :n])) < 1e-14 and np.max(np.abs(a[n:, n:])) < 1e-14
        h_plus, h_minus, a_pm = blocks = np.stack(list(spectrum._sector_blocks(cfg, frames)))
        assert np.allclose(h_plus, h[:n, :n], rtol=0.0, atol=1e-14)
        assert np.allclose(h_minus, h[n:, n:], rtol=0.0, atol=1e-14)
        assert np.allclose(a_pm, a[:n, n:], rtol=0.0, atol=1e-14)
        # The probe steps form the same products in the same order as slicing
        # the dense U, so the blocks agree bitwise (up to the sign of zeros).
        assert np.array_equal(blocks, dense_sector_blocks(u, frames))


def chiral_clusters(config):
    """The real solver's sector eigenbasis and its cos E clusters of two or more rows."""
    frames = chiral_frames(config)
    eig = spectrum._Eigenbasis.chiral(spectrum._sector_blocks(config, frames), frames)
    order = np.argsort(eig.cos, kind="stable")
    lo, hi = spectrum._cluster_bounds(eig.cos[order], spectrum.CLUSTER_TOLERANCE)
    return eig, [order[a:b] for a, b in zip(lo, hi) if b - a > 1]


def check_split(eig, rows):
    """The SVD split of rows against the complex eigh of their skew block."""
    skew = -1j * eig.blocks(rows[None])[0]
    ref_vals, _ = spectrum._hermitian_eigh(skew)
    sin_vals, rot = eig.split(rows)
    assert np.all(np.diff(sin_vals) >= 0.0)
    assert np.allclose(sin_vals, ref_vals, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(rot.conj().T @ rot - np.eye(len(rows)))) < 1e-12
    hermitian = (skew + skew.conj().T) / 2.0
    assert np.max(np.abs(hermitian @ rot - rot * sin_vals)) < 1e-12
    return sin_vals


@pytest.mark.parametrize("config", [
    fib_config(34, np.pi / 2, 0.0), fib_config(233, np.pi / 2, 0.0),
    uniform_config(233, np.pi / 2), fib_config(233, 2.5, -1.0),
], ids=["flagship-34", "flagship-233", "uniform-half-pi-233", "generic-233"])
def test_svd_split_matches_the_skew_block_eigh(config):
    eig, clusters = chiral_clusters(config)
    assert clusters
    for rows in clusters:
        check_split(eig, rows)


def test_svd_split_gives_one_zero_per_unpaired_state():
    eig, clusters = chiral_clusters(fib_config(233, np.pi / 2, 0.0))
    rows = max(clusters, key=len)
    plus, minus = rows[eig.sector[rows] == 0], rows[eig.sector[rows] == 1]
    for m_plus, m_minus in ((len(plus), len(minus) - 3), (len(plus) - 5, len(minus)),
                            (len(plus), 0)):
        sin_vals = check_split(eig, np.concatenate([plus[:m_plus], minus[:m_minus]]))
        assert np.count_nonzero(sin_vals == 0.0) == abs(m_plus - m_minus)


@pytest.mark.parametrize("n", [233, 377, 610])
def test_flagship_edge_modes_match_the_dense_reference(n):
    cfg = fib_config(n, np.pi / 2, 0.0)
    modes, mode_energies = edge_mode_set(quasienergies(cfg))
    ref_modes, ref_energies = edge_mode_set(dense_spectrum(cfg))
    assert modes == ref_modes
    assert np.allclose(mode_energies, ref_energies, rtol=0.0, atol=1e-12)


# Measured peaks: 1.00x (generic) and 1.23x (flagship) the bytes of the
# states, which the solve streams and does not hold; they are assembled
# only when read, after the trace.
@pytest.mark.parametrize("theta_a, theta_b, bound", [(1.1, 0.4, 1.2), (np.pi / 2, 0.0, 1.6)])
def test_solver_memory_peak_is_bounded_by_the_states(theta_a, theta_b, bound):
    cfg = fib_config(610, theta_a, theta_b)
    tracemalloc.start()
    try:
        spec = quasienergies(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * spec.states.nbytes


def solve_recording_eigenvalues(config, monkeypatch):
    """quasienergies(config), and the eigenvalue and squared residual the solver streamed per slot."""
    slots, lams, squares = [], [], []
    state_blocks, residual_squares = spectrum._state_blocks, spectrum._residual_squares

    def recording_blocks(*args):
        for block in state_blocks(*args):
            slots.append(block[0])
            yield block

    def recording_squares(step, rows, lam):
        lams.append(lam)
        squares.append(residual_squares(step, rows, lam))
        return squares[-1]

    monkeypatch.setattr(spectrum, "_state_blocks", recording_blocks)
    monkeypatch.setattr(spectrum, "_residual_squares", recording_squares)
    spec = quasienergies(config)
    size = 2 * config.n_sites
    streamed = np.concatenate(slots[:len(lams)])
    assert np.array_equal(np.sort(streamed), np.arange(size))
    lam, sq = np.empty(size, dtype=np.complex128), np.empty(size)
    lam[streamed], sq[streamed] = np.concatenate(lams), np.concatenate(squares)
    return spec, lam, sq


def slot_order_squares(spec, lam):
    """Squared eigen-residuals of the assembled states, taken in slot order 128 at a time.

    This is the check as the solver made it when it held every state:
    U psi from the complex walk step of consecutive rows of the state matrix.
    """
    n = spec.config.n_sites
    vecs = spec.states.T  # row k holds the state of energies[k]
    step, squares = walk.stepper(spec.config), np.empty(2 * n)
    for lo in range(0, 2 * n, 128):
        rows = vecs[lo:lo + 128]
        uv = step(rows.reshape(-1, n, 2).transpose(0, 2, 1)).transpose(0, 2, 1).reshape(rows.shape)
        uv -= rows * lam[lo:lo + 128, None]
        flat = uv.view(np.float64)
        squares[lo:lo + len(rows)] = np.einsum("ij,ij->i", flat, flat)
    return squares


STREAM_CONFIGS = [
    pytest.param(WalkConfig(233, CoinAngles(theta_a, theta_b), standard_word(233), left, right,
                            timeframe), id=f"{name}-{timeframe.value}-{left:+.0f}{right:+.0f}")
    for name, theta_a, theta_b in (("flagship", np.pi / 2, 0.0), ("generic", 1.1, 0.4))
    for timeframe in Timeframe
    for left, right in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))
]


@pytest.mark.parametrize("config", STREAM_CONFIGS)
def test_streamed_masses_and_residuals_match_the_assembled_states(config, monkeypatch):
    spec, lam, squares = solve_recording_eigenvalues(config, monkeypatch)
    states = spec.states
    assert spec.states is states
    assert spec.state_blocks is None  # the factors are released once the states are built
    left, right = spectrum._boundary_masses(states, config.n_sites, spec.edge_sites)
    assert np.array_equal(spec.left_mass, left)
    assert np.array_equal(spec.right_mass, right)
    reference = slot_order_squares(spec, lam)
    assert np.array_equal(reference, squares)
    assert float(np.sqrt(reference.max())) == spec.max_residual


@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_the_solve_takes_two_sector_blocks_and_no_dense_unitary(timeframe, monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        sizes.append(a.shape[-1])
        return eigh(a)

    def no_dense(config):
        raise AssertionError("dense unitary built")

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for owner in (walk, spectrum):
        monkeypatch.setattr(owner, "build_unitary", no_dense)
    n = 34
    quasienergies(WalkConfig(n, CoinAngles(1.1, 0.4), standard_word(n), -1.0,
                             timeframe=timeframe))
    assert sizes[:2] == [n, n] and max(sizes) == n


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
    factors = walk.step_factors

    def nan_factors(config):
        c, s, alpha_l, alpha_r = factors(config)
        return np.full_like(c, np.nan), s, alpha_l, alpha_r

    monkeypatch.setattr(walk, "step_factors", nan_factors)
    with pytest.raises(SolverConvergenceError, match="eigen-residual nan"):
        quasienergies(fib_config(13, 1.1, 0.4))


def test_one_site_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="needs n_sites >= 2, got 1"):
        quasienergies(fib_config(1, 1.0, 0.4))

    out_path = tmp_path / "s.csv"
    code = main(["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "1",
                 "--output", str(out_path)])
    assert code == 1
    assert "needs n_sites >= 2, got 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_find_gaps_rejects_a_nan_width():
    spec = quasienergies(fib_config(13, 1.1, 0.4))
    with pytest.raises(ValueError, match="min_width"):
        find_gaps(spec, float("nan"))


@pytest.mark.parametrize("edge_sites", [0, -3])
def test_edge_sites_below_one_rejected_before_the_solve(edge_sites, tmp_path, monkeypatch, capsys):
    cfg = fib_config(34, 1.0, 0.4)

    def no_solve(*args):
        raise AssertionError("solver reached")

    monkeypatch.setattr(spectrum, "chiral_frames", no_solve)  # the solver's first call
    with pytest.raises(ValueError, match="edge_sites"):
        quasienergies(cfg, edge_sites=edge_sites)

    out_path = tmp_path / "s.csv"
    code = main(["spectrum", "--theta-a", "1.0", "--theta-b", "0.4", "--n", "34",
                 "--edge-sites", str(edge_sites), "--output", str(out_path)])
    assert code == 1
    assert "edge_sites must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edge_sites", [1, 7])
def test_explicit_edge_sites_set_the_boundary_masses(edge_sites):
    spec = quasienergies(fib_config(34, 1.0, 0.4), edge_sites=edge_sites)
    site_mass = (np.abs(spec.states) ** 2).reshape(34, 2, -1).sum(axis=1)
    assert spec.edge_sites == edge_sites
    assert np.allclose(spec.left_mass, site_mass[:edge_sites].sum(axis=0), rtol=0, atol=1e-14)
    assert np.allclose(spec.right_mass, site_mass[-edge_sites:].sum(axis=0), rtol=0, atol=1e-14)

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
