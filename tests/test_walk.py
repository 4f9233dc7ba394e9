import numpy as np
import pytest
from helpers import circle_multisets_close

from fibwalk.sequence import CoinAngles, FibonacciWord, standard_word
from fibwalk.walk import (
    Timeframe,
    WalkConfig,
    apply_step,
    build_unitary,
    chiral_frames,
    chiral_operator,
    localized_state,
)


def uniform_word(n):
    return FibonacciWord("A" * n, 1)


def random_config(rng, n=None, timeframe=Timeframe.PLAIN, phases=(1.0, 1.0)):
    if n is None:
        n = int(rng.integers(2, 35))
    return WalkConfig(
        n_sites=n,
        coins=CoinAngles(float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi))),
        word=standard_word(n),
        boundary_phase_left=phases[0],
        boundary_phase_right=phases[1],
        timeframe=timeframe,
    )


def random_state(rng, n):
    """Normalized complex amplitudes in the dense (n, 2) ordering."""
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return amps / np.linalg.norm(amps)


def test_identity_coin_walk_is_a_four_cycle():
    cfg = WalkConfig(2, CoinAngles(0.0, 0.0), standard_word(2))
    u = build_unitary(cfg)
    basis = np.eye(4)
    # (0,L)->(0,R), (0,R)->(1,R), (1,R)->(1,L), (1,L)->(0,L)
    assert np.allclose(u @ basis[0], basis[1])
    assert np.allclose(u @ basis[1], basis[3])
    assert np.allclose(u @ basis[3], basis[2])
    assert np.allclose(u @ basis[2], basis[0])


def test_four_cycle_eigenvalues():
    cfg = WalkConfig(2, CoinAngles(0.0, 0.0), standard_word(2))
    lam = np.sort_complex(np.linalg.eigvals(build_unitary(cfg)))
    assert np.allclose(lam, np.sort_complex(np.array([1, 1j, -1, -1j])), atol=1e-12)


def test_unitarity_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        phases = (float(rng.choice([-1.0, 1.0])), float(rng.choice([-1.0, 1.0])))
        cfg = random_config(rng, phases=phases)
        u = build_unitary(cfg)
        err = np.max(np.abs(u.conj().T @ u - np.eye(2 * cfg.n_sites)))
        assert err < 1e-10


def test_build_unitary_real_for_real_phases():
    rng = np.random.default_rng(5)
    cfg = random_config(rng, phases=(-1.0, 1.0))
    assert np.max(np.abs(build_unitary(cfg).imag)) == 0.0


def test_build_unitary_needs_two_sites():
    with pytest.raises(ValueError):
        build_unitary(WalkConfig(1, CoinAngles(0.0, 0.0), uniform_word(1)))


def test_boundary_phase_validation():
    with pytest.raises(ValueError):
        WalkConfig(2, CoinAngles(0, 0), standard_word(2), boundary_phase_left=1.5)
    for phase in (complex("nan+nanj"), complex(np.inf)):
        with pytest.raises(ValueError, match="unit modulus"):
            WalkConfig(2, CoinAngles(0, 0), standard_word(2), boundary_phase_right=phase)


def test_word_length_must_match():
    with pytest.raises(ValueError):
        WalkConfig(3, CoinAngles(0, 0), standard_word(2))


def test_step_ballistic_right_mover():
    cfg = WalkConfig(8, CoinAngles(0.0, 0.0), uniform_word(8))
    out = apply_step(localized_state(cfg, 3, ["R"]), cfg)
    assert np.allclose(out[0, 1, 4], 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_step_left_boundary_reflection():
    cfg = WalkConfig(8, CoinAngles(0.0, 0.0), uniform_word(8))
    out = apply_step(localized_state(cfg, 0, ["L"]), cfg)
    assert np.allclose(out[0, 1, 0], 1.0)  # (0,L) -> (0,R)


@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_step_matches_dense_unitary(timeframe):
    rng = np.random.default_rng(17)
    for _ in range(10):
        cfg = random_config(rng, n=8, timeframe=timeframe)
        state = random_state(rng, 8)
        dense = (build_unitary(cfg) @ state.reshape(-1)).reshape(8, 2)
        free = apply_step(state.T, cfg).T
        assert np.max(np.abs(dense - free)) < 1e-12


def test_step_dimension_mismatch():
    cfg = WalkConfig(8, CoinAngles(0.0, 0.0), uniform_word(8))
    for shape in ((2, 9), (1, 2, 9), (8, 2), (16,)):
        with pytest.raises(ValueError):
            apply_step(np.zeros(shape), cfg)


def test_step_dtype_follows_amplitudes_and_phases():
    rng = np.random.default_rng(31)
    real = rng.normal(size=(3, 2, 8))
    cfg = random_config(rng, n=8, phases=(-1.0, 1.0))
    out = apply_step(real, cfg)
    assert out.dtype == np.float64
    # a stack steps as its rows do, and real arithmetic matches complex
    for row, amps in zip(out, real):
        assert np.array_equal(apply_step(amps.astype(complex), cfg), row)
    twisted = random_config(rng, n=8, phases=(np.exp(0.4j), 1.0))
    assert apply_step(real, twisted).dtype == np.complex128


def test_timeframe_spectra_agree():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 35))
        coins = CoinAngles(float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)))
        word = standard_word(n)
        plain = WalkConfig(n, coins, word)
        sym = WalkConfig(n, coins, word, timeframe=Timeframe.SYMMETRIZED)
        ep = np.angle(np.linalg.eigvals(build_unitary(plain)))
        es = np.angle(np.linalg.eigvals(build_unitary(sym)))
        assert circle_multisets_close(ep, es, 1e-8)


def test_chiral_relation_in_symmetrized_timeframe():
    rng = np.random.default_rng(29)
    for _ in range(5):
        phases = (float(rng.choice([-1.0, 1.0])), float(rng.choice([-1.0, 1.0])))
        cfg = random_config(rng, timeframe=Timeframe.SYMMETRIZED, phases=phases)
        u = build_unitary(cfg)
        gamma = chiral_operator(cfg.n_sites)
        assert np.max(np.abs(gamma @ u @ gamma - u.conj().T)) < 1e-10


def test_chiral_operator_properties():
    g1 = chiral_operator(1)
    assert np.allclose(g1, [[0, 1], [1, 0]])
    g5 = chiral_operator(5)
    assert np.allclose(g5 @ g5, np.eye(10))
    assert np.allclose(g5, g5.conj().T)
    state = np.arange(10, dtype=complex)
    swapped = (g5 @ state).reshape(5, 2)
    assert np.allclose(swapped, state.reshape(5, 2)[:, ::-1])



@pytest.mark.parametrize("timeframe", list(Timeframe))
def test_chiral_frames_are_eigenvectors_of_the_chiral_operator(timeframe):
    rng = np.random.default_rng(61)
    for _ in range(4):
        cfg = random_config(rng, timeframe=timeframe, phases=(-1.0, 1.0))
        n = cfg.n_sites
        gamma = chiral_operator(n)
        if timeframe is Timeframe.PLAIN:
            # U_plain = C^(-1/2) U_sym C^(1/2), so Gamma_plain = C^(-1/2) sigma_x C^(1/2).
            half = np.zeros((2 * n, 2 * n))
            c, s = np.cos(cfg.angles() / 2.0), np.sin(cfg.angles() / 2.0)
            i = 2 * np.arange(n)
            half[i, i], half[i, i + 1], half[i + 1, i], half[i + 1, i + 1] = c, s, -s, c
            gamma = half.T @ gamma @ half
        u = build_unitary(cfg)
        assert np.max(np.abs(gamma @ u @ gamma - u.conj().T)) < 1e-12
        frames = chiral_frames(cfg)
        per_site = frames.transpose(1, 2, 0)  # columns: the +1 and -1 spinor
        assert np.allclose(per_site.transpose(0, 2, 1) @ per_site, np.eye(2), atol=1e-15)
        for s, sign in ((0, 1.0), (1, -1.0)):
            for x in range(n):
                v = np.zeros(2 * n)
                v[2 * x:2 * x + 2] = frames[s, x]
                assert np.allclose(gamma @ v, sign * v, atol=1e-14)
