"""Walk operators on a finite chain with reflective open boundaries.

The Hilbert space is n_sites copies of a two-level coin (L, R); the dense
basis ordering is (x=0,L), (x=0,R), (x=1,L), ...  Matrix-free steps act on
walkers held as amplitude arrays of shape (..., 2, n_sites), coin first, so
a stack of runs steps as one array.  One step is U = S C with a
site-dependent rotation coin

    R(theta) = [[cos theta, sin theta], [-sin theta, cos theta]]

and a chirality-conditioned shift whose out-of-lattice hops are replaced by
in-place coin flips: |0,L> -> alpha_L |0,R> and |N-1,R> -> alpha_R |N-1,L>,
with boundary phases alpha = +1 (the default) or -1.  This is the minimal
unitary completion that keeps the operator banded and local.  The phases
are real so that the walk keeps its chiral symmetry Gamma U Gamma = U^dagger,
which pins edge modes at 0 and pi; a complex phase would break it.

Two timeframes are provided.  PLAIN is U = S C and drives all dynamics and
spectra; SYMMETRIZED is U = C^(1/2) S C^(1/2) (half-angle rotations), which
satisfies the chiral relation literally.  The two operators are related by
conjugation with C^(1/2) and have identical spectra.  Every step factor is
real, so the dense unitary, the step applied to each basis state, is real,
and a stack steps in its own dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sequence import CoinAngles, FibonacciWord, angles_for

NORM_TOLERANCE = 1e-10


class Timeframe(Enum):
    PLAIN = "plain"
    SYMMETRIZED = "symmetrized"


@dataclass(frozen=True)
class WalkConfig:
    """Parameters fixing one walk operator."""

    n_sites: int
    coins: CoinAngles
    word: FibonacciWord
    boundary_phase_left: float = 1.0
    boundary_phase_right: float = 1.0
    timeframe: Timeframe = Timeframe.PLAIN

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if len(self.word) != self.n_sites:
            raise ValueError(
                f"word length {len(self.word)} != n_sites {self.n_sites}"
            )
        for name in ("boundary_phase_left", "boundary_phase_right"):
            phase = complex(getattr(self, name))
            if phase.imag != 0.0 or abs(phase.real) != 1.0:
                raise ValueError(f"{name} must be +1 or -1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, phase.real)

    def angles(self) -> np.ndarray:
        return angles_for(self.word, self.coins)


def _spinor(coin) -> np.ndarray:
    """Normalized (L, R) amplitudes of coin 'L', 'R', or an (a, b) pair."""
    if isinstance(coin, str):
        if coin not in ("L", "R"):
            raise ValueError(f"coin must be 'L', 'R', or a length-2 sequence, got {coin!r}")
        return np.array([1.0, 0.0] if coin == "L" else [0.0, 1.0], dtype=np.complex128)
    spinor = np.asarray(coin, dtype=np.complex128)
    if spinor.shape != (2,):
        raise ValueError("coin amplitudes must be a length-2 sequence")
    nrm = np.linalg.norm(spinor)
    if nrm == 0.0:
        raise ValueError("coin amplitudes must not be zero")
    return spinor / nrm


def localized_state(config: WalkConfig, site: int, coins) -> np.ndarray:
    """Runs started on one site, one per coin, as a (runs, 2, n_sites) stack.

    Each coin is 'L', 'R', or an (a, b) pair, normalized here.  The stack is
    real when every spinor is real, so stepper keeps it real; otherwise it
    is complex.
    """
    stack = np.zeros((len(coins), 2, config.n_sites), dtype=np.complex128)
    for r, coin in enumerate(coins):
        stack[r, :, site] = _spinor(coin)
    if not stack.imag.any():
        return stack.real.copy()
    return stack


# Step kernels act on stacks of shape (..., 2, n_sites): axis -2 is the coin
# (L, R), so every run's L and R rows are contiguous.

def _coin(amps: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty_like(amps)
    out[..., 0, :] = c * amps[..., 0, :] + s * amps[..., 1, :]
    out[..., 1, :] = -s * amps[..., 0, :] + c * amps[..., 1, :]
    return out


def _shift(amps: np.ndarray, alpha_l, alpha_r) -> np.ndarray:
    out = np.empty_like(amps)
    out[..., 0, :-1] = amps[..., 0, 1:]
    out[..., 0, -1] = alpha_r * amps[..., 1, -1]
    out[..., 1, 1:] = amps[..., 1, :-1]
    out[..., 1, 0] = alpha_l * amps[..., 0, 0]
    return out


def step_factors(config: WalkConfig):
    """Per-site coin factors and boundary phases of one step: (cos, sin, alpha_l, alpha_r).

    cos and sin are taken of the sites' coin angles, halved in the
    symmetrized timeframe.  All four are real.
    """
    th = config.angles()
    if config.timeframe is Timeframe.SYMMETRIZED:
        th = th / 2.0
    return np.cos(th), np.sin(th), config.boundary_phase_left, config.boundary_phase_right


def step_sites(amps: np.ndarray, c, s, alpha_l, alpha_r, timeframe: Timeframe) -> np.ndarray:
    """One step of a (..., 2, M) stack whose M sites the factors c and s cover.

    The shift's boundary terms act at the ends of the M sites.  That is the
    chain's own boundary when the M sites are the whole chain.  On a window
    of the chain the step is still exact when the window's end sites and
    everything outside it are empty, as at the edge of a light cone.
    """
    if timeframe is Timeframe.PLAIN:
        return _shift(_coin(amps, c, s), alpha_l, alpha_r)
    return _coin(_shift(_coin(amps, c, s), alpha_l, alpha_r), c, s)


def stepper(config: WalkConfig):
    """One matrix-free walk step as a function of an amplitude stack.

    The returned function maps a real or complex array of shape
    (..., 2, n_sites) to the stack one step later, in the same dtype.  The
    coin factors are computed here, once, not at every step.
    """
    c, s, al, ar = step_factors(config)
    timeframe = config.timeframe
    return lambda amps: step_sites(amps, c, s, al, ar, timeframe)


def apply_step(amps: np.ndarray, config: WalkConfig) -> np.ndarray:
    """One walk step, matrix-free, of an amplitude array of shape (..., 2, n_sites).

    A complex array steps in complex arithmetic and anything else in real
    arithmetic.
    """
    amps = np.asarray(amps)
    if amps.ndim < 2 or amps.shape[-2:] != (2, config.n_sites):
        raise ValueError(
            f"amplitudes of shape {amps.shape} do not fit (..., 2, {config.n_sites})"
        )
    dtype = np.complex128 if amps.dtype.kind == "c" else np.float64
    return stepper(config)(amps.astype(dtype, copy=False))


def build_unitary(config: WalkConfig) -> np.ndarray:
    """Dense real walk unitary of dimension 2*n_sites: column k is the step of basis state k."""
    if config.n_sites < 2:
        raise ValueError(f"build_unitary needs n_sites >= 2, got {config.n_sites}")
    n = config.n_sites
    # basis[k] is state k as a (2, N) walker held with k fastest: the stepped
    # stack, read as [x, coin, k], is U in row order without a copy.
    basis = np.eye(2 * n).reshape(n, 2, 2 * n).transpose(2, 1, 0)
    return stepper(config)(basis).transpose(2, 1, 0).reshape(2 * n, 2 * n)


def chiral_frames(config: WalkConfig) -> np.ndarray:
    """Per-site eigenvectors of the walk's chiral operator, shape (2, n_sites, 2).

    frames[0, x] is site x's (L, R) spinor with eigenvalue +1 and
    frames[1, x] the one with -1.  The chiral operator is site-local:
    sigma_x on every coin in the symmetrized timeframe, and
    C^(-1/2) sigma_x C^(1/2) in the plain one, whose operator is
    C^(-1/2) U_sym C^(1/2).  It maps U to U^dagger in either frame, so
    (U + U^dagger)/2 has no matrix element between the +1 and -1 spinors
    and (U - U^dagger)/2 only such elements.
    """
    sigma_x = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)  # columns: the +1, -1 spinors
    half = np.zeros(config.n_sites)
    if config.timeframe is Timeframe.PLAIN:
        half = config.angles() / 2.0
    c, s = np.cos(half), np.sin(half)
    turn = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return (turn @ sigma_x).transpose(2, 0, 1)  # turn = C^(-1/2) = R(-theta/2) per site


def chiral_operator(n_sites: int) -> np.ndarray:
    """Block-diagonal sigma_x on every coin: swaps L_x and R_x."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    g = np.zeros((2 * n_sites, 2 * n_sites), dtype=np.complex128)
    i = 2 * np.arange(n_sites)
    g[i, i + 1] = 1.0
    g[i + 1, i] = 1.0
    return g
