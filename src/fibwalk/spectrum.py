"""Quasienergy spectra, gap geometry, edge-mode classification, gap labels.

Eigenpairs of the walk unitary U come from its commuting parts
H = (U + U^dagger)/2, with eigenvalues cos E, and A = (U - U^dagger)/2,
whose Hermitian partner -iA has eigenvalues -sin E.  An eigh of H gives
the cos E values and a basis V; the product A V then holds every block
needed to split a numerically degenerate cos E cluster by the sign of E:
a cluster's small block is V_blk^dagger (A V)_blk.

The boundary phases are real (+-1), so U is real, and the walk's
site-local chiral operator Gamma (see walk.chiral_frames) maps U to
U^dagger.  So H commutes with Gamma and A anticommutes with it: in the
per-site Gamma = +1 and -1 spinors, H is two N x N sector blocks and A
only couples the sectors.  U couples only neighbouring sites, so these
blocks are tridiagonal, and their diagonals are read from one step of six
probe walkers; the dense U is never built.  The solver diagonalises the
two blocks on their own, takes A V from A's two off-sector blocks, and
lifts each eigenvector to site amplitudes in O(N).  A cluster of more
than two states is split by a real SVD of its cross-sector block;
everything but the cluster rotations is real.

The eigenvectors are streamed, a block of states at a time, through the
eigen-residual check and the edge masses, which are all the analysis
reads; the 2N x 2N state matrix is assembled from the same stream only
when a caller reads QuasienergySpectrum.states.
Quasienergies live on the circle (-pi, pi].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import SolverConvergenceError
from .sequence import GOLDEN_RATIO_INV
from .walk import WalkConfig, chiral_frames, stepper
# build_unitary stays importable from here: bench/tracing.py wraps it by name.
from .walk import build_unitary  # noqa: F401

MAX_DENSE_SITES = 5000
RESIDUAL_TOLERANCE = 1e-8
STATE_BLOCK = 128  # states lifted, checked and measured per step: bounds their temporaries
# cos E values closer than this share one joint-diagonalization cluster.
# Near-degenerate pairs just outside the cluster would come out of eigh
# with mixed eigenvectors (error ~ eps/gap) and break the 1e-8 residual
# contract, so the cut is generous; a third pass inside each cluster
# (below) undoes any re-mixing the generous cut allows.
CLUSTER_TOLERANCE = 1e-6
# states whose sin E agree within this are treated as one sub-block when
# the cos part is re-resolved; unresolved blocks then hold eigenvalues
# within ~4e-9 of each other on the circle, comfortably inside the
# residual budget.
SUBCLUSTER_TOLERANCE = 3e-9
# a cluster whose cos E values all agree within this is flat in cos E to
# rounding: re-resolving the cos part there would only mix its states by
# noise, undoing the sin E resolution, so that pass is skipped.
FLAT_COS_TOLERANCE = 1e-12

DEFAULT_MIN_GAP_WIDTH = 0.02
DEFAULT_WEIGHT_THRESHOLD = 0.6
DEFAULT_PIN_TOLERANCE = 1e-3
DEFAULT_Q_MAX = 5
DEFAULT_LABEL_TOLERANCE = 1e-3


def _edge_sites(n_sites: int, edge_sites: int | None) -> int:
    """Sites per edge for boundary weights: edge_sites, by default max(5, N/50)."""
    if edge_sites is None:
        return max(5, math.ceil(n_sites / 50))
    if edge_sites < 1:
        raise ValueError(f"edge_sites must be >= 1, got {edge_sites}")
    return edge_sites


@dataclass
class QuasienergySpectrum:
    """All 2N eigenpairs of a walk unitary, sorted by quasienergy.

    left_mass and right_mass hold each state's probability on the
    edge_sites leftmost and rightmost sites.  The states are assembled on
    the first read of states: state_blocks yields (slots, rows) pairs, row
    i holding the 2N site amplitudes of the state of energies[slots[i]],
    and is dropped once they are written.
    """

    energies: np.ndarray
    left_mass: np.ndarray
    right_mass: np.ndarray
    config: WalkConfig
    edge_sites: int
    max_residual: float
    state_blocks: Callable[[], Iterator[tuple[np.ndarray, np.ndarray]]] | None = field(
        repr=False, compare=False)

    @cached_property
    def states(self) -> np.ndarray:
        """The eigenvectors as a (2N, 2N) array; column k belongs to energies[k]."""
        size = 2 * self.config.n_sites
        rows = np.empty((size, size), dtype=np.complex128)
        for slots, block in self.state_blocks():
            rows[slots] = block
        self.state_blocks = None  # the factors are no longer needed
        return rows.T

    @property
    def boundary_weights(self) -> np.ndarray:
        """Probability mass on both edges, per state."""
        return self.left_mass + self.right_mass


@dataclass(frozen=True)
class Gap:
    """Maximal eigenvalue-free arc on the quasienergy circle.

    upper may exceed pi when the arc wraps across the +-pi seam; ids is
    the integrated density of states below the arc midpoint, counted
    from E = -pi.
    """

    lower: float
    upper: float
    width: float
    ids: float


@dataclass(frozen=True)
class EdgeMode:
    energy: float
    pinning: str  # "zero" | "pi" | "unpinned"
    side: str  # "left" | "right" | "both"
    boundary_weight: float
    state_index: int


def _boundary_masses(states: np.ndarray, n_sites: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Probability mass on the m leftmost and on the m rightmost sites, per column."""
    m = min(m, n_sites)
    left = (np.abs(states[:2 * m]) ** 2).sum(axis=0)
    right = (np.abs(states[2 * max(n_sites - m, m):]) ** 2).sum(axis=0)
    return left, right


def _sector_blocks(config: WalkConfig, frames: np.ndarray) -> Iterator[np.ndarray]:
    """H's (+, +) and (-, -) blocks and A's (+, -) block of a real U, in the chiral frames.

    With F the block-diagonal frames, block (a, b) of F^T U F has the
    entries sum over coins c, d of F[a, x, c] U[(x, c), (y, d)] F[b, y, d].
    U couples only neighbouring sites, so one real step of six probe
    walkers, coin d on every third site from offset o, reads all of
    U[(x, c), (x + k, d)] for k = -1, 0, 1: site x + k is the one probed
    site within reach of x.  H's blocks are the symmetric parts of (+, +)
    and (-, -); A's (+, -) block is ((+, -) - (-, +)^T)/2, and A's (-, +)
    block is minus its transpose.  The three diagonals of each are formed
    up front, and raise SolverConvergenceError if not finite; the blocks
    are then yielded in that order as dense (N, N) arrays, zero off the
    diagonals, each built only when asked for.
    """
    n = config.n_sites
    if n < 2:  # build_unitary's limit, kept by the solver that builds no dense U
        raise ValueError(f"build_unitary needs n_sites >= 2, got {n}")
    probes = np.zeros((3, 2, 2, n))  # [offset o, probed coin d, coin, site]
    for o in range(3):
        probes[o, 0, 0, o::3] = probes[o, 1, 1, o::3] = 1.0
    stepped = stepper(config)(probes)
    w = {}  # w[k][a, b, i]: block (a, b) at site pair (x, x + k), x the i-th site with a partner
    for k in (-1, 0, 1):
        x = np.arange(max(0, -k), n - max(0, k))
        g = stepped[(x + k) % 3, :, :, x]  # g[i, d, c] = U[(x, c), (x + k, d)]
        fx, fy = frames[:, x], frames[:, x + k]
        rows = fx[:, :, 0, None] * g[None, :, :, 0] + fx[:, :, 1, None] * g[None, :, :, 1]
        w[k] = rows[:, None, :, 0] * fy[None, :, :, 0] + rows[:, None, :, 1] * fy[None, :, :, 1]
    bands = [((w[0][a, b] + sign * w[0][b, a]) / 2.0,
              (w[1][a, b] + sign * w[-1][b, a]) / 2.0,
              (w[-1][a, b] + sign * w[1][b, a]) / 2.0)
             for a, b, sign in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -1.0))]
    if not all(np.isfinite(diagonal).all() for band in bands for diagonal in band):
        _check_residual(math.nan, config)  # LAPACK may raise on NaN rather than return it
    x = np.arange(n)
    for diagonal, upper, lower in bands:
        block = np.zeros((n, n))
        block[x, x] = diagonal
        block[x[:-1], x[1:]] = upper
        block[x[1:], x[:-1]] = lower
        yield block


@dataclass
class _Eigenbasis:
    """Eigenvectors of H = (U + U^T)/2, sector by sector, and A applied to them.

    Row k of basis is an eigenvector of H with eigenvalue cos[k] and row k
    of anti is A times it.  U has two chiral sectors, +1 (0) and -1 (1): a
    row holds N amplitudes, one per site along the spinors
    frames[sector[k]] of shape (N, 2), and since H keeps each sector and A
    maps each into the other, row k of anti lies in sector 1 - sector[k].
    """

    cos: np.ndarray
    basis: np.ndarray
    anti: np.ndarray
    sector: np.ndarray
    frames: np.ndarray

    @classmethod
    def chiral(cls, blocks: Iterator[np.ndarray], frames: np.ndarray) -> _Eigenbasis:
        """Solve the sector blocks as _sector_blocks yields them, holding one dense block at a time."""
        cos_p, v_p = np.linalg.eigh(next(blocks))
        cos_m, v_m = np.linalg.eigh(next(blocks))
        a_pm, n = next(blocks), len(cos_p)
        # A takes a + vector v to -a_pm^T v and a - vector w to a_pm w.
        anti = np.empty((2 * n, n))
        np.negative(np.matmul(v_p.T, a_pm, out=anti[:n]), out=anti[:n])
        np.matmul(v_m.T, a_pm.T, out=anti[n:])
        del a_pm
        return cls(np.concatenate([cos_p, cos_m]), np.concatenate([v_p.T, v_m.T]), anti,
                   np.repeat([0, 1], n), frames)

    def blocks(self, rows: np.ndarray) -> np.ndarray:
        """The (K, m, m) stack V_blk^T A V_blk for a (K, m) array of row indices."""
        small = self.basis[rows] @ self.anti[rows].transpose(0, 2, 1)
        sector = self.sector[rows]
        return small * (sector[:, :, None] != sector[:, None, :])

    def split(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sin E values, ascending, and the rotation of one cluster's rows that resolves them.

        These are the eigenpairs of the Hermitian part of -i V_blk^T A V_blk.
        That block is -i [[0, X], [-X^T, 0]] across the two sectors,
        X = (B_+- - B_-+^T)/2, and X = P S Q^T gives the values +-s with
        vectors (p, +-i q)/sqrt(2), and zeros from X's null space: a real
        SVD instead of a complex eigh.  A cluster with one sector empty has
        a zero block and keeps its rows.
        """
        plus = np.flatnonzero(self.sector[rows] == 0)
        minus = np.flatnonzero(self.sector[rows] == 1)
        size, k = len(rows), min(len(plus), len(minus))
        if k == 0:
            return np.zeros(size), np.eye(size, dtype=np.complex128)
        rp, rm = rows[plus], rows[minus]
        x = (self.basis[rp] @ self.anti[rm].T - (self.basis[rm] @ self.anti[rp].T).T) / 2.0
        p, sv, qt = np.linalg.svd(x)
        rot = np.zeros((size, size), dtype=np.complex128)
        cols, q = np.arange(size), qt[:k].T * math.sqrt(0.5)
        rot[plus[:, None], cols[:2 * k]] = np.tile(p[:, :k] * math.sqrt(0.5), 2)
        rot[minus[:, None], cols[:2 * k]] = np.concatenate([1j * q, -1j * q], axis=1)
        if len(plus) > k:
            rot[plus[:, None], cols[2 * k:]] = p[:, k:]
        else:
            rot[minus[:, None], cols[2 * k:]] = qt[k:].T
        values = np.concatenate([sv, -sv, np.zeros(size - 2 * k)])
        ascending = np.argsort(values, kind="stable")
        return values[ascending], rot[:, ascending]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Real site amplitudes of the given rows, shape rows.shape + (2N,)."""
        spinors = self.frames[self.sector[rows]]  # (..., N, 2)
        return (spinors * self.basis[rows][..., None]).reshape(rows.shape + (self.frames[0].size,))


def _hermitian_eigh(small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of each trailing square matrix."""
    return np.linalg.eigh((small + small.conj().swapaxes(-1, -2)) / 2.0)


def _turn(rot: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rot^T @ rows for each (m, j) rotation and real (m, 2N) row block of two stacks.

    The rows meet rot's real and imaginary parts in two real products
    instead of being copied to complex first.
    """
    rot = rot.swapaxes(-1, -2)
    out = np.empty(rot.shape[:-1] + rows.shape[-1:], dtype=np.complex128)
    out.real = rot.real @ rows
    out.imag = rot.imag @ rows
    return out


def _cluster_bounds(values: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of sorted values with steps <= tolerance."""
    splits = np.flatnonzero(np.diff(values) > tolerance) + 1
    return np.r_[0, splits], np.r_[splits, len(values)]


def _check_residual(max_residual: float, config: WalkConfig) -> None:
    if not max_residual <= RESIDUAL_TOLERANCE:
        raise SolverConvergenceError(
            f"eigen-residual {max_residual:.3e} exceeds {RESIDUAL_TOLERANCE:.1e}",
            config=config,
        )


def _state_blocks(
    eig: _Eigenbasis, order: np.ndarray, turned: list, slot: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every state's site amplitudes, as (slots, rows) blocks of at most STATE_BLOCK rows.

    Row i of rows is the state of sorted slot slots[i].  The rows of the
    turned clusters are lifted a stack of clusters at a time and turned a
    block of columns at a time; every other row is lifted as it is.
    """
    kept = np.ones(len(order), dtype=bool)
    for pos, rot, _ in turned:
        kept[pos] = False
        stack = max(1, STATE_BLOCK // pos.shape[1])
        for k in range(0, len(pos), stack):
            rows = eig.lift(order[pos[k:k + stack]])
            for j in range(0, pos.shape[1], STATE_BLOCK):
                cols = slice(j, j + STATE_BLOCK)
                yield (slot[pos[k:k + stack, cols]].ravel(),
                       _turn(rot[k:k + stack, :, cols], rows).reshape(-1, rows.shape[-1]))
    kept = np.flatnonzero(kept)
    for k in range(0, len(kept), STATE_BLOCK):
        yield slot[kept[k:k + STATE_BLOCK]], eig.lift(order[kept[k:k + STATE_BLOCK]])


def _residual_squares(step, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """||U psi - lam psi||^2 for each row psi of a (b, 2N) block, U psi from the complex walk step."""
    rows = rows.astype(np.complex128, copy=False)
    uv = step(rows.reshape(len(rows), -1, 2).transpose(0, 2, 1)).transpose(0, 2, 1).reshape(rows.shape)
    uv -= rows * lam[:, None]
    flat = uv.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def quasienergies(config: WalkConfig, edge_sites: int | None = None) -> QuasienergySpectrum:
    """Full spectrum of the walk unitary by dense diagonalization.

    U is solved in its two chiral sectors: two N x N eigh calls of H's
    sector blocks instead of one 2N x 2N, with A V from A's N x N
    off-sector block, all three read from probe steps rather than from a
    dense U and built one at a time.  Each cluster of equal cos E is split
    by sin E.  The eigenvectors are then streamed a block of states at a
    time: each block's eigen-residuals ||U psi - lambda psi||, with U psi
    from the matrix-free walk step, and its edge masses are taken, and the
    block is dropped.  So the solver holds no 2N x 2N array; the states
    are assembled from the same stream on the first read of the result's
    states.  Raises SolverConvergenceError if any residual exceeds 1e-8,
    or if the operator is not finite, and ValueError below two sites.
    """
    if config.n_sites > MAX_DENSE_SITES:
        raise ValueError(
            f"dense solver limited to {MAX_DENSE_SITES} sites, got {config.n_sites}"
        )
    m = _edge_sites(config.n_sites, edge_sites)
    frames = chiral_frames(config)
    eig = _Eigenbasis.chiral(_sector_blocks(config, frames), frames)

    # Joint eigenbasis: inside each degenerate cos E cluster, resolve by the
    # skew part -iA (eigenvalues -sin E), then re-resolve the cos part, which
    # is diag(cos E) in the cluster's vectors of V, inside sin-degenerate
    # sub-blocks -- a degenerate sin spectrum would otherwise re-mix states
    # whose cos values the first pass had already separated.  A cluster
    # whose sin values all agree within SUBCLUSTER_TOLERANCE keeps V's
    # vectors, which then hold its states to that tolerance: each lies in
    # one chiral sector, and the cluster's skew block would turn a left and
    # a right zero mode into (v1 +- i v2)/sqrt(2).  Each eigenvalue is its
    # state's Rayleigh quotient cos E - i sin E, taken in the cluster's
    # small block; a state's own skew element is zero, as A only couples
    # the sectors.
    order = np.argsort(eig.cos, kind="stable")
    cos_e = eig.cos[order]
    lam = cos_e.astype(np.complex128)
    lo, hi = _cluster_bounds(cos_e, CLUSTER_TOLERANCE)

    # Turned clusters as (positions (K, m), rotations (K, m, m), sin parts
    # (K, m)).  The two-state clusters, nearly all of them at a generic
    # point, go in one stack; a pair that splits has two distinct sin
    # values, so it needs no cos re-resolution.
    pairs = lo[hi - lo == 2, None] + np.arange(2)
    sin_vals, rot = _hermitian_eigh(-1j * eig.blocks(order[pairs]))
    split = sin_vals[:, 1] - sin_vals[:, 0] > SUBCLUSTER_TOLERANCE
    turned = [(pairs[split], rot[split], sin_vals[split])]
    for c_lo, c_hi in zip(lo[hi - lo > 2], hi[hi - lo > 2]):
        cluster = np.arange(c_lo, c_hi)
        sin_vals, rot = eig.split(order[cluster])
        if sin_vals[-1] - sin_vals[0] <= SUBCLUSTER_TOLERANCE:
            continue
        sin_mix = sin_vals.copy()
        if cos_e[c_hi - 1] - cos_e[c_lo] > FLAT_COS_TOLERANCE:
            for sub_lo, sub_hi in zip(*_cluster_bounds(sin_vals, SUBCLUSTER_TOLERANCE)):
                if sub_hi - sub_lo < 2:
                    continue
                sub = rot[:, sub_lo:sub_hi]
                _, sub_rot = _hermitian_eigh(sub.conj().T @ (cos_e[cluster, None] * sub))
                rot[:, sub_lo:sub_hi] = sub @ sub_rot
                sin_mix[sub_lo:sub_hi] = (np.abs(sub_rot) ** 2).T @ sin_vals[sub_lo:sub_hi]
        turned.append((cluster[None], rot[None], sin_mix[None]))
    for pos, rot, sin_mix in turned:
        lam[pos] = np.einsum("kij,ki->kj", np.abs(rot) ** 2, cos_e[pos]) + 1j * sin_mix

    energies = -np.angle(lam)
    energies[energies <= -np.pi] = np.pi
    by_energy = np.argsort(energies, kind="stable")
    slot = np.empty_like(by_energy)
    slot[by_energy] = np.arange(len(by_energy))
    energies, lam = energies[by_energy], lam[by_energy]

    # Each block of states is checked and measured, then dropped.  Lifting
    # the states needs V and the rotations only, so A V is released here.
    eig.anti = None
    state_blocks = partial(_state_blocks, eig, order, turned, slot)
    n = config.n_sites
    step = stepper(config)
    squares, left, right = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
    for slots, rows in state_blocks():
        squares[slots] = _residual_squares(step, rows, lam[slots])
        left[slots], right[slots] = _boundary_masses(rows.T, n, m)
    max_residual = float(np.sqrt(squares.max()))
    _check_residual(max_residual, config)
    return QuasienergySpectrum(
        energies=energies,
        left_mass=left,
        right_mass=right,
        config=config,
        edge_sites=m,
        max_residual=max_residual,
        state_blocks=state_blocks,
    )


def _circle_midpoint(lower: float, upper: float) -> float:
    mid = (lower + upper) / 2.0
    return mid - 2.0 * np.pi if mid > np.pi else mid


def find_gaps(spectrum: QuasienergySpectrum, min_width: float) -> list[Gap]:
    """Maximal empty arcs wider than min_width, sorted by circle midpoint."""
    if not min_width > 0.0:
        raise ValueError(f"min_width must be > 0, got {min_width}")
    e = spectrum.energies
    k = len(e)
    gaps = []
    widths = np.diff(e)
    for j in np.flatnonzero(widths > min_width):
        gaps.append(Gap(float(e[j]), float(e[j + 1]), float(widths[j]), (j + 1) / k))
    wrap_width = float(e[0] + 2.0 * np.pi - e[-1])
    if wrap_width > min_width:
        mid = _circle_midpoint(float(e[-1]), float(e[0] + 2.0 * np.pi))
        ids = 0.0 if mid < e[0] else 1.0
        gaps.append(Gap(float(e[-1]), float(e[0] + 2.0 * np.pi), wrap_width, ids))
    gaps.sort(key=lambda g: _circle_midpoint(g.lower, g.upper))
    return gaps


def classify_edge_modes(
    spectrum: QuasienergySpectrum,
    gaps: list[Gap],
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
    pin_tolerance: float = DEFAULT_PIN_TOLERANCE,
) -> list[EdgeMode]:
    """Boundary-localized states inside spectral gaps.

    Gaps are maximal empty arcs, so an in-gap eigenstate always sits at an
    arc endpoint; each gap is therefore extended through any adjacent
    eigenvalues whose boundary weight reaches the threshold, and the
    swallowed states are classified.  Pinning compares |E| against 0 and pi
    within pin_tolerance.
    """
    if not 0.0 < weight_threshold < 1.0:
        raise ValueError(f"weight_threshold must be in (0, 1), got {weight_threshold}")
    if not pin_tolerance >= 0.0:
        raise ValueError(f"pin_tolerance must be >= 0, got {pin_tolerance}")
    left, right = spectrum.left_mass, spectrum.right_mass
    weights = spectrum.boundary_weights
    e = spectrum.energies
    k = len(e)

    found: dict[int, None] = {}
    for gap in gaps:
        j_lo = int(np.searchsorted(e, gap.lower, side="right")) - 1
        for start, step in ((j_lo, -1), (j_lo + 1, 1)):  # outward from the gap
            for i in range(k):  # full-circle guard
                idx = (start + step * i) % k
                if weights[idx] < weight_threshold:
                    break
                found.setdefault(idx)

    modes = []
    for idx in sorted(found, key=lambda i: e[i]):
        en = float(e[idx])
        if abs(en) <= pin_tolerance:
            pinning = "zero"
        elif abs(np.pi - abs(en)) <= pin_tolerance:
            pinning = "pi"
        else:
            pinning = "unpinned"
        if left[idx] > 3.0 * right[idx]:
            side = "left"
        elif right[idx] > 3.0 * left[idx]:
            side = "right"
        else:
            side = "both"
        modes.append(EdgeMode(en, pinning, side, float(weights[idx]), int(idx)))
    return modes


def gap_labels(
    gaps: list[Gap],
    q_max: int = DEFAULT_Q_MAX,
    tolerance: float = DEFAULT_LABEL_TOLERANCE,
) -> list[tuple[int, int] | None]:
    """Integer (p, q) with ids ~ p + q/tau per gap, or None when nothing fits."""
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    labels: list[tuple[int, int] | None] = []
    q_order = [0] + [q * sign for q in range(1, q_max + 1) for sign in (1, -1)]
    for gap in gaps:
        best: tuple[int, int] | None = None
        best_err = math.inf
        for q in q_order:
            p = round(gap.ids - q * GOLDEN_RATIO_INV)
            err = abs(gap.ids - p - q * GOLDEN_RATIO_INV)
            if err < best_err - 1e-15:
                best, best_err = (p, q), err
        labels.append(best if best_err <= tolerance else None)
    return labels
