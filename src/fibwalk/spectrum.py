"""Quasienergy spectra, gap geometry, edge-mode classification, gap labels.

Eigenpairs of the walk unitary U come from its commuting parts
H = (U + U^dagger)/2, with eigenvalues cos E, and A = (U - U^dagger)/2,
whose Hermitian partner -iA has eigenvalues -sin E.  An eigh of H gives
the cos E values and a basis V; the product A V then holds every block
needed to split a numerically degenerate cos E cluster by the sign of E:
a cluster's small block is V_blk^dagger (A V)_blk.

With real boundary phases (the default) U is real, and the walk's
site-local chiral operator Gamma (see walk.chiral_frames) maps U to
U^dagger.  So H commutes with Gamma and A anticommutes with it: in the
per-site Gamma = +1 and -1 spinors, H is two N x N sector blocks and A
only couples the sectors.  The solver diagonalises the two blocks on
their own, takes A V from A's two off-sector blocks, and lifts each
eigenvector to site amplitudes in O(N); everything but the small
cluster rotations is real.  A complex U has no such split and is solved
as one 2N x 2N sector.  Quasienergies live on the circle (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverConvergenceError
from .sequence import GOLDEN_RATIO_INV
from .walk import WalkConfig, build_unitary, chiral_frames, stepper

MAX_DENSE_SITES = 5000
RESIDUAL_TOLERANCE = 1e-8
RESIDUAL_BLOCK = 128  # states per step of the residual check: bounds its temporaries
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
    edge_sites leftmost and rightmost sites.
    """

    energies: np.ndarray
    states: np.ndarray  # column k belongs to energies[k]
    left_mass: np.ndarray
    right_mass: np.ndarray
    config: WalkConfig
    edge_sites: int
    max_residual: float

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


def _sector_blocks(u: np.ndarray, frames: np.ndarray):
    """H's (+, +) and (-, -) blocks and A's (+, -) block of a real U, in the chiral frames.

    With F the block-diagonal frames, block (a, b) of F^T U F is the N x N
    array sum over coins c, d of F[a, :, c] U[c::2, d::2] F[b, :, d], made
    here by slicing U.  H's blocks are the symmetric parts of (+, +) and
    (-, -); A's (+, -) block is ((+, -) - (-, +)^T)/2, and A's (-, +) block
    is minus its transpose.
    """
    rows = [[frames[a, :, 0, None] * u[0::2, d::2] + frames[a, :, 1, None] * u[1::2, d::2]
             for d in (0, 1)] for a in (0, 1)]
    w = [[rows[a][0] * frames[b, :, 0] + rows[a][1] * frames[b, :, 1] for b in (0, 1)]
         for a in (0, 1)]
    return (w[0][0] + w[0][0].T) / 2.0, (w[1][1] + w[1][1].T) / 2.0, (w[0][1] - w[1][0].T) / 2.0


@dataclass
class _Eigenbasis:
    """Eigenvectors of H = (U + U^dagger)/2, sector by sector, and A applied to them.

    Row k of basis is an eigenvector of H with eigenvalue cos[k] and row k
    of anti is A times it.  A complex U is one sector: rows hold 2N site
    amplitudes and frames is None.  A real U has two chiral sectors, +1 (0)
    and -1 (1): a row holds N amplitudes, one per site along the spinors
    frames[sector[k]] of shape (N, 2), and since H keeps each sector and A
    maps each into the other, row k of anti lies in sector 1 - sector[k].
    """

    cos: np.ndarray
    basis: np.ndarray
    anti: np.ndarray
    sector: np.ndarray | None = None
    frames: np.ndarray | None = None

    @classmethod
    def full(cls, u: np.ndarray) -> _Eigenbasis:
        cos, basis = np.linalg.eigh((u + u.conj().T) / 2.0)
        anti = ((u - u.conj().T) / 2.0) @ basis
        return cls(cos, basis.T, anti.T)

    @classmethod
    def chiral(cls, u: np.ndarray, frames: np.ndarray) -> _Eigenbasis:
        h_plus, h_minus, a_pm = _sector_blocks(u, frames)
        cos_p, v_p = np.linalg.eigh(h_plus)
        cos_m, v_m = np.linalg.eigh(h_minus)
        # A takes a + vector v to -a_pm^T v and a - vector w to a_pm w.
        anti = np.concatenate([-(v_p.T @ a_pm), v_m.T @ a_pm.T])
        return cls(np.concatenate([cos_p, cos_m]), np.concatenate([v_p.T, v_m.T]), anti,
                   np.repeat([0, 1], len(cos_p)), frames)

    def blocks(self, rows: np.ndarray) -> np.ndarray:
        """The (K, m, m) stack V_blk^dagger A V_blk for a (K, m) array of row indices."""
        small = self.basis[rows].conj() @ self.anti[rows].transpose(0, 2, 1)
        if self.frames is None:
            return small
        sector = self.sector[rows]
        return small * (sector[:, :, None] != sector[:, None, :])

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Site amplitudes of the given rows, shape rows.shape + (2N,)."""
        if self.frames is None:
            return self.basis[rows]
        spinors = self.frames[self.sector[rows]]  # (..., N, 2)
        return (spinors * self.basis[rows][..., None]).reshape(rows.shape + (self.frames[0].size,))


def _hermitian_eigh(small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of each trailing square matrix."""
    return np.linalg.eigh((small + small.conj().swapaxes(-1, -2)) / 2.0)


def _turn(rot: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rot^T @ rows for each (m, m) rotation and (m, 2N) row block of two stacks.

    Real rows meet rot's real and imaginary parts in two real products
    instead of being copied to complex first.
    """
    rot = rot.swapaxes(-1, -2)
    if np.iscomplexobj(rows):
        return rot @ rows
    out = np.empty(rows.shape, dtype=np.complex128)
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


def quasienergies(config: WalkConfig, edge_sites: int | None = None) -> QuasienergySpectrum:
    """Full spectrum of the walk unitary by dense diagonalization.

    A real U is solved in its two chiral sectors: two N x N eigh calls of
    H's sector blocks instead of one 2N x 2N, with A V from A's N x N
    off-sector blocks.  A complex U is one sector.  Each cluster of equal
    cos E is split by sin E, and each eigenvector is written to site
    amplitudes straight in its sorted slot.  The eigen-residuals
    ||U psi - lambda psi|| take U psi from the matrix-free walk step.
    Raises SolverConvergenceError if any exceeds 1e-8, or if U is not
    finite.
    """
    if config.n_sites > MAX_DENSE_SITES:
        raise ValueError(
            f"dense solver limited to {MAX_DENSE_SITES} sites, got {config.n_sites}"
        )
    m = _edge_sites(config.n_sites, edge_sites)
    u = build_unitary(config)
    if not np.isfinite(u).all():  # LAPACK may raise on NaN rather than return it
        _check_residual(math.nan, config)
    if np.iscomplexobj(u):
        eig = _Eigenbasis.full(u)
    else:
        eig = _Eigenbasis.chiral(u, chiral_frames(config))
    del u

    # Joint eigenbasis: inside each degenerate cos E cluster, resolve by the
    # skew part -iA (eigenvalues -sin E), then re-resolve the cos part, which
    # is diag(cos E) in the cluster's vectors of V, inside sin-degenerate
    # sub-blocks -- a degenerate sin spectrum would otherwise re-mix states
    # whose cos values the first pass had already separated.  A cluster
    # whose sin values all agree within SUBCLUSTER_TOLERANCE keeps V's
    # vectors, which then hold its states to that tolerance: for real U
    # each lies in one chiral sector, and the cluster's skew block would
    # turn a left and a right zero mode into (v1 +- i v2)/sqrt(2).  Each
    # eigenvalue is its state's Rayleigh quotient cos E - i sin E, taken in
    # the cluster's small block.
    order = np.argsort(eig.cos, kind="stable")
    cos_e = eig.cos[order]
    lam = cos_e + eig.blocks(order[:, None])[:, 0, 0].astype(np.complex128)
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
        sin_vals, rot = _hermitian_eigh(-1j * eig.blocks(order[cluster][None])[0])
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

    # Site amplitudes, row k for energies[k], each written straight into its slot.
    n = config.n_sites
    vecs = np.empty((2 * n, 2 * n), dtype=np.complex128)
    kept = np.ones(2 * n, dtype=bool)
    for pos, rot, _ in turned:
        kept[pos] = False
        vecs[slot[pos]] = _turn(rot, eig.lift(order[pos]))
    kept = np.flatnonzero(kept)
    vecs[slot[kept]] = eig.lift(order[kept])
    del eig

    # Residuals a block of states at a time, each state one (2, N) walker.
    step, squares = stepper(config), np.empty(2 * n)
    for lo in range(0, 2 * n, RESIDUAL_BLOCK):
        rows = vecs[lo:lo + RESIDUAL_BLOCK]
        uv = step(rows.reshape(-1, n, 2).transpose(0, 2, 1)).transpose(0, 2, 1).reshape(rows.shape)
        uv -= rows * lam[lo:lo + RESIDUAL_BLOCK, None]
        flat = uv.view(np.float64)
        squares[lo:lo + len(rows)] = np.einsum("ij,ij->i", flat, flat)
    max_residual = float(np.sqrt(squares.max()))
    _check_residual(max_residual, config)

    vecs = vecs.T  # column k holds the state of energies[k]
    left, right = _boundary_masses(vecs, n, m)
    return QuasienergySpectrum(
        energies=energies,
        states=vecs,
        left_mass=left,
        right_mass=right,
        config=config,
        edge_sites=m,
        max_residual=max_residual,
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
