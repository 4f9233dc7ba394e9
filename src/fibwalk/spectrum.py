"""Quasienergy spectra, gap geometry, edge-mode classification, gap labels.

Eigenpairs of the walk unitary U come from its commuting parts
H = (U + U^dagger)/2, with eigenvalues cos E, and A = (U - U^dagger)/2,
whose Hermitian partner -iA has eigenvalues -sin E.  One eigh of H gives
the cos E values and a basis V; one product A V then holds every block
needed to split a numerically degenerate cos E cluster by the sign of E:
a cluster's small block is V_blk^dagger (A V)_blk.  The arithmetic runs in
U's own dtype, so with real boundary phases (the default) U is real and
only the small cluster rotations are complex.  Quasienergies live on the
circle (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverConvergenceError
from .sequence import GOLDEN_RATIO_INV
from .walk import WalkConfig, build_unitary

MAX_DENSE_SITES = 5000
RESIDUAL_TOLERANCE = 1e-8
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
    """All 2N eigenpairs of a walk unitary, sorted by quasienergy."""

    energies: np.ndarray
    states: np.ndarray  # column k belongs to energies[k]
    boundary_weights: np.ndarray
    config: WalkConfig
    edge_sites: int
    max_residual: float


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
    m = min(_edge_sites(n_sites, m), n_sites)
    prob = (np.abs(states) ** 2).reshape(n_sites, 2, states.shape[1]).sum(axis=1)
    left = prob[:m].sum(axis=0)
    right = prob[max(n_sites - m, m):].sum(axis=0)
    return left, right


def boundary_weights(states: np.ndarray, n_sites: int, m: int) -> np.ndarray:
    """Probability mass on the m leftmost plus m rightmost sites, per column."""
    left, right = _boundary_masses(states, n_sites, m)
    return left + right


def _hermitian_eigh(small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh((small + small.conj().T) / 2.0)


def _rotate(columns: np.ndarray, rotations) -> np.ndarray:
    """Complex copy of columns with each cluster [lo, hi) turned by its rotation.

    A real matrix meets the real and imaginary parts of each rotation in
    two real products instead of being copied to complex first.
    """
    out = columns.astype(np.complex128)
    for lo, hi, rot in rotations:
        block = columns[:, lo:hi]
        if np.iscomplexobj(block):
            out[:, lo:hi] = block @ rot
        else:
            out.real[:, lo:hi] = block @ rot.real
            out.imag[:, lo:hi] = block @ rot.imag
    return out


def _cluster_ranges(values: np.ndarray, tolerance: float):
    splits = np.flatnonzero(np.diff(values) > tolerance) + 1
    return zip(np.r_[0, splits], np.r_[splits, len(values)])


def quasienergies(config: WalkConfig, edge_sites: int | None = None) -> QuasienergySpectrum:
    """Full spectrum of the walk unitary by dense diagonalization.

    Raises SolverConvergenceError if any eigen-residual ||U psi - lambda psi||
    exceeds 1e-8.
    """
    if config.n_sites > MAX_DENSE_SITES:
        raise ValueError(
            f"dense solver limited to {MAX_DENSE_SITES} sites, got {config.n_sites}"
        )
    m = _edge_sites(config.n_sites, edge_sites)
    u = build_unitary(config)
    if not u.imag.any():
        u = np.ascontiguousarray(u.real)
    cos_e, basis = np.linalg.eigh((u + u.conj().T) / 2.0)
    anti_basis = ((u - u.conj().T) / 2.0) @ basis

    # Joint eigenbasis: inside each degenerate cos E cluster, resolve by the
    # skew part -iA (eigenvalues -sin E), then re-resolve the cos part, which
    # is diag(cos E) in the cluster's columns of V, inside sin-degenerate
    # sub-blocks -- a degenerate sin spectrum would otherwise re-mix states
    # whose cos values the first pass had already separated.  A cluster
    # whose sin values all agree within SUBCLUSTER_TOLERANCE keeps V's
    # columns, which then hold its states to that tolerance: for real U the
    # skew block is real antisymmetric, and its eigh would turn every such
    # pair, say a left and a right zero mode, into (v1 +- i v2)/sqrt(2).
    rotations = []
    for lo, hi in _cluster_ranges(cos_e, CLUSTER_TOLERANCE):
        if hi - lo < 2:
            continue
        skew = -1j * (basis[:, lo:hi].conj().T @ anti_basis[:, lo:hi])
        sin_vals, rot = _hermitian_eigh(skew)
        if sin_vals[-1] - sin_vals[0] <= SUBCLUSTER_TOLERANCE:
            continue
        if cos_e[hi - 1] - cos_e[lo] > FLAT_COS_TOLERANCE:
            for sub_lo, sub_hi in _cluster_ranges(sin_vals, SUBCLUSTER_TOLERANCE):
                if sub_hi - sub_lo < 2:
                    continue
                sub = rot[:, sub_lo:sub_hi]
                _, sub_rot = _hermitian_eigh(sub.conj().T @ (cos_e[lo:hi, None] * sub))
                rot[:, sub_lo:sub_hi] = sub @ sub_rot
        rotations.append((lo, hi, rot))
    del anti_basis

    vecs = _rotate(basis, rotations)
    uv = _rotate(u @ basis, rotations)
    del basis
    lam = np.sum(vecs.conj() * uv, axis=0)
    residuals = np.linalg.norm(uv - vecs * lam, axis=0)
    max_residual = float(residuals.max())
    if not max_residual <= RESIDUAL_TOLERANCE:
        raise SolverConvergenceError(
            f"eigen-residual {max_residual:.3e} exceeds {RESIDUAL_TOLERANCE:.1e}",
            config=config,
        )

    energies = -np.angle(lam)
    energies[energies <= -np.pi] = np.pi
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    vecs = vecs[:, order]

    return QuasienergySpectrum(
        energies=energies,
        states=vecs,
        boundary_weights=boundary_weights(vecs, config.n_sites, m),
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
    edge_sites: int | None = None,
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
    n = spectrum.config.n_sites
    m = spectrum.edge_sites if edge_sites is None else edge_sites
    left, right = _boundary_masses(spectrum.states, n, m)
    weights = left + right
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
