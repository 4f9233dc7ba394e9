"""Boundary Schur function and its winding number on the unit circle.

The reflection coefficient of the semi-infinite chain is built by the
backward Möbius recursion

    f_n(z) = (gamma_n + z^s f_{n+1}(z)) / (1 + gamma_n z^s f_{n+1}(z)),

initialized with f_N = 0 at the cutoff (transparent tail) and iterated to
the boundary value f_0.  Each step uses z^s with s = steps_per_site; the
default s = 2 counts both half-waves crossing a site, which is the
convention that yields winding numbers consistent with the pinned-mode
structure of the walk (see README), while s = 1 is the literal single-power
recursion.

A reflector with |gamma_n| = 1 maps the whole disk to the single point
gamma_n, so the recursion is short-circuited there: this is the masking
effect, and it also removes the 0/0 ambiguity the raw formula would hit at
isolated contour points.

One backward pass carries the derivative along with the value and returns
the pair (f_0, df_0/dz); winding_of_function consumes that pair and uses
|f'/f| to refine the contour where the phase of f_0 moves fast.

The winding number is the count of zeros of f_0 inside the disk, computed
two independent ways: phase unwrapping along the sampled contour with
adaptive bisection (winding_number), and root counting of the explicit
numerator/denominator polynomials (winding_oracle, small systems only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import IndeterminateRootError, NoReflectionError, PoleOnContourError
from .sequence import CoinAngles, Standard, Termination, angles_for
from .sequence import reflection_amplitudes, word_for_termination

DEFAULT_CUTOFF = 233
DEFAULT_SAMPLES = 2048
SWEEP_SAMPLES = 512
DEFAULT_MIN_MODULUS = 1e-8
DEFAULT_MAX_REFINE_DEPTH = 20

_DENOMINATOR_FLOOR = 1e-14
_RESIDUAL_GUARD = 0.01
_MAX_CONTOUR_POINTS = 1 << 21


@dataclass(frozen=True)
class SchurParams:
    """Reflection amplitudes (boundary first) plus contour settings."""

    gammas: np.ndarray
    cutoff: int | None = None
    steps_per_site: int = 2
    samples: int = DEFAULT_SAMPLES
    min_modulus: float = DEFAULT_MIN_MODULUS
    max_refine_depth: int = DEFAULT_MAX_REFINE_DEPTH

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gammas must be a non-empty 1-d real sequence")
        if np.max(np.abs(g)) > 1.0 + 1e-12:
            raise ValueError("reflection amplitudes must satisfy |gamma| <= 1")
        object.__setattr__(self, "gammas", np.clip(g, -1.0, 1.0))
        if self.cutoff is not None and not 1 <= self.cutoff <= g.size:
            raise ValueError(f"cutoff must be in [1, {g.size}], got {self.cutoff}")
        if self.steps_per_site not in (1, 2):
            raise ValueError(f"steps_per_site must be 1 or 2, got {self.steps_per_site}")
        if self.samples < 16:
            raise ValueError(f"samples must be >= 16, got {self.samples}")
        if self.min_modulus <= 0.0:
            raise ValueError(f"min_modulus must be > 0, got {self.min_modulus}")
        if self.max_refine_depth < 0:
            raise ValueError(f"max_refine_depth must be >= 0, got {self.max_refine_depth}")

    def active_gammas(self) -> np.ndarray:
        return self.gammas if self.cutoff is None else self.gammas[: self.cutoff]


@dataclass(frozen=True)
class WindingResult:
    winding: int
    raw_phase_sum: float  # turns, before rounding
    min_abs_f: float
    refine_depth_used: int
    ambiguous: bool


def reflection_params(
    theta_a: float,
    theta_b: float,
    n_sites: int = DEFAULT_CUTOFF,
    termination: Termination = Standard(),
    **contour,
) -> SchurParams:
    """SchurParams of a terminated Fibonacci walk: gamma_n = cos(theta_n)."""
    word = word_for_termination(n_sites, termination)
    angles = angles_for(word, CoinAngles(theta_a, theta_b))
    return SchurParams(gammas=reflection_amplitudes(angles), **contour)


def _eval_circle(
    gammas: np.ndarray, s: int, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(f_0, df_0/dz) at the points z, from one backward pass."""
    # d/dz of the Möbius step is (wf)' (1 - gamma^2) / den^2 with w = z^s.
    w = z**s
    dw = s * z ** (s - 1)
    reflectors = np.flatnonzero(np.abs(gammas) >= 1.0)
    if reflectors.size:
        start = int(reflectors[0])
        f = np.full(z.shape, complex(gammas[start]), dtype=np.complex128)
    else:
        start = gammas.size
        f = np.zeros(z.shape, dtype=np.complex128)
    fp = np.zeros(z.shape, dtype=np.complex128)
    for n in range(start - 1, -1, -1):
        g = gammas[n]
        wf = w * f
        dwf = dw * f + w * fp
        den = 1.0 + g * wf
        if np.min(np.abs(den)) < _DENOMINATOR_FLOOR:
            raise PoleOnContourError(
                f"Schur denominator vanished at recursion step {n} (gamma={float(g)!r})"
            )
        f = (g + wf) / den
        fp = dwf * (1.0 - g * g) / (den * den)
    return f, fp


def schur_eval(params: SchurParams, z):
    """f_0 at one point or an array of points with |z| <= 1."""
    zv = np.asarray(z, dtype=np.complex128)
    if np.max(np.abs(zv)) > 1.0 + 1e-12:
        raise ValueError("the Schur function is only evaluated on |z| <= 1")
    out, _ = _eval_circle(params.active_gammas(), params.steps_per_site, np.atleast_1d(zv))
    return complex(out[0]) if zv.ndim == 0 else out.reshape(zv.shape)


def symmetry_point_values(params: SchurParams) -> tuple[complex, complex]:
    """(f_0(+1), f_0(-1)); a diagnostic that cannot resolve higher windings."""
    vals = schur_eval(params, np.array([1.0, -1.0], dtype=np.complex128))
    return complex(vals[0]), complex(vals[1])


def winding_of_function(
    fn,
    samples: int = DEFAULT_SAMPLES,
    min_modulus: float = DEFAULT_MIN_MODULUS,
    max_refine_depth: int = DEFAULT_MAX_REFINE_DEPTH,
) -> WindingResult:
    """Winding of fn(z) around 0 as z runs over the unit circle.

    fn maps an array of contour points to the pair (f, df/dz), two complex
    arrays of the same shape.  Phase increments between neighbouring
    samples are taken in (-pi, pi]; an interval is bisected (up to
    max_refine_depth) when its increment exceeds pi/2, an endpoint modulus
    drops below min_modulus, or the chord |f_{k+1} - f_k| is comparable to
    the distance of the endpoints from the origin -- the last trigger
    catches zeros near the contour, whose nearly full-turn phase jumps
    would otherwise alias to small increments.

    A zero just inside paired with a zero just outside the circle traces a
    tight loop around the origin that samples alone cannot see (the loop
    closes on itself between neighbouring points).  Intervals with
    estimated phase motion |dz| * |f'/f| above one radian are therefore
    bisected too, which tracks such loops down to the refinement depth
    limit.

    The result is flagged ambiguous when refinement is exhausted, the
    minimum modulus stays below min_modulus, or the unwrapped total is not
    close to an integer.
    """
    if samples < 16:
        raise ValueError(f"samples must be >= 16, got {samples}")

    def _logd(fv, dfv):
        mods = np.abs(fv)
        with np.errstate(divide="ignore"):
            return np.where(mods > 0.0, np.abs(dfv) / mods, np.inf)

    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    ring = np.exp(1j * angles)
    f_ring, df_ring = fn(ring)
    if np.max(np.abs(f_ring)) < min_modulus:
        raise NoReflectionError(
            f"|f| < {min_modulus:g} on the whole contour; winding undefined"
        )
    ld_ring = _logd(f_ring, df_ring)
    angles = np.append(angles, 2.0 * np.pi)
    fvals = np.append(f_ring, f_ring[0])
    logd = np.append(ld_ring, ld_ring[0])
    depth = np.zeros(len(angles) - 1, dtype=np.int64)
    min_abs = float(np.min(np.abs(fvals)))
    exhausted = False

    while True:
        mods = np.abs(fvals)
        end_mods = np.minimum(mods[:-1], mods[1:])
        increments = np.angle(fvals[1:] / fvals[:-1])
        chords = np.abs(fvals[1:] - fvals[:-1])
        spans = 2.0 * np.sin(np.diff(angles) / 2.0)  # |dz| across the interval
        motion = spans * np.maximum(logd[:-1], logd[1:])
        bad = (
            (np.abs(increments) > np.pi / 2.0)
            | (end_mods < min_modulus)
            | (chords > 0.5 * end_mods)
            | (motion > 1.0)
        )
        splittable = bad & (depth < max_refine_depth)
        if not splittable.any():
            exhausted = bool((bad & (depth >= max_refine_depth)).any())
            break
        if len(angles) + int(splittable.sum()) > _MAX_CONTOUR_POINTS:
            exhausted = True
            break
        idx = np.flatnonzero(splittable)
        mid_angles = (angles[idx] + angles[idx + 1]) / 2.0
        mid_z = np.exp(1j * mid_angles)
        mid_vals, mid_derivs = fn(mid_z)
        min_abs = min(min_abs, float(np.min(np.abs(mid_vals))))
        angles = np.insert(angles, idx + 1, mid_angles)
        fvals = np.insert(fvals, idx + 1, mid_vals)
        logd = np.insert(logd, idx + 1, _logd(mid_vals, mid_derivs))
        depth = np.repeat(np.where(splittable, depth + 1, depth),
                          np.where(splittable, 2, 1))

    raw = float(np.sum(np.angle(fvals[1:] / fvals[:-1])) / (2.0 * np.pi))
    winding = round(raw)
    ambiguous = (
        exhausted or min_abs < min_modulus or abs(raw - winding) > _RESIDUAL_GUARD
    )
    return WindingResult(
        winding=int(winding),
        raw_phase_sum=raw,
        min_abs_f=min_abs,
        refine_depth_used=int(depth.max()),
        ambiguous=bool(ambiguous),
    )


def winding_number(params: SchurParams) -> WindingResult:
    """Schur winding number by contour phase unwrapping."""
    return winding_of_function(
        partial(_eval_circle, params.active_gammas(), params.steps_per_site),
        samples=params.samples,
        min_modulus=params.min_modulus,
        max_refine_depth=params.max_refine_depth,
    )


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def winding_oracle(gammas, steps_per_site: int = 1) -> int:
    """Argument-principle winding from explicit polynomial roots.

    Builds the numerator and denominator of the rational f_0 by coefficient
    recursion and returns (zeros inside the disk) - (poles inside), the
    latter being 0 for genuine Schur data.  Restricted to short sequences
    with strictly sub-unit reflection so the root finding stays reliable;
    raises IndeterminateRootError when a root sits within 1e-6 of the
    circle.
    """
    g = np.asarray(gammas, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gammas must be a non-empty 1-d real sequence")
    if g.size > 16:
        raise ValueError(f"oracle limited to sequences of length <= 16, got {g.size}")
    if np.max(np.abs(g)) >= 1.0:
        raise ValueError("oracle requires strictly |gamma| < 1")
    if steps_per_site not in (1, 2):
        raise ValueError(f"steps_per_site must be 1 or 2, got {steps_per_site}")

    num = np.zeros(1)  # ascending coefficients
    den = np.ones(1)
    for gamma in g[::-1]:
        shifted = np.concatenate([np.zeros(steps_per_site), num])
        num = _poly_add(gamma * den, shifted)
        den = _poly_add(den, gamma * shifted)

    scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
    if scale < 1e-300:
        raise NoReflectionError("f_0 is identically zero; winding undefined")
    keep_num = np.abs(num) > 1e-12 * scale
    keep_den = np.abs(den) > 1e-12 * scale
    num = num[: int(np.flatnonzero(keep_num)[-1]) + 1] if keep_num.any() else num[:0]
    den = den[: int(np.flatnonzero(keep_den)[-1]) + 1] if keep_den.any() else den[:0]
    if num.size == 0:
        raise NoReflectionError("f_0 is identically zero; winding undefined")

    count = 0
    for coeffs, sign in ((num, 1), (den, -1)):
        if len(coeffs) < 2:
            continue
        roots = np.roots(coeffs[::-1])
        if np.any(np.abs(np.abs(roots) - 1.0) < 1e-6):
            raise IndeterminateRootError(
                "a zero or pole lies within 1e-6 of the unit circle"
            )
        count += sign * int(np.count_nonzero(np.abs(roots) < 1.0))
    return count
