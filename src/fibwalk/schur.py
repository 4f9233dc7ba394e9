"""Boundary Schur function and its winding number on the unit circle.

The reflection coefficient of the semi-infinite chain is built by the
backward Möbius recursion

    f_n(z) = (gamma_n + w f_{n+1}(z)) / (1 + gamma_n w f_{n+1}(z)),  w = z^2,

initialized with f_N = 0 at the cutoff (transparent tail) and iterated to
the boundary value f_0.  Out to a site and back costs two steps of the
walk, so each site contributes w = z^2: f_0 depends on z only through z^2,
f_0(-z) = f_0(z), and every winding is even.  The count of the
single-power recursion, f_0 as a function of w, is half of it (see
README).

A reflector with |gamma_n| = 1 maps the whole disk to the single point
gamma_n, so each chain is cut at its first reflector: the sites behind it
never enter the recursion, which starts from f = 0 there and reaches
exactly gamma_n at the reflector.  This is the masking effect, and the cut
also removes the 0/0 ambiguity the raw formula would hit at isolated
contour points.

One backward pass carries the derivative along with the value and returns
the pair (f_0, df_0/dz); the contour refinement consumes that pair and uses
|f'/f| to refine the contour where the phase of f_0 moves fast.

Every gamma_n is real, so f_0 is a ratio of real polynomials in z and
f_0(conj z) = conj f_0(z): the lower half of the circle is the mirror image
of the upper.  A Schur winding is therefore refined on the closed upper
arc [0, pi] only, from the ring's points below pi and then z = -1; each
interval stands for itself and its mirror, and the winding is twice the
arc's phase increments over 2 pi.

Chains of one Contour are refined as one batch (winding_numbers; a single
chain is a batch of one), whatever their lengths, cells and terminations.
Every member starts from the same ring of samples.  Each round evaluates,
in one pass, the midpoints of every interval pending a split, tagged with
an owner index; only the two halves of each split are tested next, and
each member's contour is put in order once, at the end.  A chain's first
three sites are its head -- the four prefix terminations differ
only there -- and the sites after them, up to its first reflector, are
its body.  In homogeneous form f = num/den a site multiplies (num, den)
by M_n(z) = [[w, gamma_n], [gamma_n w, 1]] with w = z^2, so a body is a
product of 2x2 matrices applied to (0, 1).  Bodies with one skeleton --
the pattern in which their gammas repeat, which a word's letters fix
whatever the coin angles -- share one grammar, built once: the most
frequent adjacent pair of symbols is replaced by a new symbol, a rule,
until no pair repeats (8-9 rules and 5-8 final symbols on a 230-site
standard, prefix or phason word).  Each round evaluates every rule once
per distinct (body, point) pair, with its z-derivative and rescaled by a
power of two, and applies the final symbols; then each member's head
steps per (member, point), and f = num/den is taken at the end.  Head
sites, and body sites with 1 - |gamma| < 1e-12 that are not the body's
last, step alone with the denominator floor checked: |den_n| < 1e-14
|den_{n+1}| is the recursion's |1 + gamma_n w f_{n+1}| < 1e-14, so a
PoleOnContourError names the step the site-by-site recursion names.
Where a product, or its application, cancels more than 20 bits at a
point, that point applies the rule's pair instead.  Every point goes
through the same floating-point operations as in a single-member call,
and a pole, a missing reflection or an exhausted refinement ends only
the member it belongs to.

The winding number is the count of zeros of f_0 inside the disk, computed
two independent ways: phase unwrapping along the sampled contour with
adaptive bisection (winding_number), and root counting of the explicit
numerator/denominator polynomials (winding_oracle, small systems only).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComputationError,
    IndeterminateRootError,
    NoReflectionError,
    PoleOnContourError,
)
from .sequence import CoinAngles, Standard, Termination, angles_for
from .sequence import reflection_amplitudes, word_for_termination

DEFAULT_CUTOFF = 233
DEFAULT_SAMPLES = 2048
SWEEP_SAMPLES = 512
DEFAULT_MIN_MODULUS = 1e-8
DEFAULT_MAX_REFINE_DEPTH = 20

_DENOMINATOR_FLOOR = 1e-14
_MIRROR_GAP = 1e-12  # 1 - |gamma| below this: the site is stepped alone
_HEAD_SITES = 3  # the prefix terminations differ in these sites only
_CHUNK = 1 << 14  # distinct points per pass over a body's rules
_LOST_BITS = 20  # a product that cancels more is applied as its pair
_RESIDUAL_GUARD = 0.01
_MAX_CONTOUR_POINTS = 1 << 21


@dataclass(frozen=True)
class Contour:
    """The contour a winding is refined on: samples, the size of the ring of
    equally spaced points that covers the whole unit circle, whose points
    below pi, then z = -1, start the upper arc the winding is refined on
    (at most half the point budget, so that refinement keeps the other
    half); the |f| floor min_modulus below which the winding is
    ill-defined; and the bisection depth limit max_refine_depth."""

    samples: int = DEFAULT_SAMPLES
    min_modulus: float = DEFAULT_MIN_MODULUS
    max_refine_depth: int = DEFAULT_MAX_REFINE_DEPTH

    def __post_init__(self):
        if not self.samples >= 16:
            raise ValueError(f"samples must be >= 16, got {self.samples}")
        if not self.samples <= _MAX_CONTOUR_POINTS // 2:
            raise ValueError(f"samples must be <= {_MAX_CONTOUR_POINTS // 2}, got {self.samples}")
        if not self.min_modulus > 0.0:
            raise ValueError(f"min_modulus must be > 0, got {self.min_modulus}")
        if not self.max_refine_depth >= 0:
            raise ValueError(f"max_refine_depth must be >= 0, got {self.max_refine_depth}")
        for name in ("samples", "max_refine_depth"):
            if not isinstance(getattr(self, name), numbers.Integral):  # numpy's too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SchurParams:
    """Reflection amplitudes (boundary first) and the contour a winding is
    refined on."""

    gammas: np.ndarray
    contour: Contour = Contour()

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gammas must be a non-empty 1-d real sequence")
        if not np.max(np.abs(g)) <= 1.0 + 1e-12:
            raise ValueError("reflection amplitudes must satisfy |gamma| <= 1")
        object.__setattr__(self, "gammas", np.clip(g, -1.0, 1.0))


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
    contour: Contour = Contour(),
) -> SchurParams:
    """SchurParams of a terminated Fibonacci walk: gamma_n = cos(theta_n),
    whose derivation, and difference from the walk's own sin(theta_n), the
    reflection_amplitudes docstring gives."""
    word = word_for_termination(n_sites, termination)
    angles = angles_for(word, CoinAngles(theta_a, theta_b))
    return SchurParams(reflection_amplitudes(angles), contour)


def _site_matrix(g, w, dw):
    """M = [[w, g], [g w, 1]] and dM/dz, stacked as a (2, 2, 2, K) array."""
    m = np.zeros((2, 2, 2, w.size), dtype=np.complex128)
    m[0, 0, 0], m[0, 0, 1], m[0, 1, 0], m[0, 1, 1] = w, g, g * w, 1.0
    m[1, 0, 0], m[1, 1, 0] = dw, g * dw
    return m


def _product(x, y):
    """x y for (2, 2, 2, K) stacks of matrices and their z-derivatives."""
    xy = x[:, :, :1] * y[0, 0] + x[:, :, 1:] * y[0, 1]  # x y and x' y
    xy[1] += x[0, :, :1] * y[1, 0] + x[0, :, 1:] * y[1, 1]
    return xy


def _matvec(m, v):
    """m v for a (2, 2, 2, K) stack of matrices and (2, 2, K) vectors, each
    with its z-derivative first along axis 0."""
    mv = m[:, :, 0] * v[0, 0] + m[:, :, 1] * v[0, 1]  # m v and m' v
    mv[1] += m[0, :, 0] * v[1, 0] + m[0, :, 1] * v[1, 1]
    return mv


def _normalize(a):
    """Scale a in place, per point (last axis), by the power of two that
    brings the largest real or imaginary part of a[0] into [0.5, 1).
    Returns the exponent e with that part in [2^(e-1), 2^e) before.  The
    scaling is exact, so no ratio of a's entries changes."""
    k = a.shape[-1]
    top = np.abs(a[0].view(np.float64).reshape(-1, 2 * k)).max(axis=0)
    exponent = np.frexp(np.maximum(top[0::2], top[1::2]))[1]
    a *= np.ldexp(1.0, -exponent)
    return exponent


def _checked_step(g, w, dw, v, n, pole):
    """Multiply v, (num, den) with its z-derivative as in _matvec, in place
    by site n's M_n, where g is gamma_n at each point.

    |den_n| < floor |den_{n+1}| is the Möbius step's |1 + g w f| < floor.
    A point below it becomes NaN, and pole (updated in place) records the
    highest step at which each point hit the floor.
    """
    (num, den), (dnum, dden) = v
    floor = _DENOMINATOR_FLOOR * np.abs(den)
    wn, dwn = w * num, dw * num + w * dnum  # w num and its z-derivative
    num[:], dnum[:] = wn + g * den, dwn + g * dden
    den += g * wn
    dden += g * dwn
    tiny = np.abs(den) < floor
    if tiny.any():
        pole[tiny] = n  # NaN from here on, so no lower step hits again
        v[..., tiny] = np.nan


def _ratio(v):
    """(f, f') of a homogeneous (num, den) = v[0] with z-derivatives v[1]."""
    (num, den), (dnum, dden) = v
    with np.errstate(invalid="ignore"):  # a point past a pole is NaN
        return num / den, (dnum * den - num * dden) / (den * den)


def _skeleton(gammas: np.ndarray) -> tuple[int, ...]:
    """Each site's terminal index, in order of first appearance of its
    gamma, or -1 for a site with 1 - |gamma| < _MIRROR_GAP that is not the
    last.  Bodies with one skeleton share one grammar."""
    terminals: dict[float, int] = {}
    seq = []
    for k, g in enumerate(gammas):
        if 1.0 - abs(g) < _MIRROR_GAP and k < len(gammas) - 1:
            seq.append(-1)  # never merged
        else:
            seq.append(terminals.setdefault(float(g), len(terminals)))
    return tuple(seq)


class _Body:
    """Bodies of one skeleton -- the sites of a chain behind its head -- as
    one grammar of block products.

    In homogeneous form f = num / den, a site multiplies (num, den) by
    M_n(z) = [[w, gamma_n], [gamma_n w, 1]], w = z^2, and a body's f is
    the product of its sites' matrices applied to (0, 1).  The grammar is
    built on the skeleton by repeatedly replacing the most frequent
    adjacent pair of symbols (counted without overlaps, ties to the
    leftmost) by a new symbol, a rule, until no pair repeats; each rule is
    the product of its pair.  A symbol of the skeleton stands for one
    terminal, whose gamma each body holds in its row of values; a terminal
    that no rule uses has its site matrix built at its step only.  A site
    with 1 - |gamma| < _MIRROR_GAP that is not the body's last is never
    merged: it is stepped alone by _checked_step, with the denominator
    floor checked.  No other site can reach the floor, since
    |1 + gamma w f| >= 1 - |gamma| for |w f| <= 1.

    A product is exact up to rounding relative to its factors' size, so
    where the factors cancel it loses bits.  Each point counts the bits a
    rule lost, and the bits applying it to (num, den) lost; where either
    exceeds _LOST_BITS, the rule's pair is applied in its place, down to
    single sites if need be.
    """

    def __init__(self, skeleton: tuple[int, ...], gammas: np.ndarray):
        self.gammas = gammas  # one row per body
        n_values = max(skeleton) + 1
        # terminal t's gamma in body b at [t, b]
        self.values = gammas[:, [skeleton.index(t) for t in range(n_values)]].T
        seq = list(skeleton)
        self.rules: list[tuple[int, int]] = []
        while True:
            counts: dict[tuple[int, int], int] = {}
            last: dict[tuple[int, int], int] = {}
            for i, pair in enumerate(zip(seq, seq[1:])):
                if min(pair) < 0 or last.get(pair) == i - 1:
                    continue
                counts[pair] = counts.get(pair, 0) + 1
                last[pair] = i
            pair, count = max(counts.items(), key=lambda item: item[1], default=(None, 0))
            if count < 2:
                break
            symbol = n_values + len(self.rules)
            self.rules.append(pair)
            merged, i = [], 0
            while i < len(seq):
                if tuple(seq[i : i + 2]) == pair:
                    merged.append(symbol)
                    i += 2
                else:
                    merged.append(seq[i])
                    i += 1
            seq = merged
        # the terminals some rule uses; a chunk keeps only their matrices
        self.kept = {x for pair in self.rules for x in pair if x < n_values}
        lengths = [1] * n_values
        for x, y in self.rules:
            lengths.append(lengths[x] + lengths[y])
        # right to left: each final symbol, -1 for a checked site, with its
        # first site
        self.steps: list[tuple[int, int]] = []
        k = len(skeleton)
        for symbol in reversed(seq):
            k -= 1 if symbol < 0 else lengths[symbol]
            self.steps.append((symbol, k))

    def __call__(self, rows: np.ndarray, z: np.ndarray):
        """(v, pole) of body rows[k] at z[k], starting from (num, den) = (0, 1),
        for distinct (row, point) pairs: v is (num, den) with its
        z-derivative as a (2, 2, K) array, and pole the chain step that hit
        the floor, or -1."""
        v = np.empty((2, 2, z.size), dtype=np.complex128)
        pole = np.full(z.size, -1)
        for lo in range(0, z.size, _CHUNK):
            at = slice(lo, lo + _CHUNK)
            v[..., at], pole[at] = self._chunk(rows[at], z[at])
        return v, pole

    def _chunk(self, rows, z):
        w, dw = z * z, 2.0 * z
        # each rule's product and each terminal a rule uses, with its
        # derivative and the bits it lost
        exact = np.zeros(z.size, dtype=np.intc)
        mats = {t: (_site_matrix(self.values[t, rows], w, dw), exact) for t in self.kept}
        for symbol, (x, y) in enumerate(self.rules, len(self.values)):
            m = _product(mats[x][0], mats[y][0])
            lost = np.maximum(mats[x][1], mats[y][1]) - np.minimum(_normalize(m), 0)
            mats[symbol] = (m, lost)
        v = np.zeros((2, 2, z.size), dtype=np.complex128)
        v[0, 1] = 1.0
        pole = np.full(z.size, -1)
        for symbol, k in self.steps:
            if symbol < 0:
                _checked_step(self.gammas[rows, k], w, dw, v, k + _HEAD_SITES, pole)
                _normalize(v)  # _apply's gate counts bits from a normalised v
            elif symbol in mats:
                v = self._apply(mats, symbol, None, v)
            else:  # a terminal no rule uses: its matrix lives for this step only
                lone = {symbol: (_site_matrix(self.values[symbol, rows], w, dw), exact)}
                v = self._apply(lone, symbol, None, v)
        return v, pole

    def _apply(self, mats, symbol, at, v):
        """Apply symbol's product to v, at the points at of the chunk (None:
        all of them).  Where the product, or its application to v, lost
        more than _LOST_BITS, the symbol's pair is applied instead."""
        m, lost = mats[symbol]
        if at is not None:
            m, lost = np.take(m, at, axis=-1), lost[at]
        out = _matvec(m, v)
        lost = np.maximum(lost, -_normalize(out))
        redo = np.flatnonzero(lost > _LOST_BITS) if symbol >= len(self.values) else []
        if len(redo):
            x, y = self.rules[symbol - len(self.values)]
            where = redo if at is None else at[redo]
            out[..., redo] = self._apply(mats, x, where, self._apply(mats, y, where, v[..., redo]))
        return out


def _distinct(rows, z):
    """(first, back): the indices of the distinct (rows[k], z[k]) pairs, and
    each pair's index among them."""
    order = np.lexsort((z.imag, z.real, rows))
    rows, z = rows[order], z[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (z[1:] != z[:-1])
    back = np.empty(order.size, dtype=np.intp)
    back[order] = np.cumsum(new) - 1
    return order[new], back


def _chain_evaluator(chains: list[np.ndarray]):
    """evaluate(z, owner) -> (f_0, f_0', errors) for chains of any lengths.

    Point k of z belongs to chain owner[k].  Each chain is padded with zeros
    to the longest and cut at its first reflector: the gammas behind it are
    set to 0, and its trailing zeros are dropped, so every chain starts from
    f = 0 at its last site.  Behind f = 0 a reflector step returns exactly
    gamma (and f' = 0), so the cut chain has the value of the full one.

    A chain splits into its head, the first _HEAD_SITES sites, and its
    body, the rest.  Chains with equal bodies share one body, and bodies
    with one skeleton share one _Body, whatever their gammas; each _Body
    runs once per round over the distinct (body, point) pairs of all its
    chains, in chunks of at most _CHUNK pairs, and returns (num, den).
    Each chain's head then steps per (chain, point) by _checked_step, and
    f_0 = num/den is taken at the end.  errors maps each chain whose
    denominator vanished at one of its points to a PoleOnContourError.
    """
    n = max(chain.size for chain in chains)
    table = np.stack([np.pad(chain, (0, n - chain.size)) for chain in chains])
    reflectors = np.abs(table) >= 1.0
    behind = np.cumsum(reflectors, axis=1) > reflectors  # past the first reflector
    table[behind] = 0.0
    heads = table[:, :_HEAD_SITES]
    shapes: dict[tuple[int, ...], list[np.ndarray]] = {}  # skeleton -> its bodies
    seen: dict[bytes, tuple[tuple[int, ...], int]] = {}
    placed = []  # member -> (its skeleton, its body's row), or None
    for row in table:
        kept = np.flatnonzero(row)
        body = row[_HEAD_SITES : int(kept[-1]) + 1 if kept.size else 0]
        if not body.size:
            placed.append(None)
            continue
        key = body.tobytes()
        if key not in seen:
            skeleton = _skeleton(body)
            rows = shapes.setdefault(skeleton, [])
            seen[key] = (skeleton, len(rows))
            rows.append(body)
        placed.append(seen[key])
    skeletons = {skeleton: b for b, skeleton in enumerate(shapes)}
    bodies = [_Body(skeleton, np.stack(rows)) for skeleton, rows in shapes.items()]
    group = np.array([-1 if p is None else skeletons[p[0]] for p in placed])
    body_row = np.array([0 if p is None else p[1] for p in placed])

    def evaluate(z, owner):
        w, dw = z * z, 2.0 * z
        v = np.zeros((2, 2, z.size), dtype=np.complex128)
        v[0, 1] = 1.0
        pole = np.full(z.size, -1)
        groups = group[owner]
        for b, body in enumerate(bodies):
            at = np.flatnonzero(groups == b)
            rows = body_row[owner[at]]
            first, back = _distinct(rows, z[at])  # members share points
            bv, bpole = body(rows[first], z[at][first])
            for out, part in zip(v.reshape(4, -1), bv.reshape(4, -1)):
                out[at] = part[back]  # row by row: a 3-d scatter is 3x slower
            pole[at] = bpole[back]
        for n in range(heads.shape[1] - 1, -1, -1):
            _checked_step(heads[owner, n], w, dw, v, n, pole)
        f, fp = _ratio(v)
        errors = {}
        failed = pole >= 0
        if failed.any():
            for m in np.unique(owner[failed]):
                n = int(pole[owner == m].max())
                errors[int(m)] = PoleOnContourError(
                    f"Schur denominator vanished at recursion step {n} "
                    f"(gamma={float(table[m, n])!r})"
                )
        return f, fp, errors

    return evaluate


def schur_eval(params: SchurParams, z):
    """f_0 at one point or an array of points with |z| <= 1."""
    zv = np.asarray(z, dtype=np.complex128)
    if not np.max(np.abs(zv)) <= 1.0 + 1e-12:
        raise ValueError("the Schur function is only evaluated on |z| <= 1")
    z1 = np.atleast_1d(zv)
    out, _, errors = _chain_evaluator([params.gammas])(z1, np.zeros(z1.shape, dtype=np.intp))
    if errors:
        raise errors[0]
    return complex(out[0]) if zv.ndim == 0 else out.reshape(zv.shape)


def symmetry_point_values(params: SchurParams) -> tuple[complex, complex]:
    """(f_0(+1), f_0(-1)); a diagnostic that cannot resolve higher windings."""
    vals = schur_eval(params, np.array([1.0, -1.0], dtype=np.complex128))
    return complex(vals[0]), complex(vals[1])


def _logd(fv, dfv):
    """|f'/f|, infinite where f vanishes."""
    mods = np.abs(fv)
    with np.errstate(divide="ignore"):
        return np.where(mods > 0.0, np.abs(dfv) / mods, np.inf)


def _bad(la, ra, lf, rf, ll, rl, min_modulus):
    """Whether each interval, from angle la to ra with f = lf, rf and
    |f'/f| = ll, rl at its ends, is to be split.

    Phase increments between neighbouring samples are taken in (-pi, pi]; an
    interval is split when its increment exceeds pi/2, an endpoint modulus
    drops below min_modulus, or the chord |rf - lf| is comparable to the
    distance of the endpoints from the origin -- the last trigger catches
    zeros near the contour, whose nearly full-turn phase jumps would
    otherwise alias to small increments.

    A zero just inside paired with a zero just outside the circle traces a
    tight loop around the origin that samples alone cannot see (the loop
    closes on itself between neighbouring points).  An interval with
    estimated phase motion |dz| * |f'/f| above one radian is therefore split
    too, which tracks such loops down to the refinement depth limit.
    """
    end_mods = np.minimum(np.abs(lf), np.abs(rf))
    increments = np.angle(rf / lf)
    chords = np.abs(rf - lf)
    spans = 2.0 * np.sin((ra - la) / 2.0)  # |dz| across the interval
    motion = spans * np.maximum(ll, rl)
    return (
        (np.abs(increments) > np.pi / 2.0)
        | (end_mods < min_modulus)
        | (chords > 0.5 * end_mods)
        | (motion > 1.0)
    )


def _arc_points(angles):
    """e^{i angle} on the upper arc, with z = -1 exactly at angle pi: f is
    real there, as at z = 1, so the arc's phase sum meets its mirror's."""
    z = np.exp(1j * angles)
    z[angles == np.pi] = -1.0
    return z


def _refine(evaluate, count, contour: Contour) -> list[WindingResult | ComputationError]:
    """Refine the contours of a batch of count members together, one
    evaluate call per round.

    f(conj z) = conj f(z) is taken to hold, so the contour is the closed
    upper arc [0, pi] and each of its intervals stands for itself and its
    mirror image: it counts twice in the phase sum and in the point budget.
    Every member starts from the same arc: the angles below pi of
    contour.samples equally spaced on [0, 2 pi), then pi, which is z = -1
    exactly, so f is real at both ends of the arc.  The result is flagged
    ambiguous when refinement is exhausted, the minimum modulus stays below
    contour.min_modulus, or the phase sum is not close to an integer.

    Each round passes the midpoints of every interval pending a split,
    with an owner index, to evaluate(z, owner), which returns (f, df/dz,
    errors) with errors mapping failed members to their ComputationError.
    Only the two halves of each split interval are tested: every interval
    a round creates has the round's depth, and an interval that is not
    split never changes.  A member that fails, has no reflection, runs out
    of points or has nothing left to split leaves the batch; the others go
    on, until the depth reaches contour.max_refine_depth.  Each member's
    contour is put in order once, at the end.  Returns one WindingResult
    or ComputationError per member.
    """
    samples, min_modulus = contour.samples, contour.min_modulus
    results: list = [None] * count
    below = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)[: (samples + 1) // 2]
    ring = np.append(below, np.pi)
    size = ring.size
    owner = np.repeat(np.arange(count), size)
    f, df, errors = evaluate(np.tile(_arc_points(ring), count), owner)
    live = np.ones(count, dtype=bool)
    for m, error in errors.items():
        results[m], live[m] = error, False
    f, df = f.reshape(count, size), df.reshape(count, size)
    silent = live & (np.abs(f).max(axis=1) < min_modulus)
    for m in np.flatnonzero(silent):
        results[m] = NoReflectionError(
            f"|f| < {float(min_modulus):g} on the whole contour; winding undefined")
    live &= ~silent

    # each live member's ring, and its intervals: owner, angle, f and |f'/f|
    # at the left and right ends
    kept = np.flatnonzero(live)
    f, logd = f[kept], _logd(f[kept], df[kept])
    owner, angles = np.repeat(kept, size), np.tile(ring, kept.size)
    store = [(owner, angles, f.ravel())]  # ordered by (owner, angle) at the end
    iv = (np.repeat(kept, size - 1), np.tile(ring[:-1], kept.size), np.tile(ring[1:], kept.size),
          f[:, :-1].ravel(), f[:, 1:].ravel(), logd[:, :-1].ravel(), logd[:, 1:].ravel())
    points = np.full(count, 2 * size - 1)  # the whole circle, closed on its first point
    exhausted = np.zeros(count, dtype=bool)
    depth = np.zeros(count, dtype=np.int64)
    level = 0
    while True:
        im = iv[0]
        bad = _bad(*iv[1:], min_modulus)
        depth[live] = level
        if level >= contour.max_refine_depth:
            exhausted[im[bad]] = True
            break
        splits = 2 * np.bincount(im[bad], minlength=count)
        full = live & (points + splits > _MAX_CONTOUR_POINTS)
        exhausted |= full
        live &= (splits > 0) & ~full
        if not live.any():
            break
        points += splits
        go = bad & live[im]
        im, la, ra, lf, rf, ll, rl = (a[go] for a in iv)
        mid = (la + ra) / 2.0
        mf, mdf, errors = evaluate(_arc_points(mid), im)
        for m, error in errors.items():
            results[m], live[m] = error, False
        store.append((im, mid, mf))
        keep = live[im]
        im, la, ra, lf, rf, ll, rl, mid, mf, mdf = (
            a[keep] for a in (im, la, ra, lf, rf, ll, rl, mid, mf, mdf))
        ml = _logd(mf, mdf)
        # the halves of each split interval, side by side in contour order
        iv = tuple(np.stack((x, y), axis=1).ravel() for x, y in (
            (im, im), (la, mid), (mid, ra), (lf, mf), (mf, rf), (ll, ml), (ml, rl)))
        level += 1

    owner, angles, f = (np.concatenate(parts) for parts in zip(*store))
    del store
    f = f[np.lexsort((angles, owner))]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=count))])
    for m in range(count):
        if results[m] is None:
            fvals = f[bounds[m] : bounds[m + 1]]
            raw = float(np.sum(2 * np.angle(fvals[1:] / fvals[:-1])) / (2.0 * np.pi))
            min_abs = float(np.min(np.abs(fvals)))
            winding = round(raw)
            ambiguous = (
                exhausted[m]
                or min_abs < min_modulus
                or abs(raw - winding) > _RESIDUAL_GUARD
            )
            results[m] = WindingResult(
                winding=int(winding),
                raw_phase_sum=raw,
                min_abs_f=min_abs,
                refine_depth_used=int(depth[m]),
                ambiguous=bool(ambiguous),
            )
    return results


def winding_numbers(members: list[SchurParams]) -> list[WindingResult | ComputationError]:
    """Schur winding numbers of several chains, refined together.

    The members must share one Contour.  Their chains may have any lengths
    and come from any cells and terminations.  Entry k is member k's
    WindingResult, or the ComputationError that winding_number raises for
    it alone.
    """
    shared = {p.contour for p in members}
    if len(shared) != 1:
        raise ValueError("a batch needs members of one contour")
    (contour,) = shared
    evaluate = _chain_evaluator([p.gammas for p in members])
    return _refine(evaluate, len(members), contour)


def winding_number(params: SchurParams) -> WindingResult:
    """Schur winding number by contour phase unwrapping."""
    (result,) = winding_numbers([params])
    if isinstance(result, ComputationError):
        raise result
    return result


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def winding_oracle(gammas) -> int:
    """Argument-principle winding from explicit polynomial roots.

    Builds the numerator and denominator of the rational f_0, polynomials
    in z with each site's step multiplying by w = z^2, by coefficient
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

    num = np.zeros(1)  # ascending coefficients
    den = np.ones(1)
    for gamma in g[::-1]:
        shifted = np.concatenate([np.zeros(2), num])
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
