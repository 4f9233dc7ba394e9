"""Fibonacci letter sequences and their mapping to coin angles.

Words over the alphabet {A, B} are produced either by iterating the
substitution A -> AB, B -> A from the seed A, or by a cut-and-project
(Sturmian) formula with an explicit phason offset

    letter(n) = A  iff  floor((n+2)/tau + phi) - floor((n+1)/tau + phi) = 1,

with tau the golden ratio.  At phi = 0 the formula reproduces the
substitution word, which is checked by the test suite.  Site x = 0 is the
left boundary; a surface termination may rewrite the first few letters
or regenerate the whole word at a different phason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOLDEN_RATIO_INV = (math.sqrt(5.0) - 1.0) / 2.0

MAX_SUBSTITUTION_ORDER = 30  # F_30 ~ 1.3e6 letters

_SUBSTITUTION = str.maketrans({"A": "AB", "B": "A"})


def _check_letters(letters: str, context: str) -> None:
    if not letters:
        raise ValueError(f"{context}: empty letter string")
    bad = set(letters) - {"A", "B"}
    if bad:
        raise ValueError(f"{context}: letters must be 'A'/'B', found {sorted(bad)}")


@dataclass(frozen=True)
class FibonacciWord:
    """An A/B word whose letters after the first prefix_length never contain "BB".

    Substitution and cut-project words have no "BB" at all (isolated-B
    property of the Fibonacci word); a rewritten surface prefix may.
    """

    letters: str
    prefix_length: int = 0

    def __post_init__(self):
        _check_letters(self.letters, "FibonacciWord")
        if "BB" in self.letters[self.prefix_length:]:
            raise ValueError("word contains 'BB' outside an overridden prefix")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def a_mask(self) -> np.ndarray:
        """Boolean array, True where the letter is A."""
        return np.frombuffer(self.letters.encode("ascii"), dtype="S1") == b"A"


@dataclass(frozen=True)
class CoinAngles:
    """Rotation angles (radians) assigned to the letters A and B."""

    theta_a: float
    theta_b: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_a) and math.isfinite(self.theta_b)):
            raise ValueError("coin angles must be finite")


@dataclass(frozen=True)
class Standard:
    pass


@dataclass(frozen=True)
class PrefixOverride:
    letters: str

    def __post_init__(self):
        _check_letters(self.letters, "PrefixOverride")
        if len(self.letters) > 3:
            raise ValueError("prefix overrides are limited to 3 letters")


@dataclass(frozen=True)
class Phason:
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phason must be finite")
        object.__setattr__(self, "phi", self.phi - math.floor(self.phi))


Termination = Standard | PrefixOverride | Phason

#: The four 3-letter factors of the Fibonacci word, as surface heads.  Only
#: ABA leaves the word a Fibonacci word: spliced onto the standard body, the
#: AAB and BAB heads make BABAB and the BAA head makes AAA, and no Fibonacci
#: word contains either.
TERMINATION_PREFIXES = ("ABA", "AAB", "BAA", "BAB")

DEFAULT_ENSEMBLE = tuple(PrefixOverride(p) for p in TERMINATION_PREFIXES)


def generate_word(order: int) -> FibonacciWord:
    """The order-th iterate of A -> AB, B -> A, starting from the seed A."""
    if not 1 <= order <= MAX_SUBSTITUTION_ORDER:
        raise ValueError(
            f"order must be in [1, {MAX_SUBSTITUTION_ORDER}], got {order}"
        )
    w = "A"
    for _ in range(order - 1):
        w = w.translate(_SUBSTITUTION)
    return FibonacciWord(w)


def cut_project_word(length: int, phason: float) -> FibonacciWord:
    """Sturmian word of the requested length at the given phason offset.

    The phason enters modulo 1, so phi and phi + 1 give identical words.
    At phi = 0 the word is the prefix of the substitution fixed point.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not math.isfinite(phason):
        raise ValueError("phason must be finite")
    phi = phason - math.floor(phason)
    n = np.arange(length, dtype=np.float64)
    hi = np.floor((n + 2.0) * GOLDEN_RATIO_INV + phi)
    lo = np.floor((n + 1.0) * GOLDEN_RATIO_INV + phi)
    letters = np.where(hi - lo == 1.0, "A", "B")
    return FibonacciWord("".join(letters))


def standard_word(length: int) -> FibonacciWord:
    """Prefix of the standard (phason-0) Fibonacci word."""
    return cut_project_word(length, 0.0)


def apply_termination(word: FibonacciWord, term: Termination) -> FibonacciWord:
    """Rewrite the boundary of a word according to a surface termination."""
    if isinstance(term, Standard):
        return word
    if isinstance(term, PrefixOverride):
        p = term.letters
        if len(word) < len(p):
            raise ValueError(
                f"override '{p}' longer than word of length {len(word)}"
            )
        return FibonacciWord(p + word.letters[len(p):], len(p))
    if isinstance(term, Phason):
        return cut_project_word(len(word), term.phi)
    raise TypeError(f"unsupported termination: {term!r}")


def word_for_termination(length: int, term: Termination) -> FibonacciWord:
    """Standard word of the given length with a termination applied."""
    return apply_termination(standard_word(length), term)


def angles_for(word: FibonacciWord, coins: CoinAngles) -> np.ndarray:
    """Per-site coin angles: theta_a where the letter is A, theta_b where B."""
    return np.where(word.a_mask(), coins.theta_a, coins.theta_b)


def reflection_amplitudes(angles: np.ndarray) -> np.ndarray:
    """Local reflection amplitudes gamma_n = cos(theta_n) of the Schur engine.

    Under the walk's coin R(theta) = [[cos, sin], [-sin, cos]] on (L, R), a
    walker that reaches site n moving right, (L, R) = (0, 1), leaves as
    (sin theta_n, cos theta_n), and the shift carries L left and R right:
    sin theta_n is reflected back toward the boundary, cos theta_n passes
    on.  Out to site n and back costs two shifts, hence w = z^2 per site.
    So the walk's own boundary Schur function at |R, 0> has gamma_n =
    sin theta_n; the test suite builds it from the moments of U and pins
    the difference from cos theta_n as a strict xfail.  cos theta_n is the
    reflection amplitude of the coin R(theta) sigma_x; it stays the Schur
    engine's gamma until the convention is decided (the ROADMAP item on the
    Schur convention).
    """
    return np.cos(np.asarray(angles, dtype=np.float64))


def phason_ensemble(size: int) -> tuple[Phason, ...]:
    """Uniform phason grid {i/size}, the opt-in alternative ensemble."""
    if size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {size}")
    return tuple(Phason(i / size) for i in range(size))


def termination_label(term: Termination) -> str:
    """Short CSV-friendly name of a termination."""
    if isinstance(term, Standard):
        return "standard"
    if isinstance(term, PrefixOverride):
        return term.letters
    if isinstance(term, Phason):
        return f"phason:{term.phi!r}"
    raise TypeError(f"unsupported termination: {term!r}")


def parse_termination(label: str) -> Termination:
    """Inverse of termination_label; accepts 'standard', 'ABA', 'phason:0.25'."""
    text = label.strip()
    if text.lower() == "standard":
        return Standard()
    if text.lower().startswith("phason:"):
        return Phason(float(text.split(":", 1)[1]))
    return PrefixOverride(text.upper())
