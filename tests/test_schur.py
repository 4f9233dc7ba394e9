import tracemalloc

import numpy as np
import pytest

from fibwalk.errors import (
    ComputationError,
    IndeterminateRootError,
    NoReflectionError,
    PoleOnContourError,
)
from fibwalk.schur import (
    _RESIDUAL_GUARD,
    Contour,
    SchurParams,
    WindingResult,
    _chain_evaluator,
    _eval_circle,
    _logd,
    _refine,
    reflection_params,
    schur_eval,
    symmetry_point_values,
    winding_number,
    winding_numbers,
    winding_oracle,
)
from fibwalk.sequence import (
    DEFAULT_ENSEMBLE,
    GOLDEN_RATIO_INV,
    CoinAngles,
    Phason,
    PrefixOverride,
    Standard,
    angles_for,
    phason_ensemble,
    reflection_amplitudes,
    standard_word,
    word_for_termination,
)
from fibwalk.spectrum import (
    DEFAULT_MIN_GAP_WIDTH,
    classify_edge_modes,
    find_gaps,
    quasienergies,
)
from fibwalk.walk import WalkConfig, apply_step, localized_state


def circle(m):
    return np.exp(2j * np.pi * np.arange(m) / m)


def test_leading_unit_gamma_masks_everything():
    params = SchurParams(gammas=np.array([1.0, 0.3, -0.9, 0.2]))
    values = schur_eval(params, circle(64))
    assert np.max(np.abs(values - 1.0)) == 0.0


def test_all_zero_gammas_give_zero():
    params = SchurParams(gammas=np.zeros(12))
    assert np.max(np.abs(schur_eval(params, circle(32)))) == 0.0


def test_two_site_reduction_is_z_squared():
    params = SchurParams(gammas=np.array([0.0, 1.0]), steps_per_site=2)
    z = circle(32)
    assert np.max(np.abs(schur_eval(params, z) - z**2)) < 1e-15


def test_schur_bound_on_random_data():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        params = SchurParams(gammas=rng.uniform(-1.0, 1.0, n))
        z = np.exp(2j * np.pi * rng.uniform(size=4))
        assert np.max(np.abs(schur_eval(params, z))) <= 1.0 + 1e-9


def test_eval_rejects_points_outside_the_disk():
    params = SchurParams(gammas=np.array([0.5]))
    with pytest.raises(ValueError):
        schur_eval(params, 1.5)


def test_cutoff_restricts_the_sequence():
    # The perfect reflector at site 1 cuts the chain there: gamma = 0.7 behind
    # it never enters f_0.
    gam = np.array([0.0, 1.0, 0.7])
    full = SchurParams(gammas=gam, steps_per_site=2)
    z = circle(16)
    assert np.allclose(schur_eval(full, z), z**2)


def test_winding_quartet_at_the_flagship_point():
    expected = {"ABA": 2, "AAB": 4, "BAA": 0, "BAB": 0}
    for prefix, w in expected.items():
        result = winding_number(
            reflection_params(np.pi / 2, 0.0, 233, PrefixOverride(prefix))
        )
        assert result.winding == w
        assert not result.ambiguous
    literal = winding_number(
        reflection_params(np.pi / 2, 0.0, 233, Standard(), steps_per_site=1)
    )
    assert literal.winding == 1
    assert not literal.ambiguous


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_synthetic_monomials(k, s):
    # k transparent sites before a reflector: f = z^(s k) exactly
    params = SchurParams([0.0] * k + [1.0], steps_per_site=s, contour=Contour(256))
    result = winding_number(params)
    assert result.winding == s * k
    assert not result.ambiguous and result.refine_depth_used == 0


@pytest.mark.parametrize("contour,message", [
    ({"samples": 8}, "samples must be >= 16"),
    ({"samples": 2**20 + 1}, "samples must be <= 1048576"),
    ({"samples": 64.5}, "samples must be an integer"),
    ({"min_modulus": float("nan")}, "min_modulus must be > 0"),
    ({"min_modulus": 0.0}, "min_modulus must be > 0"),
    ({"max_refine_depth": -1}, "max_refine_depth must be >= 0"),
    ({"max_refine_depth": float("nan")}, "max_refine_depth must be >= 0"),
    ({"max_refine_depth": 2.5}, "max_refine_depth must be an integer"),
], ids=["few-samples", "samples-above-half-the-budget", "fractional-samples", "nan-modulus",
        "zero-modulus", "negative-depth", "nan-depth", "fractional-depth"])
def test_contour_checks_its_settings(contour, message):
    with pytest.raises(ValueError, match=message):
        Contour(**contour)


def test_contour_takes_numpy_integers():
    gammas = np.random.default_rng(67).uniform(-0.95, 0.95, 40)
    plain = winding_number(SchurParams(gammas, contour=Contour(64, max_refine_depth=2)))
    numpy = Contour(np.int64(64), max_refine_depth=np.int32(2))
    assert _outcome(winding_number(SchurParams(gammas, contour=numpy))) == _outcome(plain)
    assert plain.refine_depth_used == 2


def test_no_reflection_error():
    with pytest.raises(NoReflectionError):
        winding_number(SchurParams(gammas=np.zeros(8)))


def test_pole_on_contour_error():
    # |gamma| within 1e-14 of 1 with an aligned unit-modulus tail hits the
    # denominator floor at z = i (w = -1 for s = 2).
    params = SchurParams(gammas=np.array([1.0 - 5e-15, 1.0]), steps_per_site=2)
    with pytest.raises(PoleOnContourError):
        schur_eval(params, 1j)
    with pytest.raises(PoleOnContourError):
        winding_number(params)


def test_pole_behind_the_head_names_its_step():
    # The near-mirror site 3 is the body's first site: it is never merged
    # into a block product and keeps the denominator floor.
    params = SchurParams(gammas=np.array([0.1, 0.2, 0.3, 1.0 - 5e-15, 1.0]), steps_per_site=2)
    with pytest.raises(PoleOnContourError, match="recursion step 3 "):
        schur_eval(params, 1j)
    with pytest.raises(PoleOnContourError, match="recursion step 3 "):
        winding_number(params)


@pytest.mark.parametrize("s", [1, 2])
def test_derivative_matches_central_difference(s):
    rng = np.random.default_rng(20 + s)
    gammas = rng.uniform(-0.9, 0.9, size=24)
    z = circle(97)
    h = 1e-6
    f, fp = _eval_circle(gammas, s, z)
    f_plus, _ = _eval_circle(gammas, s, z * np.exp(1j * h))
    f_minus, _ = _eval_circle(gammas, s, z * np.exp(-1j * h))
    central = (f_plus - f_minus) / (z * np.exp(1j * h) - z * np.exp(-1j * h))
    assert np.max(np.abs(fp - central)) < 1e-6 * max(1.0, float(np.max(np.abs(fp))))


def backward_recursion(gammas, s, z):
    """(f_0, f_0') by the plain per-site Möbius loop, cut at the first mirror."""
    mirrors = np.flatnonzero(np.abs(gammas) >= 1.0)
    chain = gammas[: mirrors[0] + 1] if mirrors.size else gammas
    w, dw = z**s, s * z ** (s - 1)
    f = np.zeros(z.shape, dtype=np.complex128)
    fp = np.zeros(z.shape, dtype=np.complex128)
    for g in chain[::-1]:
        den = 1.0 + g * w * f
        f, fp = (g + w * f) / den, (dw * f + w * fp) * (1.0 - g * g) / den**2
    return f, fp


def _reference_chains(n):
    coins = CoinAngles(1.0, 0.4)
    chains = {
        label: reflection_amplitudes(angles_for(word_for_termination(n, term), coins))
        for label, term in (("standard", Standard()), ("AAB", PrefixOverride("AAB")),
                            ("phason", Phason(0.37)))
    }
    chains["random"] = np.random.default_rng(n).uniform(-0.9, 0.9, n)
    return chains


@pytest.mark.parametrize("n", [89, 4181])
@pytest.mark.parametrize("s", [1, 2])
def test_block_products_match_the_backward_recursion(s, n):
    # The contour is turned by half a sample, off w = +-1: there every site
    # matrix of a real chain has the eigenvectors (1, +-1), and at z = 1 the
    # reference loses f of the random 4181-site chain (0.16 off its 60-digit
    # value, -1 + 2.7e-26).  Elsewhere both agree up to a shift of z by about
    # 1e-13: |df| ~ |f'| dz and |df'| ~ |f''| dz ~ |f'|^2 dz.
    z = np.concatenate([circle(1024) * np.exp(1j * np.pi / 1024), 0.9 * circle(64)])
    for label, gammas in _reference_chains(n).items():
        f_ref, fp_ref = backward_recursion(gammas, s, z)
        f, fp = _eval_circle(gammas, s, z)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(fp)), label
        assert schur_eval(SchurParams(gammas, steps_per_site=s), z).tobytes() == f.tobytes()
        scale = 1.0 + np.abs(fp_ref)
        assert np.max(np.abs(f - f_ref) / scale) < 1e-12, label
        assert np.max(np.abs(fp - fp_ref) / scale**2) < 1e-9, label


@pytest.mark.parametrize("s", [1, 2])
def test_uncovered_sites_keep_f_at_the_symmetry_points(s):
    # No pair of this chain repeats, so no block product covers any of its
    # sites.  A 60-digit evaluation of the Möbius recursion gives f = -1 at
    # both w = 1 and w = -1 (-1 + 2.7e-26 at w = 1); a per-site Möbius loop
    # in doubles lands 0.16 off at w = 1 and 3.4e-6 off at w = -1.
    params = SchurParams(np.random.default_rng(4181).uniform(-0.9, 0.9, 4181), steps_per_site=s)
    z = np.array([1.0, -1.0, 1j, -1j])
    z = z[np.isin(z**s, [1.0, -1.0])]
    assert np.max(np.abs(schur_eval(params, z) + 1.0)) < 1e-12


def test_a_chunk_keeps_only_the_site_matrices_a_rule_uses():
    # No pair of this chain repeats, so no rule uses any of its 4181
    # terminals: each site matrix (128 B per point) lives for its step only.
    params = SchurParams(np.random.default_rng(4181).uniform(-0.9, 0.9, 4181))
    tracemalloc.start()
    try:
        f = schur_eval(params, circle(128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.all(np.isfinite(f))


# Two contour points near w = -1 of 11x11 and 21x21 map cells where one
# letter has |gamma| = 0.99 and |f'| is 1.6e6 and 1.2e9: whole block products
# cancel in up to 118 bits there, and without the 20-bit gate f lands up to 22
# away from the site recursion.
CANCELLING_POINTS = [
    ((0.29919930034188535, -2.9919930034188504), complex(-2.1066020324307172e-07, -0.9999999999999778)),
    ((-2.9919930034188504, -1.7951958020513104), complex(-5.6913364925404845e-05, -0.9999999983804344)),
]


@pytest.mark.parametrize("cell, z", CANCELLING_POINTS)
def test_cancelling_products_give_way_to_their_pairs(cell, z):
    gammas = reflection_params(*cell, 233, PrefixOverride("ABA")).gammas
    points = np.array([z])
    f_ref, fp_ref = backward_recursion(gammas, 2, points)
    f, _ = _eval_circle(gammas, 2, points)
    assert abs(f[0] - f_ref[0]) < 1e-12 * (1.0 + abs(fp_ref[0]))


def test_a_point_does_not_depend_on_the_points_beside_it():
    # 2**14 + 7 points cross the boundary of the evaluation chunks.
    z = np.exp(2j * np.pi * np.random.default_rng(89).uniform(size=2**14 + 7))
    picks = np.array([0, 2**14 - 1, 2**14, 2**14 + 6])
    chains = {**_reference_chains(4181), "random": _reference_chains(89)["random"]}
    for gammas in chains.values():
        f, fp = _eval_circle(gammas, 2, z)
        for k in picks:
            f1, fp1 = _eval_circle(gammas, 2, z[k : k + 1])
            assert (f1.tobytes(), fp1.tobytes()) == (f[k : k + 1].tobytes(), fp[k : k + 1].tobytes())
    # two members with one body: their points are merged before the body runs
    coins = CoinAngles(1.0, 0.4)
    chains = [reflection_amplitudes(angles_for(word_for_termination(4181, PrefixOverride(p)),
                                               coins)) for p in ("ABA", "AAB")]
    f, fp, errors = _chain_evaluator(chains, 2)(np.concatenate([z, z[::-1]]),
                                                np.repeat([0, 1], z.size))
    assert not errors
    for m, member in enumerate((f[: z.size], f[z.size :][::-1])):
        alone, _ = _eval_circle(chains[m], 2, z)
        assert member.tobytes() == alone.tobytes()
    # two cells with one skeleton and different gammas share one grammar
    word = word_for_termination(4181, Standard())
    chains = [reflection_amplitudes(angles_for(word, CoinAngles(*cell)))
              for cell in ((1.0, 0.4), (2.5, -1.0))]
    f, fp, errors = _chain_evaluator(chains, 2)(np.concatenate([z, z[::-1]]),
                                                np.repeat([0, 1], z.size))
    assert not errors
    for m, (member, member_fp) in enumerate(((f[: z.size], fp[: z.size]),
                                             (f[z.size :][::-1], fp[z.size :][::-1]))):
        alone, alone_fp = _eval_circle(chains[m], 2, z)
        assert (member.tobytes(), member_fp.tobytes()) == (alone.tobytes(), alone_fp.tobytes())


def test_oracle_examples():
    assert winding_oracle([0.5]) == 0
    assert winding_oracle([0.0, 0.5], 1) == 1
    assert winding_oracle([0.0, 0.0, 0.5], 2) == 4


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        winding_oracle(np.zeros(17))
    with pytest.raises(ValueError):
        winding_oracle([1.0])
    with pytest.raises(NoReflectionError):
        winding_oracle(np.zeros(4))


def test_oracle_indeterminate_near_circle_root():
    # f = (g0 + z g1)/(1 + g0 g1 z) has its zero at -g0/g1, here 1.1e-7
    # inside the unit circle.
    with pytest.raises(IndeterminateRootError):
        winding_oracle([0.9, 0.9000001], 1)


def test_oracle_equivalence_on_random_sequences():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        gammas = rng.uniform(-0.95, 0.95, n)
        s = int(rng.integers(1, 3))
        try:
            expected = winding_oracle(gammas, s)
        except IndeterminateRootError:
            continue
        result = winding_number(SchurParams(gammas=gammas, steps_per_site=s))
        assert result.winding == expected
        checked += 1
    assert checked > 150


def test_winding_additivity_under_transparent_prefix():
    rng = np.random.default_rng(71)
    for s in (1, 2):
        for _ in range(5):
            base = rng.uniform(-0.9, 0.9, 6)
            r0 = winding_number(SchurParams(gammas=base, steps_per_site=s))
            if r0.ambiguous:
                continue
            for k in (1, 2, 3):
                padded = np.concatenate([np.zeros(k), base])
                rk = winding_number(SchurParams(gammas=padded, steps_per_site=s))
                assert rk.winding == r0.winding + k * s


def test_masking_universality_random_tails():
    rng = np.random.default_rng(73)
    z = circle(64)
    for _ in range(100):
        tail = rng.uniform(-1.0, 1.0, int(rng.integers(1, 40)))
        params = SchurParams(gammas=np.concatenate([[1.0], tail]))
        values = schur_eval(params, z)
        assert np.max(np.abs(values - 1.0)) < 1e-12
        result = winding_number(params)
        assert result.winding == 0
        assert not result.ambiguous


def test_doubling_samples_preserves_unambiguous_winding():
    rng = np.random.default_rng(79)
    for _ in range(20):
        gammas = rng.uniform(-0.9, 0.9, int(rng.integers(2, 10)))
        lo = winding_number(SchurParams(gammas=gammas, contour=Contour(256)))
        hi = winding_number(SchurParams(gammas=gammas, contour=Contour(512)))
        if not lo.ambiguous:
            assert hi.winding == lo.winding


def test_symmetry_point_values():
    assert symmetry_point_values(SchurParams(gammas=np.array([1.0, 0.2]))) == (1.0, 1.0)
    plus, minus = symmetry_point_values(
        SchurParams(gammas=np.array([0.0, 1.0]), steps_per_site=2)
    )
    # (+-1)^2 = 1 on both symmetry points: exactly the W=2 vs W=0 blind spot.
    assert plus == pytest.approx(1.0)
    assert minus == pytest.approx(1.0)
    half = symmetry_point_values(SchurParams(gammas=np.array([0.5])))
    assert half == (0.5, 0.5)


# At w = z^s = 1 a site step is f -> (gamma + f)/(1 + gamma f), which is
# tanh(atanh gamma + atanh f), so f_0(w = 1) = tanh(sum of atanh gamma_n) up
# to the first mirror.  In doubles this holds only while the tail sums stay
# moderate: past about 18, (num, den) loses its subdominant part and f locks
# at +-1, so these chains keep every tail sum within 5.
W_ONE = [(1, 1.0), (2, 1.0), (2, -1.0)]  # (steps_per_site, z) with z^s = 1


def bounded_tail_chain(rng, n, bound=5.0):
    """A mirror-free chain whose tail sums sum_{m >= k} atanh gamma_m lie in [-bound, bound]."""
    tails = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = np.clip(tails[k + 1] + rng.uniform(-2.0, 2.0), -bound, bound)
    return np.tanh(tails[:-1] - tails[1:])


@pytest.mark.parametrize("s, z", W_ONE)
def test_f_at_w_one_is_tanh_of_the_atanh_sum(s, z):
    rng = np.random.default_rng(12)
    for _ in range(100):
        gammas = bounded_tail_chain(rng, int(rng.integers(1, 120)))
        atanh = np.arctanh(gammas)
        assert np.max(np.abs(gammas)) < 1.0
        assert np.max(np.abs(np.cumsum(atanh[::-1]))) <= 5.0 + 1e-12
        assert abs(schur_eval(SchurParams(gammas, s), z) - np.tanh(atanh.sum())) < 1e-11


@pytest.mark.parametrize("s, z", W_ONE)
def test_f_at_w_one_is_the_first_mirror(s, z):
    rng = np.random.default_rng(13)
    for _ in range(50):
        mirror = float(rng.choice([-1.0, 1.0]))
        gammas = np.concatenate([bounded_tail_chain(rng, int(rng.integers(0, 40))), [mirror],
                                 rng.uniform(-1.0, 1.0, int(rng.integers(0, 20)))])
        assert abs(schur_eval(SchurParams(gammas, s), z) - mirror) <= 1e-15


@pytest.mark.parametrize("amplitude", [np.cos, np.sin], ids=["cos", "sin"])
def test_the_sign_of_f_at_w_one_is_the_sign_of_lambda(amplitude):
    """On the standard word the letters A and B have frequencies 1/tau and
    1/tau^2, so the atanh sum grows as n lambda, with lambda =
    atanh(gamma_A)/tau + atanh(gamma_B)/tau^2, and f_0(1) takes its sign."""
    rng = np.random.default_rng(14)
    word = standard_word(233)
    cells = 0
    for theta_a, theta_b in rng.uniform(-np.pi, np.pi, (240, 2)):
        lam = (GOLDEN_RATIO_INV * np.arctanh(amplitude(theta_a))
               + GOLDEN_RATIO_INV ** 2 * np.arctanh(amplitude(theta_b)))
        if abs(lam) <= 0.02:
            continue
        f = schur_eval(SchurParams(amplitude(angles_for(word, CoinAngles(theta_a, theta_b)))), 1.0)
        assert np.sign(f.real) == np.sign(lam), (theta_a, theta_b)
        cells += 1
    assert cells >= 200


def test_param_validation():
    with pytest.raises(ValueError):
        SchurParams(gammas=np.array([1.2]))
    with pytest.raises(ValueError):
        Contour(samples=8)
    with pytest.raises(ValueError):
        SchurParams(gammas=np.array([0.5]), steps_per_site=3)
    with pytest.raises(ValueError):
        Contour(min_modulus=0.0)
    with pytest.raises(ValueError, match="min_modulus"):
        Contour(min_modulus=np.nan)
    with pytest.raises(ValueError, match="reflection amplitudes"):
        SchurParams(gammas=np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="only evaluated on"):
        schur_eval(SchurParams(gammas=np.array([0.5])), complex("nan+nanj"))


def _outcome(result):
    """A winding outcome with every float field as its exact hex form."""
    if isinstance(result, ComputationError):
        return type(result).__name__, str(result)
    return (result.winding, result.raw_phase_sum.hex(), result.min_abs_f.hex(),
            result.refine_depth_used, result.ambiguous)


def _alone(params):
    try:
        return _outcome(winding_number(params))
    except ComputationError as exc:
        return _outcome(exc)


# (cell, ensemble, expected outcome kinds); the kind is the exception name or "ok".
BATCH_CASES = {
    "generic": ((1.0, 0.4), DEFAULT_ENSEMBLE, None),
    # every site reflects: starts at 0 in some prefixes, at 1 or 2 in others
    "mirrors-0-0": ((0.0, 0.0), DEFAULT_ENSEMBLE, None),
    "mirrors-pi-0": ((np.pi, 0.0), DEFAULT_ENSEMBLE, None),
    "a-mirrors": ((0.0, 0.9), DEFAULT_ENSEMBLE, None),
    "b-mirrors": ((1.1, 0.0), DEFAULT_ENSEMBLE, None),
    # every member has the same gammas, so the whole chain is shared
    "diagonal": ((0.8, 0.8), DEFAULT_ENSEMBLE, None),
    "antidiagonal": ((0.8, -0.8), DEFAULT_ENSEMBLE, None),
    "transparent": ((np.pi / 2, np.pi / 2), DEFAULT_ENSEMBLE, ["NoReflectionError"] * 4),
    # phason words share no suffix
    "phason": ((1.0, 0.4), phason_ensemble(3), None),
    # cos(1e-7) sits within 1e-14 of 1: the A-first prefixes hit the floor
    "pole": ((1e-7, 0.0), DEFAULT_ENSEMBLE,
             ["PoleOnContourError", "PoleOnContourError", "ok", "ok"]),
}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_windings_match_single_member_calls(case, s):
    cell, ensemble, kinds = BATCH_CASES[case]
    members = [reflection_params(*cell, 89, t, steps_per_site=s, contour=Contour(256))
               for t in ensemble]
    batched = [_outcome(r) for r in winding_numbers(members)]
    assert batched == [_alone(p) for p in members]
    if kinds is not None:
        assert [o[0] if isinstance(o[0], str) else "ok" for o in batched] == kinds


# cells whose bodies have different skeletons: two letters, one letter
# (theta_a = +-theta_b), mirrors, none reflecting, a pole
CROSS_CELLS = [(1.0, 0.4), (0.8, 0.8), (0.8, -0.8), (0.0, 0.0), (np.pi / 2, np.pi / 2),
               (1e-7, 0.0), (2.5, -1.0)]


@pytest.mark.parametrize("s", [1, 2])
def test_cells_batched_together_match_one_cell_calls(s):
    cells = [(cell, DEFAULT_ENSEMBLE) for cell in CROSS_CELLS]
    cells.append(((1.0, 0.4), phason_ensemble(3)))
    per_cell = [[reflection_params(*cell, 89, t, steps_per_site=s, contour=Contour(256))
                 for t in ensemble] for cell, ensemble in cells]
    batched = [_outcome(r) for r in winding_numbers([p for members in per_cell for p in members])]
    one_cell = [_outcome(r) for members in per_cell for r in winding_numbers(members)]
    assert batched == one_cell
    kinds = {o[0] for o in batched if isinstance(o[0], str)}
    assert kinds == {"NoReflectionError", "PoleOnContourError"}


def _mirrored_chains(n=60):
    """Equal-length chains on one base: a mirror at site 5, one at site 40, none."""
    base = np.random.default_rng(83).uniform(-0.9, 0.9, n)
    early, late = base.copy(), base.copy()
    early[5], late[40] = 1.0, -1.0
    return [early, late, base]


@pytest.mark.parametrize("s", [1, 2])
def test_mixed_cut_batch_matches_single_member_calls(s):
    members = [SchurParams(g, steps_per_site=s, contour=Contour(256)) for g in _mirrored_chains()]
    batched = [_outcome(r) for r in winding_numbers(members)]
    assert batched == [_alone(p) for p in members]


@pytest.mark.parametrize("s", [1, 2])
def test_chain_equals_its_cut_at_the_first_mirror(s):
    z = np.concatenate([circle(64), 0.7 * circle(16)])
    for gammas, first in zip(_mirrored_chains(), (5, 40)):
        full = schur_eval(SchurParams(gammas, steps_per_site=s), z)
        cut = schur_eval(SchurParams(gammas[: first + 1], steps_per_site=s), z)
        assert full.tobytes() == cut.tobytes()


def test_batch_members_must_share_the_recursion():
    base = SchurParams(gammas=np.full(8, 0.5))
    with pytest.raises(ValueError):
        winding_numbers([base, SchurParams(gammas=np.full(8, 0.5), steps_per_site=1)])
    with pytest.raises(ValueError):
        winding_numbers([base, SchurParams(gammas=np.full(8, 0.5), contour=Contour(256))])
    with pytest.raises(ValueError):
        winding_numbers([])


@pytest.mark.parametrize("s", [1, 2])
def test_chains_of_any_length_share_a_batch(s):
    # shorter than the head, mirrored, all zero, and two cutoffs of one cell
    chains = [[0.4], [-0.7, 0.2], [0.5, 1.0], [-1.0], np.zeros(5), *_mirrored_chains(),
              *(reflection_params(1.0, 0.4, n).gammas for n in (144, 233))]
    members = [SchurParams(g, steps_per_site=s, contour=Contour(256)) for g in chains]
    assert len({p.gammas.size for p in members}) == 6
    batched = [_outcome(r) for r in winding_numbers(members)]
    assert batched == [_alone(p) for p in members]


class ReferenceContour:
    """The adaptive contour of one member as a whole array, rebuilt by
    insertion every round, with every interval re-tested: the plain form of
    the refinement, kept as a reference for the batched one.

    The contour starts from the ring's angles with pi among them, which an
    odd ring gains; pi is z = -1 exactly.  With upper_half it is the closed
    upper arc, the angles below pi and then pi, each interval standing for
    itself and its mirror image."""

    def __init__(self, samples, min_modulus, max_refine_depth, upper_half=False):
        self.min_modulus = min_modulus
        self.max_refine_depth = max_refine_depth
        self.fold = 2 if upper_half else 1
        ring = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        below, above = ring[: (samples + 1) // 2], ring[samples // 2 + 1 :]
        self.angles = np.concatenate([below, [np.pi]] + ([] if upper_half else [above]))
        self.fvals = None
        self.exhausted = False
        self.pending = self.angles

    def points(self):
        """The pending points, with pi at z = -1 exactly."""
        z = np.exp(1j * self.pending)
        z[self.pending == np.pi] = -1.0
        return z

    def absorb(self, vals, derivs):
        if self.fvals is None:
            if np.max(np.abs(vals)) < self.min_modulus:
                raise NoReflectionError(
                    f"|f| < {self.min_modulus:g} on the whole contour; winding undefined")
            ld_ring = _logd(vals, derivs)
            self.fvals, self.logd = vals, ld_ring
            if self.fold == 1:  # closed on the first point
                self.angles = np.append(self.angles, 2.0 * np.pi)
                self.fvals = np.append(vals, vals[0])
                self.logd = np.append(ld_ring, ld_ring[0])
            self.depth = np.zeros(len(self.angles) - 1, dtype=np.int64)
            self.min_abs = float(np.min(np.abs(self.fvals)))
            return
        self.min_abs = min(self.min_abs, float(np.min(np.abs(vals))))
        at = self.split_at + 1
        self.angles = np.insert(self.angles, at, self.pending)
        self.fvals = np.insert(self.fvals, at, vals)
        self.logd = np.insert(self.logd, at, _logd(vals, derivs))
        self.depth = np.repeat(np.where(self.splitting, self.depth + 1, self.depth),
                               np.where(self.splitting, 2, 1))

    def bisect(self):
        mods = np.abs(self.fvals)
        end_mods = np.minimum(mods[:-1], mods[1:])
        increments = np.angle(self.fvals[1:] / self.fvals[:-1])
        chords = np.abs(self.fvals[1:] - self.fvals[:-1])
        spans = 2.0 * np.sin(np.diff(self.angles) / 2.0)
        motion = spans * np.maximum(self.logd[:-1], self.logd[1:])
        bad = ((np.abs(increments) > np.pi / 2.0) | (end_mods < self.min_modulus)
               | (chords > 0.5 * end_mods) | (motion > 1.0))
        splittable = bad & (self.depth < self.max_refine_depth)
        if not splittable.any():
            self.exhausted = bool((bad & (self.depth >= self.max_refine_depth)).any())
            return False
        if self.fold * (self.depth.size + splittable.sum()) + 1 > 1 << 21:
            self.exhausted = True
            return False
        self.splitting = splittable
        self.split_at = np.flatnonzero(splittable)
        self.pending = (self.angles[self.split_at] + self.angles[self.split_at + 1]) / 2.0
        return True

    def result(self):
        increments = np.angle(self.fvals[1:] / self.fvals[:-1])
        raw = float(np.sum(self.fold * increments) / (2.0 * np.pi))
        winding = round(raw)
        ambiguous = (self.exhausted or self.min_abs < self.min_modulus
                     or abs(raw - winding) > _RESIDUAL_GUARD)
        return WindingResult(int(winding), raw, self.min_abs, int(self.depth.max()),
                             bool(ambiguous))


def reference_refine(evaluate, contours):
    """Every unfinished contour's pending points through evaluate, round by round."""
    results = [None] * len(contours)
    active = list(range(len(contours)))
    while active:
        sizes = [contours[m].pending.size for m in active]
        owner = np.repeat(active, sizes)
        f, df, errors = evaluate(np.concatenate([contours[m].points() for m in active]), owner)
        bounds = np.cumsum([0] + sizes)
        still = []
        for m, lo, hi in zip(active, bounds[:-1], bounds[1:]):
            error = errors.get(m)
            if error is None:
                try:
                    contours[m].absorb(f[lo:hi], df[lo:hi])
                except NoReflectionError as exc:
                    error = exc
            if error is not None:
                results[m] = error
            elif contours[m].bisect():
                still.append(m)
            else:
                results[m] = contours[m].result()
        active = still
    return results


def _reference_windings(members, upper_half=True):
    evaluate = _chain_evaluator([p.gammas for p in members], members[0].steps_per_site)
    contours = [ReferenceContour(**vars(p.contour), upper_half=upper_half) for p in members]
    return [_outcome(r) for r in reference_refine(evaluate, contours)]


def _reference_batches():
    """Named batches of members: the BATCH_CASES, random chains, and three
    batches of two that each share one contour: a member that exhausts its
    depth, dips below min_modulus or refines plainly, beside one that leaves
    the batch early."""
    batches = {}
    for case, (cell, ensemble, _) in BATCH_CASES.items():
        for s in (1, 2):
            batches[f"{case}-s{s}"] = [
                reflection_params(*cell, 89, t, steps_per_site=s, contour=Contour(256))
                for t in ensemble]
    rng = np.random.default_rng(97)
    for s in (1, 2):
        batches[f"random-s{s}"] = [
            SchurParams(rng.uniform(-0.95, 0.95, 40), steps_per_site=s, contour=Contour(128))
            for _ in range(4)]
    generic = reflection_params(1.0, 0.4, 233, Standard()).gammas
    silent = np.zeros(generic.size)
    # f = z^4 up to rounding: nothing to split on the first ring
    settled = reflection_params(np.pi / 2, 0.0, 233, PrefixOverride("AAB")).gammas
    for name, early, contour in (
        ("exhausted", silent, Contour(512, max_refine_depth=2)),
        ("thin", settled, Contour(256, min_modulus=0.8, max_refine_depth=4)),
        ("plain", silent, Contour(512)),
    ):
        batches[f"limits-{name}"] = [SchurParams(g, contour=contour) for g in (generic, early)]
    # a pole at z = i, between points 4 and 5 of the 18-point ring, which
    # the first round's midpoint hits, beside a member that refines plainly
    late_pole = [0.0, -0.9, -(1.0 - 5e-15), -1.0]
    batches["limits-late-pole"] = [SchurParams(g, steps_per_site=2, contour=Contour(18))
                                   for g in (late_pole, [0.3, 0.5, 0.2, -0.4])]
    return batches


REFERENCE_BATCHES = _reference_batches()


@pytest.mark.parametrize("name", list(REFERENCE_BATCHES))
def test_refinement_matches_the_whole_contour_reference(name):
    batch = REFERENCE_BATCHES[name]
    assert [_outcome(r) for r in winding_numbers(batch)] == _reference_windings(batch)


def test_the_limit_cases_are_hit():
    (exhausted, silent), (thin, settled), (plain, _) = (
        [_outcome(r) for r in winding_numbers(REFERENCE_BATCHES[f"limits-{name}"])]
        for name in ("exhausted", "thin", "plain"))
    assert exhausted[3:] == (2, True) and plain[3] > 2
    assert float.fromhex(thin[2]) < 0.8 and thin[3:] == (4, True)
    assert silent[0] == "NoReflectionError"
    assert settled[0] == 4 and settled[3:] == (0, False)
    late_pole, plain_member = REFERENCE_BATCHES["limits-late-pole"]
    assert 0.99 < np.abs(schur_eval(late_pole, circle(18))).min() <= 1.0
    batched = [_outcome(r) for r in winding_numbers([late_pole, plain_member])]
    assert batched[0][0] == "PoleOnContourError" and "recursion step 2 " in batched[0][1]
    assert batched == [_alone(late_pole), _alone(plain_member)]


def _arc_members():
    """Every member of REFERENCE_BATCHES, and members on rings of 17, 255 and
    257 samples, grouped in batches of one steps_per_site and contour."""
    batches = list(REFERENCE_BATCHES.values())
    coins = CoinAngles(1.0, 0.4)
    chains = [reflection_amplitudes(angles_for(word_for_termination(89, t), coins))
              for t in (Standard(), PrefixOverride("AAB"), Phason(0.37))]
    chains.append(np.random.default_rng(17).uniform(-0.95, 0.95, 40))
    for samples in (17, 255, 257):
        for s in (1, 2):
            batches.append([SchurParams(g, steps_per_site=s, contour=Contour(samples))
                            for g in chains])
    return batches


def _kind(outcome):
    """(error type, winding, ambiguous flag) of an _outcome."""
    if isinstance(outcome[0], str):
        return outcome[0], None, None
    return "ok", outcome[0], outcome[4]


def test_the_upper_arc_agrees_with_the_whole_circle():
    for batch in _arc_members():
        arc = [_kind(_outcome(r)) for r in winding_numbers(batch)]
        assert arc == [_kind(o) for o in _reference_windings(batch, upper_half=False)]


def test_the_late_pole_is_found_at_a_first_round_midpoint():
    # The 18-point arc is 9 points below pi and pi; the interval from 4 pi / 9
    # to 5 pi / 9 splits in the first round, and z = i hits the pole there.
    late_pole, _ = REFERENCE_BATCHES["limits-late-pole"]
    evaluate = _chain_evaluator([late_pole.gammas], 2)
    rounds = []

    def recording(z, owner):
        f, fp, errors = evaluate(z, owner)
        rounds.append((z, f, errors))
        return f, fp, errors

    (result,) = _refine(recording, 1, late_pole.contour)
    assert isinstance(result, PoleOnContourError) and "recursion step 2 " in str(result)
    (ring, _, ring_errors), (z, f, errors) = rounds
    assert ring.size == 10 and not ring_errors and list(errors) == [0]
    assert np.array_equal(z[np.isnan(f)], [np.exp(0.5j * np.pi)])


CONJUGATION_CHAINS = {
    "random": np.random.default_rng(101).uniform(-0.95, 0.95, 60),
    "mirror": _mirrored_chains()[0],
    "near-mirror": np.array([0.1, 0.2, 0.3, 1.0 - 5e-15, 1.0]),
    "late-pole": np.array([0.0, -0.9, -(1.0 - 5e-15), -1.0]),
    "standard": reflection_params(1.0, 0.4, 233).gammas,
}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("name", list(CONJUGATION_CHAINS))
def test_the_evaluator_commutes_with_conjugation(name, s):
    # f(conj z) = conj f(z) bit for bit, poles included: the upper arc
    # stands for the whole circle.
    z = np.concatenate([np.exp(1j * np.linspace(0.0, np.pi, 1001)), [1.0, -1.0, 1j]])
    chains = [CONJUGATION_CHAINS[name], CONJUGATION_CHAINS["random"]]
    owner = np.repeat([0, 1], z.size)
    evaluate = _chain_evaluator(chains, s)
    f, fp, errors = evaluate(np.tile(z, 2), owner)
    g, gp, mirror_errors = evaluate(np.tile(np.conj(z), 2), owner)
    assert np.array_equal(np.conj(f), g, equal_nan=True)
    assert np.array_equal(np.conj(fp), gp, equal_nan=True)
    assert {m: str(e) for m, e in errors.items()} == {m: str(e) for m, e in mirror_errors.items()}


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at (1.0, 0.4), n=233, standard termination, s=2 the "
           "winding is W=100 with 512 samples and W=160 with 4096, both unambiguous; "
           "the contour refinement misses phase loops at a fixed cutoff",
)
def test_unambiguous_winding_does_not_depend_on_the_sample_count():
    coarse, fine = (
        winding_number(reflection_params(1.0, 0.4, 233, Standard(), contour=Contour(m)))
        for m in (512, 4096)
    )
    assert not coarse.ambiguous and not fine.ambiguous
    assert coarse.winding == fine.winding


GAMMA_POINTS = [(1.0, 0.4), (1.2, 0.3), (2.5, -1.0)]
GAMMA_TERMINATIONS = [Standard(), PrefixOverride("AAB")]


def walk_schur_function(theta_a, theta_b, termination, z, n=233, steps=400):
    """Boundary Schur function of the simulated walk at |R, 0>, from moments of U.

    c_k = conj(<R,0| U^k |R,0>) gives the Caratheodory function
    F(z) = 1 + 2 sum_k c_k z^k, and F = (1 + z f) / (1 - z f); at |z| = 0.9
    the series is converged to rounding after 400 steps.
    """
    cfg = WalkConfig(n, CoinAngles(theta_a, theta_b), word_for_termination(n, termination))
    amps = localized_state(cfg, 0, ["R"])[0].astype(np.complex128)
    moments = np.empty(steps + 1, dtype=np.complex128)
    for k in range(steps + 1):
        moments[k] = np.conj(amps[1, 0])
        amps = apply_step(amps, cfg)
    big_f = 1.0 + 2.0 * z * np.polyval(moments[:0:-1], z)
    return (big_f - 1.0) / ((big_f + 1.0) * z), cfg.angles()


@pytest.mark.parametrize("termination", GAMMA_TERMINATIONS, ids=["standard", "AAB"])
@pytest.mark.parametrize("theta_a,theta_b", GAMMA_POINTS)
def test_walk_schur_function_has_sine_reflection_amplitudes(theta_a, theta_b, termination):
    z = 0.9 * circle(8)
    f, angles = walk_schur_function(theta_a, theta_b, termination, z)
    assert np.max(np.abs(f - schur_eval(SchurParams(np.sin(angles)), z))) < 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: reflection_params uses gamma_n = cos(theta_n), but the "
           "walk's own boundary Schur function has gamma_n = sin(theta_n); the two "
           "differ by 0.64-1.81 on |z| = 0.9 at these points",
)
@pytest.mark.parametrize("termination", GAMMA_TERMINATIONS, ids=["standard", "AAB"])
@pytest.mark.parametrize("theta_a,theta_b", GAMMA_POINTS)
def test_reflection_params_match_the_walk_schur_function(theta_a, theta_b, termination):
    z = 0.9 * circle(8)
    f, _ = walk_schur_function(theta_a, theta_b, termination, z)
    expected = schur_eval(reflection_params(theta_a, theta_b, 233, termination), z)
    assert np.max(np.abs(f - expected)) < 1e-12


POLE_POINTS = [(1.0, 0.4), (2.5, -1.0)]


@pytest.fixture(scope="module")
def left_edge_energies():
    """Quasienergies of the left-edge modes at N = 610, per (theta_a, theta_b, termination)."""
    energies = {}
    for theta_a, theta_b in POLE_POINTS:
        for termination in GAMMA_TERMINATIONS:
            word = word_for_termination(610, termination)
            spec = quasienergies(WalkConfig(610, CoinAngles(theta_a, theta_b), word))
            modes = classify_edge_modes(spec, find_gaps(spec, DEFAULT_MIN_GAP_WIDTH))
            energies[theta_a, theta_b, termination] = np.array(
                [m.energy for m in modes if m.side == "left"])
    return energies


def worst_pole_miss(left_edge_energies, params_for):
    """max |z f(z) - 1| over the left-edge modes, z = e^{iE}: each must be a pole of F."""
    worst = 0.0
    for (theta_a, theta_b, termination), energies in left_edge_energies.items():
        assert energies.size > 0
        z = np.exp(1j * energies)
        f = schur_eval(params_for(theta_a, theta_b, termination), z)
        worst = max(worst, float(np.max(np.abs(z * f - 1.0))))
    return worst


def test_walk_schur_function_has_a_pole_at_every_left_edge_mode(left_edge_energies):
    # F = (1 + z f)/(1 - z f) has a pole at z = e^{iE} for each left-edge
    # mode at quasienergy E; with gamma = sin(theta) over 987 sites every
    # one of these modes at N = 610 is such a pole to about 1e-12.
    def sine_params(theta_a, theta_b, termination):
        word = word_for_termination(987, termination)
        return SchurParams(np.sin(angles_for(word, CoinAngles(theta_a, theta_b))))

    assert worst_pole_miss(left_edge_energies, sine_params) < 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: reflection_params uses gamma_n = cos(theta_n); its f has "
           "a pole at one left-edge mode per case, the pinned one, not at the others",
)
def test_reflection_params_have_a_pole_at_every_left_edge_mode(left_edge_energies):
    def cosine_params(theta_a, theta_b, termination):
        return reflection_params(theta_a, theta_b, 987, termination)

    assert worst_pole_miss(left_edge_energies, cosine_params) < 1e-9
