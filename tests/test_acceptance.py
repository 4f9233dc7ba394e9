"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; budgets are wall-clock seconds on a desk-class machine.
"""

import time

import numpy as np
from helpers import circle_multisets_close

from fibwalk.cli import main as cli_main
from fibwalk.dynamics import mcd_time_average
from fibwalk.errors import IndeterminateRootError
from fibwalk.schur import SchurParams, reflection_params, schur_eval, winding_number, winding_oracle
from fibwalk.sequence import CoinAngles, PrefixOverride, standard_word
from fibwalk.spectrum import quasienergies
from fibwalk.sweep import GridSpec, STATUS_OK, sweep_mcd, sweep_winding_average
from fibwalk.walk import WalkConfig, build_unitary

HALF_PI = np.pi / 2


def report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def fib_config(n, theta_a, theta_b):
    return WalkConfig(n, CoinAngles(theta_a, theta_b), standard_word(n))


def test_criterion_1_unitarity_and_spectral_sanity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_unitarity = worst_residual = 0.0
    negation_closed = True
    for _ in range(50):
        n = int(rng.integers(8, 90))
        cfg = WalkConfig(
            n,
            CoinAngles(float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi))),
            standard_word(n),
            boundary_phase_left=float(rng.choice([-1.0, 1.0])),
            boundary_phase_right=float(rng.choice([-1.0, 1.0])),
        )
        u = build_unitary(cfg)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(2 * n))))
        )
        spec = quasienergies(cfg)
        worst_residual = max(worst_residual, spec.max_residual)
        # E and -E coincide as multisets on the circle
        negation_closed &= circle_multisets_close(spec.energies, -spec.energies, 1e-8)
    elapsed = time.monotonic() - t0
    ok = (
        worst_unitarity < 1e-10
        and worst_residual < 1e-8
        and negation_closed
        and elapsed < 30.0
    )
    report(
        1, "unitarity and spectral sanity", ok,
        f"(unitarity {worst_unitarity:.2e}, residual {worst_residual:.2e}, "
        f"negation closed {negation_closed}, {elapsed:.1f}s)",
    )


def test_criterion_2_edge_mode_coexistence():
    t0 = time.monotonic()
    spec = quasienergies(fib_config(233, HALF_PI, 0.0))
    w = spec.boundary_weights
    e = spec.energies
    has_zero = bool(np.any((w >= 0.6) & (np.abs(e) < 0.05)))
    has_pi = bool(np.any((w >= 0.6) & (np.abs(np.pi - np.abs(e)) < 0.05)))
    elapsed = time.monotonic() - t0
    ok = has_zero and has_pi and elapsed < 10.0
    report(
        2, "edge-mode coexistence", ok,
        f"(zero mode {has_zero}, pi mode {has_pi}, {elapsed:.1f}s)",
    )


def test_criterion_3_exact_winding_quartet():
    t0 = time.monotonic()
    quartet = {}
    for prefix, expected in (("ABA", 2), ("AAB", 4), ("BAA", 0), ("BAB", 0)):
        result = winding_number(
            reflection_params(HALF_PI, 0.0, 233, PrefixOverride(prefix))
        )
        quartet[prefix] = (result.winding, result.ambiguous, expected)
    mean = sum(v[0] for v in quartet.values()) / 4.0
    elapsed = time.monotonic() - t0
    ok = (
        all(w == exp and not amb for w, amb, exp in quartet.values())
        and mean == 1.5
        and elapsed < 1.0
    )
    report(
        3, "exact winding quartet", ok,
        f"({ {k: v[0] for k, v in quartet.items()} }, mean {mean}, {elapsed:.2f}s)",
    )


def test_criterion_4_masking_universality():
    rng = np.random.default_rng(104)
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    worst = 0.0
    windings = set()
    for _ in range(100):
        tail = rng.uniform(-1.0, 1.0, int(rng.integers(1, 50)))
        params = SchurParams(gammas=np.concatenate([[1.0], tail]))
        worst = max(worst, float(np.max(np.abs(schur_eval(params, ring) - 1.0))))
        result = winding_number(params)
        windings.add((result.winding, result.ambiguous))
    ok = worst < 1e-12 and windings == {(0, False)}
    report(4, "masking universality", ok, f"(max |f-1| = {worst:.1e})")


def test_criterion_5_winding_oracle_equivalence():
    rng = np.random.default_rng(105)
    mismatches = 0
    checked = 0
    skipped = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        gammas = rng.uniform(-0.95, 0.95, n)
        rng.integers(1, 3)  # keeps the stream, and so the 200 chains, of this seed
        try:
            expected = winding_oracle(gammas)
        except IndeterminateRootError:
            skipped += 1
            continue
        result = winding_number(SchurParams(gammas=gammas))
        checked += 1
        mismatches += result.winding != expected
    ok = mismatches == 0 and checked >= 150
    report(
        5, "winding oracle equivalence", ok,
        f"({checked} checked, {skipped} indeterminate, {mismatches} mismatches)",
    )


def test_criterion_6_mcd_plateau():
    t0 = time.monotonic()
    cfg = fib_config(987, HALF_PI, 0.0)
    short = mcd_time_average(cfg, 200)
    long = mcd_time_average(cfg, 400)
    elapsed = time.monotonic() - t0
    ok = -1.2 <= long <= -0.8 and abs(long - short) < 0.1 and elapsed < 60.0
    report(
        6, "mcd plateau", ok,
        f"(T=400 gives {long:.4f}, T=200 gives {short:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_7_ballistic_analytic_check():
    value = mcd_time_average(fib_config(64, 0.0, 0.0), 20)
    ok = abs(value - (-21.0)) <= 1e-12
    report(7, "ballistic analytic check", ok, f"(mcd_avg = {value!r})")


def test_criterion_8_butterfly_consistency():
    t0 = time.monotonic()
    grid = GridSpec(resolution=21)
    mcd = sweep_mcd(grid, n_sites=377, steps=150, workers=None)
    avg = sweep_winding_average(grid, workers=None)
    plateau = np.abs(mcd.values + 1.0) < 0.2
    ok_status = np.array([s == STATUS_OK for s in avg.statuses])
    good = plateau & ok_status & (avg.values >= 1.0)
    fraction = good.sum() / max(int(plateau.sum()), 1)
    elapsed = time.monotonic() - t0
    ok = plateau.sum() > 0 and fraction >= 0.80 and elapsed < 900.0
    report(
        8, "butterfly consistency", ok,
        f"({int(plateau.sum())} plateau cells, fraction {fraction:.3f}, {elapsed:.0f}s)",
    )


def test_criterion_9_determinism(tmp_path):
    args = ["winding-map", "--resolution", "11"]
    one = tmp_path / "one.csv"
    eight = tmp_path / "eight.csv"
    code1 = cli_main(args + ["--workers", "1", "--output", str(one)])
    code8 = cli_main(args + ["--workers", "8", "--output", str(eight)])
    identical = one.read_bytes() == eight.read_bytes()
    ok = code1 == 0 and code8 == 0 and identical
    report(9, "determinism", ok, f"(byte-identical: {identical})")
