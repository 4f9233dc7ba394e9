import numpy as np
import pytest

from fibwalk.sequence import (
    CoinAngles,
    FibonacciWord,
    Phason,
    PrefixOverride,
    Standard,
    angles_for,
    apply_termination,
    cut_project_word,
    generate_word,
    parse_termination,
    phason_ensemble,
    reflection_amplitudes,
    standard_word,
    termination_label,
)


def test_fibonacci_numbers():
    assert [len(generate_word(n)) for n in range(1, 8)] == [1, 2, 3, 5, 8, 13, 21]


def test_generate_word_seed():
    assert generate_word(1).letters == "A"


def test_generate_word_order_5():
    assert generate_word(5).letters == "ABAABABA"


def test_generate_word_letter_frequencies():
    # count(A)/F_n = F_{n-1}/F_n
    w = generate_word(10)
    assert len(w) == 89
    assert w.letters.count("A") == 55
    assert w.letters.count("B") == 34


@pytest.mark.parametrize("order", [0, -3, 31])
def test_generate_word_bounds(order):
    with pytest.raises(ValueError):
        generate_word(order)


@pytest.mark.parametrize("n", range(3, 21))
def test_substitution_recursion(n):
    # w_n = w_{n-1} + w_{n-2}
    assert generate_word(n).letters == generate_word(n - 1).letters + generate_word(n - 2).letters


def test_cut_project_matches_hand_evaluation():
    assert cut_project_word(5, 0.0).letters == "ABAAB"


@pytest.mark.parametrize("n", range(1, 16))
def test_cut_project_matches_substitution(n):
    assert cut_project_word(len(generate_word(n)), 0.0).letters == generate_word(n).letters


def test_cut_project_nonzero_phason():
    w = cut_project_word(8, 0.5)
    assert w.letters == "BABAABAA"
    assert w.letters != cut_project_word(8, 0.0).letters
    assert "BB" not in w.letters


def test_phason_periodicity():
    rng = np.random.default_rng(42)
    for _ in range(100):
        phi = float(rng.uniform(-3.0, 3.0))
        length = int(rng.integers(1, 1001))
        assert cut_project_word(length, phi).letters == cut_project_word(length, phi + 1.0).letters


def test_no_bb_anywhere():
    for n in range(1, 16):
        assert "BB" not in generate_word(n).letters
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = cut_project_word(int(rng.integers(2, 500)), float(rng.uniform(0, 1)))
        assert "BB" not in w.letters


def test_word_invariants_rejected():
    with pytest.raises(ValueError):
        FibonacciWord("ABBA", 1)  # BB outside the prefix
    with pytest.raises(ValueError):
        FibonacciWord("AXB", 1)
    # BB confined to the prefix is allowed
    FibonacciWord("BBA", 2)


def test_apply_termination_prefix():
    w = FibonacciWord("ABAAB", 5)
    assert apply_termination(w, PrefixOverride("BAB")).letters == "BABAB"
    assert apply_termination(w, Standard()).letters == "ABAAB"
    assert apply_termination(w, PrefixOverride("ABA")).letters == "ABAAB"


def test_apply_termination_too_long():
    w = FibonacciWord("AB", 2)
    with pytest.raises(ValueError):
        apply_termination(w, PrefixOverride("BAB"))


def test_apply_termination_phason_regenerates():
    w = standard_word(34)
    regen = apply_termination(w, Phason(0.25))
    assert len(regen) == 34
    assert regen.letters == cut_project_word(34, 0.25).letters


def test_prefix_override_limited_to_three_letters():
    with pytest.raises(ValueError):
        PrefixOverride("ABAB")


def test_phason_reduced_modulo_one():
    assert Phason(1.25).phi == pytest.approx(0.25)
    assert Phason(-0.25).phi == pytest.approx(0.75)


def test_angles_for():
    ab = FibonacciWord("AB", 2)
    assert np.allclose(angles_for(ab, CoinAngles(np.pi / 2, 0.0)), [np.pi / 2, 0.0])
    aba = FibonacciWord("ABA", 2)
    assert np.allclose(angles_for(aba, CoinAngles(0.7, 0.7)), [0.7, 0.7, 0.7])
    w = FibonacciWord("ABAAB", 5)
    assert np.allclose(angles_for(w, CoinAngles(0.3, 1.1)), [0.3, 1.1, 0.3, 0.3, 1.1])


def test_reflection_amplitudes():
    assert np.allclose(reflection_amplitudes([np.pi / 2, 0.0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(reflection_amplitudes([0.0, 0.0]), [1.0, 1.0])
    assert np.allclose(reflection_amplitudes([np.pi / 3]), [0.5])


def test_coin_angles_canonical_range():
    with pytest.raises(ValueError):
        CoinAngles(float("nan"), 0.0)


def test_phason_ensemble():
    ens = phason_ensemble(4)
    assert [t.phi for t in ens] == [0.0, 0.25, 0.5, 0.75]


def test_termination_labels_round_trip():
    for term in (Standard(), PrefixOverride("BAB"), Phason(0.3)):
        assert parse_termination(termination_label(term)) == term
