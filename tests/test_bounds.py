"""Tests for exact pattern counts and decay bounds."""

from fractions import Fraction
from itertools import product
from math import comb, exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeller_lab import bounds
from repeller_lab.bounds import (
    count_patterns,
    delta_bound,
    delta_peak,
    depth_threshold,
    entropy_bound,
    entropy_row,
    lemma_cell_bound,
    lemma_row,
    lt_constraints,
    prefactor_bound,
    prefactor_row,
    stirling_binomial_bound,
    stirling_row,
)


def enumerate_block_words(n, l, t, m):
    """Brute-force count of length-n words over {0,...,m} starting with a
    0-block, ending with a fast letter, with l zeros in t maximal blocks."""
    count = 0
    for w in product(range(m + 1), repeat=n):
        if w[0] != 0 or w[-1] == 0:
            continue
        if sum(1 for s in w if s == 0) != l:
            continue
        blocks = sum(1 for j, s in enumerate(w) if s == 0 and (j == 0 or w[j - 1] != 0))
        if blocks == t:
            count += 1
    return count


# ------------------------------------------------------------ pattern count

def test_count_patterns_against_enumeration():
    for n, l, t, m in [(6, 3, 2, 1), (6, 3, 2, 2), (6, 4, 2, 1),
                       (7, 4, 1, 2), (8, 5, 2, 1), (8, 4, 3, 1), (4, 2, 1, 3)]:
        chk = count_patterns(n, l, t, m)
        assert chk.lhs == enumerate_block_words(n, l, t, m)
        assert chk.ok and chk.lhs <= chk.rhs


def test_count_patterns_validation():
    with pytest.raises(ValueError):
        count_patterns(6, 6, 1, 1)  # no room for a fast letter
    with pytest.raises(ValueError):
        count_patterns(6, 2, 3, 1)  # more blocks than zeros
    with pytest.raises(ValueError):
        count_patterns(6, 4, 3, 1)  # more blocks than fast letters
    with pytest.raises(ValueError):
        count_patterns(6, 3, 1, 0)  # empty fast alphabet


def test_count_patterns_bound_dominates_on_grid():
    for n in range(4, 16):
        for l in range(1, n):
            for t in range(1, min(l, n - l) + 1):
                chk = count_patterns(n, l, t, m=9)
                assert chk.lhs <= chk.rhs


# ------------------------------------------------------- binomial inequalities

def test_stirling_binomial_pinned_example():
    chk = stirling_binomial_bound(100, 10)
    assert chk.ok
    assert chk.lhs == pytest.approx(log(comb(100, 10)))
    assert chk.lhs == pytest.approx(30.4823, abs=1e-3)
    assert chk.rhs == pytest.approx(32.5083, abs=1e-3)


def test_stirling_binomial_holds_on_sampled_grid():
    for l in range(5, 1001, 97):
        for t in range(1, (l - 1) // 2 + 1, max(1, l // 11)):
            assert stirling_binomial_bound(l, t).ok


def _acceptance_grid():
    """Acceptance 6's Stirling/prefactor cells: 2 <= l <= 1000, 1 <= t < l/2."""
    return ((l, t) for l in range(2, 1001) for t in range(1, (l + 1) // 2))


_ACCEPTANCE_CELLS = 249_500


def test_stirling_screen_matches_big_integers_on_acceptance_grid():
    # the scalar function and the row walk, each against the exact verdict
    powers = [k ** k for k in range(1001)]
    rows = {l: [ok for _, _, ok in stirling_row(l, (l - 1) // 2)] for l in range(2, 1001)}
    mismatched, cells = [], 0
    for l, t in _acceptance_grid():
        c = l if t == 1 else c * (l - t + 1) // t  # C(l, t) from C(l, t-1)
        exact = c * powers[t] * powers[l - t] <= powers[l]
        cells += 1
        if stirling_binomial_bound(l, t).ok != exact or rows[l][t - 1] != exact:
            mismatched.append((l, t))
    assert cells == sum(map(len, rows.values())) == _ACCEPTANCE_CELLS
    assert not mismatched


def test_stirling_fallback_agrees_with_screen(monkeypatch):
    # an infinite margin sends every cell to the integer cross-multiplication
    cells = [(l, t) for l in range(3, 1001, 37) for t in range(1, (l + 1) // 2, 5)]
    screened = [stirling_binomial_bound(l, t) for l, t in cells]
    monkeypatch.setattr(bounds, "_LOG_SCREEN", float("inf"))
    assert [stirling_binomial_bound(l, t) for l, t in cells] == screened
    walked = [(lhs, rhs, ok) for l in range(3, 1001, 37)
              for lhs, rhs, ok in list(stirling_row(l, (l - 1) // 2))[::5]]
    assert walked == [(chk.lhs, chk.rhs, chk.ok) for chk in screened]
    assert len(cells) > 1000 and all(chk.ok for chk in screened)


def test_prefactor_matches_fractions_on_acceptance_grid():
    pi_low, mismatched, cells = Fraction(314159, 100000), [], 0
    for l, t in _acceptance_grid():
        lhs, rhs = Fraction((4 * l + 1) ** 2, 16 * l ** 2), t * pi_low
        chk = prefactor_bound(l, t)
        cells += 1
        if (chk.ok, chk.lhs.hex(), chk.rhs.hex()) != (lhs <= rhs, float(lhs).hex(),
                                                      float(rhs).hex()):
            mismatched.append((l, t))
    assert cells == _ACCEPTANCE_CELLS
    assert not mismatched


def _bits(lhs, rhs, ok):
    return lhs.hex(), rhs.hex(), ok


def _checks_bits(checks):
    return [_bits(chk.lhs, chk.rhs, chk.ok) for chk in checks]


@settings(max_examples=25, deadline=None)
@given(l=st.integers(2, 5000))
def test_stirling_and_prefactor_rows_match_scalar_calls(l):
    # a row walk steps C(l, t) exactly, so every float keeps its bits;
    # 5000 is the grids' exactness cap
    t_max = (l - 1) // 2
    assert [_bits(*cell) for cell in stirling_row(l, t_max)] == _checks_bits(
        stirling_binomial_bound(l, t) for t in range(1, t_max + 1))
    assert [_bits(*cell) for cell in prefactor_row(l, t_max)] == _checks_bits(
        prefactor_bound(l, t) for t in range(1, t_max + 1))


@settings(max_examples=25, deadline=None)
@given(l=st.integers(1, 5000), tau=st.sampled_from((0.3, 0.5, 1.0, 1.7, 4.1)))
def test_entropy_rows_match_scalar_calls(l, tau):
    t_max = int(l * exp(-1.0 / tau))  # the driver's row: every kappa up to kappa0
    assert [_bits(*cell) for cell in entropy_row(l, t_max, tau)] == _checks_bits(
        entropy_bound(l, t, tau) for t in range(t_max + 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), l=st.integers(1, 20_000),
       mu=st.sampled_from((0.01, 0.02, 0.05, 0.1, 0.5)))
def test_lemma_rows_match_scalar_calls(data, l, mu):
    # past the block cap too, up to 400 cells a row
    t_max = data.draw(st.integers(0, min(l, 400)), label="t_max")
    assert [_bits(*cell) for cell in lemma_row(l, t_max, mu)] == _checks_bits(
        lemma_cell_bound(l, t, mu) for t in range(1, t_max + 1))


def test_rows_reject_what_the_scalar_calls_reject():
    for row, message in ((stirling_row(10, 5), "l/2"), (prefactor_row(0, 3), "l >= 1"),
                         (entropy_row(100, 37, 1.0), "kappa0"), (entropy_row(10, 3, 0.0), "tau"),
                         (lemma_row(5, 6, 0.1), "t <= l"), (lemma_row(5, 2, 1.0), "mu")):
        with pytest.raises(ValueError, match=message):
            list(row)
    assert list(stirling_row(2, 0)) == list(entropy_row(1, 0, 1.0))[1:] == []


def test_stirling_binomial_rejects_large_t():
    with pytest.raises(ValueError):
        stirling_binomial_bound(10, 5)  # t = l/2 is out of scope
    with pytest.raises(ValueError):
        stirling_binomial_bound(10, 0)


def test_entropy_bound_examples():
    chk = entropy_bound(100, 20, 1.0)
    assert chk.ok
    assert chk.lhs == pytest.approx(log(comb(100, 20)))
    assert chk.rhs == pytest.approx(100 * 2 * 0.2 * log(5.0))
    zero = entropy_bound(50, 0, 1.0)
    assert zero.ok and zero.lhs == 0.0 and zero.rhs == 0.0


def test_entropy_bound_holds_up_to_kappa0():
    tau = 1.0
    kappa0 = exp(-1.0)
    for l in range(10, 1001, 90):
        t_max = int(np.floor(l * kappa0))
        for t in range(0, t_max + 1, max(1, t_max // 7)):
            assert entropy_bound(l, t, tau).ok


def test_entropy_bound_rejects_beyond_kappa0():
    with pytest.raises(ValueError) as err:
        entropy_bound(100, 37, 1.0)  # kappa = 0.37 > e^-1
    assert "kappa0" in str(err.value)
    assert entropy_bound(100, 36, 1.0).ok


def test_entropy_gate_is_sharp():
    # just beyond kappa0 the inequality genuinely fails, so the gate is
    # doing real work; probed with enforcement off
    probe = entropy_bound(400, 80, 0.5, enforce=False)
    assert not probe.ok
    assert probe.lhs == pytest.approx(197.161, abs=1e-2)
    assert probe.rhs == pytest.approx(193.133, abs=1e-2)


def test_prefactor_bound_exact_rationals():
    for l in (1, 2, 10, 400):
        for t in (1, 3, 7):
            chk = prefactor_bound(l, t)
            assert chk.ok
            assert Fraction((4 * l + 1) ** 2, 16 * l ** 2) <= t * Fraction(314159, 100000)
    with pytest.raises(ValueError):
        prefactor_bound(0, 1)


# ----------------------------------------------------------- parameter caps

def test_lt_constraints_examples():
    outside, blocks = lt_constraints(101, 100, 1, 0.1, np.sqrt(10.0))
    assert outside.ok and blocks.ok
    assert outside.rhs == pytest.approx(0.1 / (8 * log(np.sqrt(10.0))))
    outside, blocks = lt_constraints(110, 100, 1, 0.1, np.sqrt(10.0))
    assert not outside.ok  # ten fast letters on a hundred slow ones: too many
    outside, blocks = lt_constraints(101, 100, 5, 0.1, np.sqrt(10.0))
    assert not blocks.ok
    with pytest.raises(ValueError):
        lt_constraints(100, 100, 1, 0.1, 3.0)
    with pytest.raises(ValueError):
        lt_constraints(101, 100, 1, 1.5, 3.0)


# -------------------------------------------------------- depth envelope

def test_delta_bound_values():
    assert delta_bound(10, 0.1) == pytest.approx(0.8455722064746065, rel=1e-12)
    assert delta_bound(4, 0.02) == pytest.approx(0.0200448, abs=1e-6)
    assert delta_bound(1, 0.1) == pytest.approx(
        0.1 / (4 * log(10.0)) * exp(-0.025), rel=1e-12)


def test_delta_bound_peaks_then_decays():
    mu = 0.1
    peak = delta_peak(mu)
    assert peak == 80.0
    n_grid = np.arange(1, 400)
    vals = np.array([delta_bound(int(n), mu) for n in n_grid])
    n_star = int(n_grid[np.argmax(vals)])
    assert abs(n_star - peak) <= 1
    tail = vals[int(peak):]
    assert np.all(np.diff(tail) < 0)


def test_delta_bound_eventually_negligible():
    # the envelope drops below 1e-6 around depth ~920 at mu = 0.1
    mu = 0.1
    n = int(delta_peak(mu))
    while delta_bound(n, mu) >= 1e-6:
        n += 1
        assert n < 2000
    assert 800 < n < 1100
    assert delta_bound(n - 1, mu) >= 1e-6 > delta_bound(n, mu)


def test_delta_bound_vanishes_with_mu():
    assert delta_bound(10, 1e-8) < 1e-6
    assert delta_bound(10, 1e-4) < delta_bound(10, 1e-2)
    assert delta_bound(10, 1e-8) == pytest.approx(
        1e-8 * 100 / (4 * log(1e8)), rel=1e-6)


def test_delta_bound_validation():
    with pytest.raises(ValueError):
        delta_bound(10, 0.0)
    with pytest.raises(ValueError):
        delta_bound(10, 1.0)
    with pytest.raises(ValueError):
        delta_bound(0, 0.1)


def test_depth_threshold_matches_planar_hole():
    mu_f = np.pi * 0.1 / 60.0  # hole volume of the planar model at mu=0.1
    n0 = depth_threshold(mu_f, 0.1)
    assert n0 == 532
    assert delta_bound(n0, 0.1) < mu_f <= delta_bound(n0 - 1, 0.1)
    assert depth_threshold(1e-300, 0.1, n_max=1000) is None
    with pytest.raises(ValueError):
        depth_threshold(0.0, 0.1)


def _depth_threshold_numpy_form(mu_f, mu, n_max=200_000):
    """depth_threshold as it was written with numpy's ceil."""
    for n in range(max(1, int(np.ceil(delta_peak(mu)))), n_max + 1):
        if delta_bound(n, mu) < mu_f:
            return n
    return None


def test_depth_threshold_matches_numpy_ceil_form():
    # 8/mu is an integer at mu = 0.5, 0.25, 0.125 and a near miss at 0.1
    mus = (0.005, 0.01, 0.02, 0.05, 0.1, 0.125, 0.25, 0.3, 0.5, 0.9)
    for mu_f, mu in product((0.5, 1e-2, 1e-4, 1e-8, 1e-14), mus):
        assert depth_threshold(mu_f, mu) == _depth_threshold_numpy_form(mu_f, mu), (mu_f, mu)
    assert depth_threshold(1e-300, 0.1, n_max=1000) is _depth_threshold_numpy_form(
        1e-300, 0.1, n_max=1000) is None


def test_bound_check_is_slotted_and_compares_by_value():
    chk = count_patterns(10, 4, 2, 9)
    assert "__slots__" in vars(bounds.BoundCheck) and not hasattr(chk, "__dict__")
    assert chk == count_patterns(10, 4, 2, 9) and chk != count_patterns(10, 4, 3, 9)


# ------------------------------------------------------- claimed cell bound

def test_lemma_cell_bound_holds_at_small_parameters():
    assert lemma_cell_bound(100, 1, 0.1).ok   # t=1: C(l,0) = 1
    assert lemma_cell_bound(200, 2, 0.1).ok   # C(200,1) = 200 under 8.125
    assert lemma_cell_bound(1600, 2, 0.02).ok
    assert lemma_cell_bound(3000, 2, 0.01).ok


def test_lemma_cell_bound_genuinely_fails_at_moderate_mu():
    # these (l, t) pairs satisfy the block-fraction cap, yet the claimed
    # inequality log C(l, t-1) <= (13/32) mu l is false: a real gap, kept
    # visible rather than patched over
    bad1 = lemma_cell_bound(369, 4, 0.1)
    assert not bad1.ok
    assert lt_constraints(370, 369, 4, 0.1, np.sqrt(10.0))[1].ok
    bad2 = lemma_cell_bound(1199, 5, 0.05)
    assert not bad2.ok
    assert lt_constraints(1200, 1199, 5, 0.05, np.sqrt(10.0))[1].ok
