import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hartree_lab.exponents import (ModelParams, ab_exponents, critical_exponent,
                                   distant_past_pairs, identity_report,
                                   is_hs_admissible, is_l2_admissible,
                                   scattering_pairs)


def test_critical_exponent_endpoints():
    for gamma in (0.5, 1.0, 2.0, 2.9):
        p_lo = (5 + gamma) / 3
        p_hi = 3 + gamma
        assert critical_exponent(ModelParams(max(2.0, p_lo), gamma)) == pytest.approx(
            1.5 - (gamma + 2) / (2 * (max(2.0, p_lo) - 1)))
        if p_lo >= 2:
            assert critical_exponent(ModelParams(p_lo, gamma)) == pytest.approx(0.0, abs=1e-14)
        assert critical_exponent(ModelParams(p_hi, gamma)) == pytest.approx(1.0)


def test_critical_exponent_hand_value():
    # p=3, gamma=2: s_c = 1/2, sigma_c = 1, A = 2, B = 4
    params = ModelParams(3.0, 2.0)
    assert critical_exponent(params) == pytest.approx(0.5)
    A, B, sigma = ab_exponents(params)
    assert (A, B, sigma) == (2.0, 4.0, 1.0)
    assert A + 2 * sigma == B * sigma


def test_ab_rejects_endpoints():
    # exact rational endpoints so that s_c is exactly 0 / exactly 1
    with pytest.raises(ValueError):
        ab_exponents(ModelParams(Fraction(7, 3), Fraction(2)))  # s_c = 0
    with pytest.raises(ValueError):
        ab_exponents(ModelParams(5.0, 2.0))                     # s_c = 1


def test_ab_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        gamma = rng.uniform(0.05, 2.95)
        p_lo = max(2.0, (5 + gamma) / 3)
        p = rng.uniform(p_lo + 1e-3, 3 + gamma - 1e-3)
        A, B, sigma = ab_exponents(ModelParams(p, gamma))
        assert abs(A + B - 2 * p) <= 1e-12 * max(1, 2 * p)
        assert abs(A + 2 * sigma - B * sigma) <= 1e-12 * max(1.0, abs(B * sigma))


def test_l2_admissible_examples():
    assert is_l2_admissible(2, 6)
    assert is_l2_admissible(float("inf"), 2)
    assert is_l2_admissible(4, 3)
    assert not is_l2_admissible(4, 4)
    assert not is_l2_admissible(1.5, 6)


def test_scattering_pairs_hand_values():
    es = scattering_pairs(ModelParams(3.0, 2.0), 0.0)
    assert es["r_bar"] == pytest.approx(24 / 7)
    assert es["a_bar"] == pytest.approx(16.0)
    assert es["p_tilde"] == pytest.approx(24 / 11)
    assert 2 / es["a_bar"] + 3 / es["r_bar"] == pytest.approx(1.0)   # = 3/2 - s_c
    assert es["theta"] == pytest.approx(3 / 16)
    assert es["theta_bar"] == pytest.approx(7 / 8)
    assert es["theta"] < es["theta_bar"]


def test_scattering_pairs_exact_fractions():
    # the eps -> 0 limit evaluated in exact rational arithmetic
    params = ModelParams(Fraction(3), Fraction(2))
    s_c = critical_exponent(params)
    assert s_c == Fraction(1, 2)
    A, B, sigma = ab_exponents(params)
    assert (A, B, sigma) == (Fraction(2), Fraction(4), Fraction(1))
    assert A + 2 * sigma == B * sigma  # exact identity, no tolerance


def test_pairs_invariants_random():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1000:
        gamma = rng.uniform(0.05, 2.95)
        p_lo = max(2.0, (5 + gamma) / 3)
        p = rng.uniform(p_lo + 1e-3, 3 + gamma - 1e-3)
        eps = rng.uniform(0.0, 5e-3)
        params = ModelParams(p, gamma)
        s_c = critical_exponent(params)
        es = scattering_pairs(params, eps)
        assert abs(2 / es["a_bar"] + 3 / es["r_bar"] - (1.5 - s_c)) <= 1e-12
        assert is_l2_admissible(es["a_bar"], es["p_tilde"])
        assert is_l2_admissible(es["q"], es["r"])
        assert is_l2_admissible(es["m"], es["s"])
        assert is_l2_admissible(es["q4_plus"], es["r3_minus"])
        # interpolation closure
        assert abs(1 / es["a_bar"] - ((1 - s_c) / es["q"] + s_c / es["m"])) <= 1e-12
        assert abs(1 / es["r_bar"] - ((1 - s_c) / es["r"] + s_c / es["n"])) <= 1e-12
        assert abs(es["n"] - 3 * es["s"] / (3 - es["s"])) <= 1e-12 * es["n"]
        assert es["theta"] < es["theta_bar"]
        count += 1


def test_distant_past_high_p_branch():
    # p >= (gamma+4)/2: theta = 2/r_bar, l = 2, k = inf
    theta, k, l, p_bar = distant_past_pairs(ModelParams(3.0, 2.0), 0.0)
    assert theta == pytest.approx(7 / 12)
    assert l == pytest.approx(2.0)
    assert math.isinf(k)
    assert p_bar > 2


def test_distant_past_low_p_branch():
    # p = 2.4, gamma = 2: theta slightly above (gamma+4-2p)/(p-1) = 6/7
    params = ModelParams(2.4, 2.0)
    theta, k, l, p_bar = distant_past_pairs(params, 1e-3)
    assert theta > (2.0 + 4 - 4.8) / 1.4
    assert 2 <= l <= 6
    assert p_bar > 2
    assert is_l2_admissible(k, l)


def test_distant_past_always_admissible():
    rng = np.random.default_rng(17)
    for _ in range(200):
        gamma = rng.uniform(0.05, 2.95)
        p_lo = max(2.0, (5 + gamma) / 3)
        p = rng.uniform(p_lo + 1e-3, 3 + gamma - 1e-3)
        theta, k, l, p_bar = distant_past_pairs(ModelParams(p, gamma), 1e-3)
        assert is_l2_admissible(k, l)
        assert p_bar > 2


def test_sc_monotone_in_p():
    gamma = 1.7
    ps = np.linspace(max(2.0, (5 + gamma) / 3) + 0.01, 3 + gamma - 0.01, 60)
    scs = [critical_exponent(ModelParams(p, gamma)) for p in ps]
    assert np.all(np.diff(scs) > 0)


def test_abar_rbar_not_hs_admissible_expected_failure():
    # the scattering pair satisfies the scaling identity but leaves the
    # admissible range for large p (r_bar >= 6): recorded as an expected
    # failure rather than inventing a relaxed admissibility class
    params = ModelParams(4.75, 2.0)
    es = scattering_pairs(params, 1e-3)
    s_c = critical_exponent(params)
    assert abs(2 / es["a_bar"] + 3 / es["r_bar"] - (1.5 - s_c)) <= 1e-12
    assert es["r_bar"] >= 6
    assert not es["abar_rbar_hs_admissible"]
    assert not is_hs_admissible(es["a_bar"], es["r_bar"], s_c)


def test_large_eps_reports_constraint():
    # near the lower window edge a large eps pushes the distant-past theta
    # past 1; the error names the violated constraint
    with pytest.raises(ValueError, match="theta"):
        scattering_pairs(ModelParams(2.34, 2.0), 0.099)


def test_identity_report_all_pass():
    rep = identity_report(ModelParams(2.7, 1.3), 1e-3)
    assert all(v["pass"] for v in rep.values())


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.5, 2.0)
    with pytest.raises(ValueError):
        ModelParams(3.0, 3.5)
    assert ModelParams(3.0, 2.0).intercritical
    assert not ModelParams(2.0, 2.5).intercritical  # p below (5+gamma)/3
    # the model is (p, gamma); eps belongs to the pairs, whose readers check it
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["p", "gamma"]
    for fn in (scattering_pairs, distant_past_pairs, identity_report):
        for eps in (0.2, 0.1, -1e-3):
            with pytest.raises(ValueError, match=r"epsilon in \[0, 1/10\) required"):
                fn(ModelParams(3.0, 2.0), eps)


def test_off_range_is_one_message():
    # every reader of the range reports it with ab_exponents' message
    params = ModelParams(2.0, 2.5)
    with pytest.raises(ValueError) as ref:
        ab_exponents(params)
    assert "not intercritical" in str(ref.value)
    for fn in (scattering_pairs, distant_past_pairs, identity_report):
        with pytest.raises(ValueError) as err:
            fn(params, 1e-3)
        assert str(err.value) == str(ref.value), fn.__name__
