import math
from fractions import Fraction

import pytest

from evalmat.ffprob import (
    CSV_HEADER,
    ExperimentConfig,
    SplitMix64,
    estimate_zero_probability,
    exact_borderline_probability,
    mix64,
    result_csv_line,
    result_to_json,
    sz_bound,
    trial_stream,
)


def test_sz_bound_examples():
    assert sz_bound(3, 2, 101) == Fraction(6, 101)
    assert sz_bound(5, 0, 13) == 0
    assert sz_bound(2, 3, 7) == Fraction(6, 7)
    assert sz_bound(4, 4, 7) == Fraction(16, 7)  # unclamped above 1
    with pytest.raises(ValueError):
        sz_bound(2, 2, 0)


def test_exact_borderline_examples():
    exact = exact_borderline_probability(3, 101)
    assert exact == 1 - Fraction(9900, 10201) ** 2 == Fraction(6050401, 104060401)
    assert abs(float(exact) - 0.05814) < 5e-5
    assert exact_borderline_probability(1, 101) == 0
    assert exact_borderline_probability(4, 3) == 1


def test_exact_borderline_below_sz_bound():
    # primes in [11, 101], n in [2, 5], k = n-1
    primes = [p for p in range(11, 102) if all(p % d for d in range(2, p))]
    for q in primes:
        for n in range(2, 6):
            bound = sz_bound(n, n - 1, q)
            exact = exact_borderline_probability(n, q)
            assert exact <= 1
            if bound <= 1:
                assert exact <= bound


def test_splitmix_determinism_and_streams():
    g1, g2 = SplitMix64(42), SplitMix64(42)
    seq1 = [g1.next_uint64() for _ in range(5)]
    seq2 = [g2.next_uint64() for _ in range(5)]
    assert seq1 == seq2
    assert len(set(seq1)) == 5
    assert all(0 <= v < 1 << 64 for v in seq1)
    # distinct trials give distinct streams; same trial reproduces
    a = [trial_stream(7, 0).next_uint64() for _ in range(1)]
    b = [trial_stream(7, 1).next_uint64() for _ in range(1)]
    assert a != b
    assert trial_stream(7, 1).next_uint64() == b[0]
    assert mix64(0) == mix64(0)


def test_next_below_range_and_uniformity():
    g = SplitMix64(9)
    draws = [g.next_below(101) for _ in range(20000)]
    assert all(0 <= d < 101 for d in draws)
    # coarse two-sided frequency check, ~198 expected per residue
    counts = [0] * 101
    for d in draws:
        counts[d] += 1
    assert min(counts) > 100 and max(counts) < 320


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(modulus=4, n=1, coeffs=(1,), trials=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(modulus=7, n=1, coeffs=(1,), trials=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(modulus=7, n=3, coeffs=(1, 1), trials=10, seed=0)  # n > k+1
    with pytest.raises(ValueError):
        ExperimentConfig(modulus=7, n=1, coeffs=(1, 7), trials=10, seed=0)  # 7 = 0 mod 7
    cfg = ExperimentConfig(modulus=7, n=2, coeffs=(1, 8), trials=10, seed=0)
    assert cfg.coeffs == (1, 1) and cfg.k == 1


def test_estimate_is_deterministic():
    cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=500, seed=5)
    r1 = estimate_zero_probability(cfg)
    r2 = estimate_zero_probability(cfg)
    assert r1 == r2


def test_trivial_constant_case():
    cfg = ExperimentConfig(modulus=2, n=1, coeffs=(1,), trials=200, seed=3)
    res = estimate_zero_probability(cfg)
    assert res.zero_count == 0
    assert res.sz_bound == 0
    assert res.exact_borderline == 0


def test_oracle_path_below_borderline():
    # n <= k: zero test runs through elimination
    cfg = ExperimentConfig(modulus=11, n=1, coeffs=(1, 1, 1), trials=300, seed=17)
    res = estimate_zero_probability(cfg)
    assert res.exact_borderline is None
    sigma = math.sqrt(float(res.sz_bound) / cfg.trials) if res.sz_bound else 0
    assert float(res.empirical) <= float(res.sz_bound) + 3 * sigma


def test_degenerate_coefficient_scale_falls_back_to_oracle():
    # p = 3 divides prod C(3,i) = 9, so the collision shortcut is invalid;
    # the closed form says the determinant is then identically zero
    cfg = ExperimentConfig(modulus=3, n=4, coeffs=(1, 1, 1, 1), trials=200, seed=9)
    res = estimate_zero_probability(cfg)
    assert res.exact_borderline is None
    assert res.zero_count == res.trials


def test_monte_carlo_matches_exact_across_seeds():
    trials = 2000
    exact = exact_borderline_probability(3, 101)
    sigma3 = 3 * math.sqrt(float(exact) * (1 - float(exact)) / trials)
    hits = 0
    for seed in range(20):
        cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=trials, seed=seed)
        res = estimate_zero_probability(cfg)
        if abs(float(res.empirical) - float(exact)) <= sigma3:
            hits += 1
    assert hits >= 19


def test_empirical_below_bound_configs():
    for modulus, n, k in ((101, 3, 2), (101, 2, 4), (31, 3, 3)):
        cfg = ExperimentConfig(modulus=modulus, n=n, coeffs=(1,) * (k + 1), trials=1500, seed=23)
        res = estimate_zero_probability(cfg)
        sigma = math.sqrt(max(float(res.empirical) * (1 - float(res.empirical)), 1e-9) / cfg.trials)
        assert float(res.empirical) <= float(res.sz_bound) + 3 * sigma


def test_result_serialization():
    cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=100, seed=1)
    res = estimate_zero_probability(cfg)
    obj = result_to_json(res)
    assert obj["p"] == 101 and obj["n"] == 3 and obj["k"] == 2
    assert obj["sz_bound"] == "6/101"
    assert obj["exact_borderline"] == "6050401/104060401"
    line = result_csv_line(res)
    fields = line.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "101" and fields[4] == "1"
    assert fields[7] == "6/101"


def test_config_rejects_empty_coefficients():
    with pytest.raises(ValueError, match="empty coefficient vector"):
        ExperimentConfig(modulus=7, n=1, coeffs=(), trials=10, seed=0)


def test_collision_shortcut_cross_check_raises_on_disagreement(monkeypatch):
    import evalmat.ffprob as ffprob_mod

    # an elimination that always reports zero contradicts the first trial
    # whose points have no repeat
    monkeypatch.setattr(ffprob_mod, "_det_is_zero", lambda cfg, a, b: True)
    cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=5, seed=1)
    with pytest.raises(RuntimeError, match="collision shortcut disagrees with oracle"):
        estimate_zero_probability(cfg)
