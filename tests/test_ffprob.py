import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evalmat import kernel
from evalmat.ffprob import (
    CSV_HEADER,
    DRAW_BATCH,
    _det_is_zero,
    _Lanes,
    _lanes,
    _rejection_threshold,
    _repeat_free,
    _trial_draws,
    _unlanes,
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

from oracles import leibniz_det


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


P31 = 2**31 - 1
P61 = 2305843009213693967  # the least prime above 2^61: rejects about half of all draws
P62 = 4611686018427387847  # the largest prime below 2^62

# zero counts recorded before the trial loop inlined its draws
PINNED_ZERO_COUNTS = [
    # (q, n, coeffs, trials, collision path, zero_count at seeds 0, 1, 99)
    (2, 1, (1,), 100, True, (0, 0, 0)),
    (2, 2, (1, 1), 200, True, (158, 142, 139)),
    (2, 2, (1, 1, 1, 1), 200, False, (158, 142, 139)),
    (2, 3, (1, 1, 1), 100, False, (100, 100, 100)),
    (3, 3, (1, 2, 1), 200, True, (185, 191, 190)),
    (3, 4, (1, 1, 1, 1), 100, False, (100, 100, 100)),
    (3, 2, (2, 1, 2, 1), 200, False, (115, 113, 105)),
    (7, 3, (1, 2, 3, 4, 5), 200, False, (138, 145, 144)),
    (7, 3, (1, 1, 1), 300, True, (195, 194, 190)),
    (7, 7, (1, 1, 1, 1, 1, 1, 1), 100, True, (100, 100, 100)),
    (7, 8, (1, 1, 1, 1, 1, 1, 1, 1), 50, False, (50, 50, 50)),
    (7, 2, (3, 6, 5, 4), 300, False, (111, 102, 104)),
    (101, 3, (1, 1, 1), 400, True, (23, 19, 31)),
    (101, 3, (1, 1, 1, 1, 1), 300, False, (22, 17, 21)),
    (101, 4, (5, 9, 2, 7), 300, True, (34, 28, 43)),
    (P31, 6, (1, 1, 1, 1, 1, 1), 100, True, (0, 0, 0)),
    (P31, 4, (1, 1, 1, 1, 1, 1, 1), 60, False, (0, 0, 0)),
    (P61, 3, (1, 1, 1), 100, True, (0, 0, 0)),
    (P61, 2, (3, 1, 4, 1), 60, False, (0, 0, 0)),
]


@pytest.mark.parametrize("q,n,coeffs,trials,collision,counts", PINNED_ZERO_COUNTS)
def test_seeded_zero_counts_pinned(q, n, coeffs, trials, collision, counts):
    for seed, count in zip((0, 1, 99), counts):
        cfg = ExperimentConfig(modulus=q, n=n, coeffs=coeffs, trials=trials, seed=seed)
        res = estimate_zero_probability(cfg)
        assert (res.zero_count, res.exact_borderline is not None) == (count, collision), seed


def test_seeded_results_pinned():
    cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=400, seed=0)
    assert result_to_json(estimate_zero_probability(cfg)) == {
        "p": 101, "n": 3, "k": 2, "trials": 400, "seed": 0, "zero_count": 23,
        "empirical": "23/400", "sz_bound": "6/101", "exact_borderline": "6050401/104060401",
        "confidence_halfwidth": "2516202665175739/72057594037927936",
    }
    cfg = ExperimentConfig(modulus=7, n=3, coeffs=(1, 2, 3, 4, 5), trials=200, seed=1)
    assert result_to_json(estimate_zero_probability(cfg)) == {
        "p": 7, "n": 3, "k": 4, "trials": 200, "seed": 1, "zero_count": 145,
        "empirical": "29/40", "sz_bound": "12/7", "exact_borderline": None,
        "confidence_halfwidth": "3412647007004503/36028797018963968",
    }
    # where no trial is zero the counts cannot show a changed draw; trial 0
    # of seed 99 rejects its 3rd and 4th 62-bit draws at P61
    g = trial_stream(99, 0)
    assert [g.next_below(P61) for _ in range(4)] == [
        1044114288384258268, 480061649305629985, 418353753845315641, 1081859263935256628,
    ]


@pytest.mark.parametrize("p", [2, 3, 7, 101, P31, P61])
def test_trial_draws_equal_public_stream(p):
    for seed in (0, 1, 99, 2**64 + 5, -3):
        for n in (1, 2, 3, 6):
            expected = []
            for t in range(40):
                g = trial_stream(seed, t)
                expected.append([g.next_below(p) for _ in range(2 * n)])
            assert list(_trial_draws(seed, n, p, 40)) == expected, (seed, n)


@pytest.mark.parametrize("p", [2, 101, P31, P61])
def test_trial_draws_equal_public_stream_at_batch_edges(p):
    """Trial counts one short of, at and past one and two batches; at P61
    about half of all draws are rejected, so trials inside a batch draw
    past their 2n-th state."""
    for trials in (DRAW_BATCH - 1, DRAW_BATCH, DRAW_BATCH + 1, 2 * DRAW_BATCH + 1):
        for n in (1, 3):
            expected = []
            for t in range(trials):
                g = trial_stream(11, t)
                expected.append([g.next_below(p) for _ in range(2 * n)])
            assert list(_trial_draws(11, n, p, trials)) == expected, (trials, n)


def test_repeated_point_cross_check_raises_on_elimination_path(monkeypatch):
    import evalmat.ffprob as ffprob_mod

    # an elimination that never reports zero contradicts the first trial
    # with a repeated point; q = 7, n = 3, k = 4 is on the elimination path
    monkeypatch.setattr(ffprob_mod, "_det_is_zero", lambda cfg, a, b: False)
    cfg = ExperimentConfig(modulus=7, n=3, coeffs=(1, 2, 3, 4, 5), trials=100, seed=1)
    with pytest.raises(RuntimeError, match="collision shortcut disagrees with oracle on trial"):
        estimate_zero_probability(cfg)


def _leibniz_is_zero(coeffs, a, b, p):
    rows = [[sum(c * (x + y) ** i for i, c in enumerate(coeffs)) for y in b] for x in a]
    return leibniz_det(rows) % p == 0


def _elimination_is_zero(coeffs, a, b, p):
    """The zero of det [f(a_r + b_s)] mod p by its rank under elimination
    mod p, on entries from f's values mod p: no kernel.sum_form, no
    kernel.det."""
    def f(t):
        return sum(c * pow(t, i, p) for i, c in enumerate(coeffs)) % p

    return kernel.echelon([[f(x + y) for y in b] for x in a], p)[0] < len(a)


@st.composite
def zero_test_trials(draw):
    """(p, coeffs nonzero mod p, a, b), the points partly from a small pool."""
    p = draw(st.sampled_from([2, 3, 7, 101, P31, P61]))
    k = draw(st.integers(0, 8))
    n = draw(st.integers(1, k + 1))
    coeffs = tuple(draw(st.lists(st.integers(1, p - 1), min_size=k + 1, max_size=k + 1)))
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    point = st.sampled_from(pool) | st.integers(0, p - 1)
    a = draw(st.lists(point, min_size=n, max_size=n))
    return p, coeffs, a, draw(st.lists(point, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(zero_test_trials(), st.sampled_from(["integer", "past n", "past bits"]))
# p = 3 divides C(3, 1) in the first example (det over Z is -260); det over
# Z is -35 at the second, and the reversed polynomial 3 + 2t + t^2 has a
# zero determinant at the third
@example((3, (1, 1, 1, 1), [0, 1, 2], [1, 2, 0]), "integer")
@example((7, (1, 2, 3), [1, 4], [6, 0]), "integer")
@example((7, (1, 2, 3), [2, 0], [0, 6]), "integer")
def test_det_is_zero_routes_agree_with_elimination_mod_p(trial, side):
    """Both sides of each of the kernel's rules under _det_is_zero, reached
    by patching kernel.BAREISS_MAX_N to the trial's n or one below and
    kernel.HORNER_MAX_BITS to its k * bit_length(p) or one below, decide the
    zero of elimination mod p (and, for n <= 5, of a Leibniz expansion over
    Z), and the kernel ran as the rules say: kernel.det always with p, by
    cofactor expansion at n <= 4, and from 5 rows on echelon over Z up to
    BAREISS_MAX_N rows, whatever the entries' Horner mode, and mod p above."""
    import evalmat.ffprob as ffprob_mod

    p, coeffs, a, b = trial
    n, k = len(a), len(coeffs) - 1
    expected = _elimination_is_zero(coeffs, a, b, p)
    if n <= 5:
        assert _leibniz_is_zero(coeffs, a, b, p) == expected
    cfg = ExperimentConfig(modulus=p, n=n, coeffs=coeffs, trials=1, seed=0)
    max_n = n - (side == "past n")
    max_bits = k * p.bit_length() - (side == "past bits")
    # the modulus kernel.det ran with, then "cofactor" if it expanded, or the
    # modulus echelon ran with
    routes = []
    real_det, real_cofactor, real_echelon = kernel.det, kernel._cofactor_det, kernel.echelon

    def spy(rows, mod=None):
        routes.append(mod)
        return real_det(rows, mod)

    def cofactor_spy(rows):
        routes.append("cofactor")
        return real_cofactor(rows)

    def echelon_spy(rows, mod=None):
        routes.append(("echelon", mod))
        return real_echelon(rows, mod)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "BAREISS_MAX_N", max_n)
        mp.setattr(kernel, "HORNER_MAX_BITS", max_bits)
        mp.setattr(kernel, "det", spy)
        mp.setattr(kernel, "_cofactor_det", cofactor_spy)
        mp.setattr(kernel, "echelon", echelon_spy)
        assert ffprob_mod._det_is_zero(cfg, a, b) == expected, trial
    if n <= 4:
        assert routes == [p, "cofactor"]
    else:
        assert routes == [p, ("echelon", p if side == "past n" else None)]


@pytest.mark.parametrize(
    "p,n,coeffs,distinct",
    [(5, 3, (1, 2, 3, 4), False), (3, 4, (1, 2, 1, 2, 1), False), (5, 4, (4, 1, 3, 2, 1), True)],
)
def test_cofactor_route_exhaustive(p, n, coeffs, distinct):
    """Every point pair of F_5 at n = 3 (15,625) and of F_3 at n = 4
    (6,561, all with a repeated point, so all zero) decides the zero as
    elimination mod p does; so does every pair without a repeated point of
    F_5 at n = 4 (14,400). _det_is_zero runs kernel.det's cofactor
    expansion at these n; the reference is the rank under elimination mod p
    of entries read from a table of f mod p."""
    cfg = ExperimentConfig(modulus=p, n=n, coeffs=coeffs, trials=1, seed=0)
    f = [sum(c * t**i for i, c in enumerate(coeffs)) % p for t in range(2 * p - 1)]
    if distinct:
        points = [list(a) for a in itertools.permutations(range(p), n)]
    else:
        points = [list(a) for a in itertools.product(range(p), repeat=n)]
    zeros = 0
    for a in points:
        for b in points:
            expected = kernel.echelon([[f[x + y] for y in b] for x in a], p)[0] < n
            assert _det_is_zero(cfg, a, b) == expected, (a, b)
            zeros += expected
    assert (zeros == len(points) ** 2) == (n > p)


LANE_PRIMES = [2, 3, 7, 101, P31, P61, P62]


@st.composite
def lane_outputs(draw):
    """(p, 62-bit outputs), partly at the edges of reduction and rejection."""
    p = draw(st.sampled_from(LANE_PRIMES))
    threshold = _rejection_threshold(p)
    edges = [u for u in (0, p - 1, p, threshold - 1, threshold, 2**62 - 1) if u < 2**62]
    output = st.sampled_from(edges) | st.integers(0, 2**62 - 1)
    return p, draw(st.lists(output, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(lane_outputs())
@example((2, [2**62 - 1, 0, 1]))
@example((P62, [P62 - 1, P62, 2**62 - 1]))
def test_lane_residues_and_rejection_match_scalar_code(case):
    """_Lanes.residues gives u % p in every lane and nothing above it, and
    _Lanes.rejected says whether any output is at or above the threshold."""
    p, outputs = case
    lanes, u = _Lanes(p, len(outputs)), _lanes(outputs)
    assert lanes.residues(u) == _lanes([x % p for x in outputs])
    assert lanes.rejected(u) == any(x >= _rejection_threshold(p) for x in outputs)


@st.composite
def repeat_batches(draw):
    """(n, trials), each trial (a, b) with a repeat planted in a only, in b
    only, in both or in neither; points drawn at random may repeat too."""
    p = draw(st.sampled_from(LANE_PRIMES))
    n = draw(st.integers(1, 8))
    point = st.sampled_from([0, p - 1]) | st.integers(0, p - 1)
    trials = []
    for _ in range(draw(st.integers(1, 12))):
        planted = draw(st.sampled_from(["a", "b", "both", "neither"]))
        sides = []
        for side in "ab":
            points = draw(st.lists(point, min_size=n, max_size=n))
            if n > 1 and planted in (side, "both"):
                i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
                points[j] = points[i]
            sides.append(points)
        trials.append(tuple(sides))
    return n, trials


@settings(max_examples=300, deadline=None)
@given(repeat_batches())
def test_lane_repeat_flags_match_sets(case):
    """_repeat_free sets bit 64 of exactly the lanes of trials whose a and b
    both have n distinct points, on residues laid out as _draw_batches lays
    them out: point j of trial i in lane j * (number of trials) + i."""
    n, trials = case
    residues = _lanes(itertools.chain.from_iterable(zip(*(a + b for a, b in trials))))
    expected = [len(set(a)) == n and len(set(b)) == n for a, b in trials]
    assert _repeat_free(residues, n, len(trials)) == _lanes([free << 64 for free in expected])


def _spy_det_is_zero(monkeypatch):
    import evalmat.ffprob as ffprob_mod

    calls, real = [], ffprob_mod._det_is_zero

    def spy(cfg, a, b):
        calls.append((a, b))
        return real(cfg, a, b)

    monkeypatch.setattr(ffprob_mod, "_det_is_zero", spy)
    return calls


@pytest.mark.parametrize("trials", [5, 5000])
def test_collision_path_cross_checks_exactly_the_first_100_trials(monkeypatch, trials):
    """On the collision path _det_is_zero runs on trials 0..min(trials, 100)-1
    alone, in order, and the zero count is the number of trials with a
    repeated point, counted by sets on the public streams' draws."""
    calls = _spy_det_is_zero(monkeypatch)
    cfg = ExperimentConfig(modulus=101, n=3, coeffs=(1, 1, 1), trials=trials, seed=4)
    res = estimate_zero_probability(cfg)
    draws = list(_trial_draws(4, 3, 101, trials))
    assert calls == [(d[:3], d[3:]) for d in draws[:100]]
    assert res.zero_count == sum(len(set(d[:3])) < 3 or len(set(d[3:])) < 3 for d in draws)


def test_elimination_path_determinants_are_the_repeat_free_and_first_100(monkeypatch):
    """Off the collision path _det_is_zero runs once on every trial without
    a repeated point, and once on each trial with one among the first 100."""
    calls = _spy_det_is_zero(monkeypatch)
    cfg = ExperimentConfig(modulus=7, n=3, coeffs=(1, 2, 3, 4, 5), trials=1000, seed=2)
    estimate_zero_probability(cfg)
    draws = [(d[:3], d[3:]) for d in _trial_draws(2, 3, 7, 1000)]
    repeated = [len(set(a)) < 3 or len(set(b)) < 3 for a, b in draws]
    assert 100 < sum(repeated[100:]) < 900
    assert calls == [d for t, d in enumerate(draws) if t < 100 or not repeated[t]]


def test_output_past_the_digit_limit_round_trips():
    """JSON and CSV print every Fraction by format_scalar, so an exact
    borderline probability of over 4,300 digits (2n log10 q at n = 500)
    prints and parses back under CPython's int/str digit limit."""
    from evalmat.ffprob import ExperimentResult
    from evalmat.scalar import RATIONAL, parse_scalar

    n, q = 500, 2**31 - 1
    values = {
        "empirical": Fraction(3, 1000),
        "sz_bound": sz_bound(n, n - 1, q),
        "exact_borderline": exact_borderline_probability(n, q),
        "confidence_halfwidth": Fraction(1, 7),
    }
    res = ExperimentResult(modulus=q, n=n, k=n - 1, trials=1000, seed=0, zero_count=3, **values)
    out = result_to_json(res)
    assert {name: parse_scalar(out[name], RATIONAL) for name in values} == values
    cells = result_csv_line(res).split(",")
    assert [parse_scalar(cell, RATIONAL) for cell in cells[6:]] == list(values.values())[:3]
