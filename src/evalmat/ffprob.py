"""Finite-field vanishing experiment.

Estimates Pr(det A = 0) for p(x,y) = sum_i alpha_i (x+y)^i with points drawn
uniformly from F_q^(2n), and compares against the Schwartz-Zippel bound nk/q
and (at n = k+1) the exact collision probability.

Randomness is a SplitMix64 counter generator so runs reproduce exactly from
(seed, trial index) on any platform:

    state_{j+1} = state_j + 0x9E3779B97F4A7C15  (mod 2^64)
    output_j    = mix64(state_{j+1})

with mix64(z): z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
z *= 0x94D049BB133111EB; z ^= z>>31 (all mod 2^64). Field elements come from
62-bit draws rejected above the largest multiple of p, then reduced mod p.
Trial t uses its own stream seeded at mix64(seed) XOR mix64(t * gamma);
within a trial the draw order is a_1..a_n then b_1..b_n. SplitMix64 and
trial_stream state this specification. The trial loop draws from the same
streams DRAW_BATCH trials at a time (_trial_draws): each trial's stream
start and its first 2n states sit in the 128-bit lanes of one Python int,
so each step of mix64 is one big-int operation for the whole batch. A trial
whose first 2n outputs include a rejected one keeps its accepted outputs
and draws the rest from a SplitMix64 at its 2n-th state.

A trial with a repeated a_r or b_s has two equal rows or columns, so its
determinant is zero on either path. Any other trial off the n = k+1
collision path stays on raw ints, with no scalar objects (_det_is_zero):
``kernel.sum_form`` builds [f(a_r + b_s)] mod p, by Horner over Z reduced
once per entry while k * bit_length(p) <= kernel.HORNER_MAX_BITS.
``kernel.det`` takes their determinant mod p by the route its row count
picks: over Z and reduced once up to kernel.BAREISS_MAX_N rows (exact since
det(A mod p) = det(A) mod p), and by elimination mod p above.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .scalar import PrimeField, binomial

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64's output mix of the low 64 bits of z: _mix64_lanes on one lane."""
    return _mix64_lanes(z, _MASK64)


def _rejection_threshold(bound: int) -> int:
    """The largest multiple of bound in [0, 2^62]: 62-bit draws from it up are rejected."""
    return (1 << 62) - ((1 << 62) % bound)


class SplitMix64:
    """Minimal SplitMix64 stream; next_below does 62-bit rejection sampling."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        # the step and mix64 written out, so the draw loop makes no Python call
        threshold = _rejection_threshold(bound)
        z = self.state
        while True:
            z = (z + _GAMMA) & _MASK64
            u = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            u = ((u ^ (u >> 27)) * _MIX2) & _MASK64
            u = (u ^ (u >> 31)) >> 2
            if u < threshold:
                self.state = z
                return u % bound


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """Independent deterministic stream for one trial."""
    return SplitMix64(mix64(seed) ^ mix64((trial * _GAMMA) & _MASK64))


# trials per batch of _trial_draws; see the batch table in CHANGES.md
DRAW_BATCH = 128


def _lanes(values, count: int = 1) -> int:
    """One int whose 128-bit lanes hold the 64-bit values in order, each in
    count consecutive lanes, the first in the lowest lane."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") * count for v in values), "little")


def _unlanes(z: int, count: int) -> list[int]:
    """The low 64 bits of each of z's first count lanes; the inverse of _lanes."""
    return array("Q", z.to_bytes(16 * count, "little"))[::2].tolist()


def _mix64_lanes(z: int, mask: int) -> int:
    """mix64 of each 128-bit lane of z, where mask holds 2^64 - 1 in every
    lane: the bits a shift brings in from the next lane are masked off
    before each product, and a 64-bit value times a 64-bit constant stays in
    its own lane. mix64 is its one-lane case."""
    z &= mask
    z = (z ^ (z >> 30) & mask) * _MIX1 & mask
    z = (z ^ (z >> 27) & mask) * _MIX2 & mask
    return z ^ (z >> 31) & mask


def _trial_draws(seed: int, n: int, p: int, trials: int):
    """Yield each trial's 2n residues a_1..a_n, b_1..b_n: for trial t exactly
    [trial_stream(seed, t).next_below(p) for _ in range(2n)].

    Up to DRAW_BATCH trials at a time, the stream starts
    mix64(seed) ^ mix64(t * gamma) and then each trial's first 2n states
    start + (j+1) * gamma are mixed in 128-bit lanes of one int, state j of
    trial i in lane j * batch + i. A trial whose 2n outputs are all below the
    rejection threshold takes them mod p; any other keeps its accepted
    outputs in order and draws the rest from SplitMix64(start + 2n * gamma)."""
    seed_mix = mix64(seed)
    threshold = _rejection_threshold(p)
    w, size = 2 * n, 0
    for t0 in range(0, trials, DRAW_BATCH):
        b = min(DRAW_BATCH, trials - t0)
        if b != size:  # the first batch and a short last one
            size = b
            lane_mask = _lanes([_MASK64], b * w)
            seeds = _lanes([seed_mix], b)
            offsets = _lanes(range(b))
            steps = _lanes([(j + 1) * _GAMMA & _MASK64 for j in range(w)], b)
        indexes = _lanes([t0], b) + offsets
        starts = _mix64_lanes(indexes * _GAMMA, lane_mask) ^ seeds
        # block j of b lanes holds the starts plus (j+1) * gamma
        states = int.from_bytes(starts.to_bytes(16 * b, "little") * w, "little") + steps
        # the shift moves the next lane's bits only above each lane's low 64
        outputs = _unlanes(_mix64_lanes(states, lane_mask) >> 2, b * w)
        if max(outputs) < threshold:
            residues = [u % p for u in outputs]
            for i in range(b):
                yield residues[i::b]
            continue
        for i, start in enumerate(_unlanes(starts, b)):
            draws = [u % p for u in outputs[i::b] if u < threshold]
            rest = SplitMix64(start + w * _GAMMA)
            yield draws + [rest.next_below(p) for _ in range(w - len(draws))]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: p(x,y) = sum alpha_i (x+y)^i over F_modulus."""

    modulus: int
    n: int
    coeffs: tuple[int, ...]  # alpha_0..alpha_k as residues, all nonzero
    trials: int
    seed: int

    def __post_init__(self):
        field = PrimeField(self.modulus)  # raises on composite modulus
        k = len(self.coeffs) - 1
        if k < 0:
            raise ValueError("invalid config: empty coefficient vector")
        if not 1 <= self.n <= k + 1:
            raise ValueError(f"invalid config: need 1 <= n <= k+1, got n={self.n}, k={k}")
        if self.trials < 1:
            raise ValueError(f"invalid config: trials must be >= 1, got {self.trials}")
        coeffs = tuple(c % field.p for c in self.coeffs)
        if any(c == 0 for c in coeffs):
            raise ValueError("invalid config: every coefficient must be nonzero mod p")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def k(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class ExperimentResult:
    modulus: int
    n: int
    k: int
    trials: int
    seed: int
    zero_count: int
    empirical: Fraction
    sz_bound: Fraction
    exact_borderline: Fraction | None
    confidence_halfwidth: Fraction


def sz_bound(n: int, k: int, q: int) -> Fraction:
    """The Schwartz-Zippel bound nk/q (unclamped; may exceed 1)."""
    if q <= 0:
        raise ValueError("field order must be positive")
    return Fraction(n * k, q)


def exact_borderline_probability(n: int, q: int) -> Fraction:
    """Pr(det = 0) at n = k+1 with all coefficients nonzero: the determinant
    vanishes iff a or b has a repeated entry, so this is 1 - D(n,q)^2 with
    D(n,q) = prod_{i<n} (q-i)/q. For n > q the pigeonhole forces 1."""
    if n > q:
        return Fraction(1)
    d = math.prod((Fraction(q - i, q) for i in range(n)), start=Fraction(1))
    return 1 - d * d


def _det_is_zero(cfg: ExperimentConfig, a: list[int], b: list[int]) -> bool:
    """Whether det [f(a_r + b_s)] = 0 in F_p: the entries mod p from
    ``kernel.sum_form``, their determinant mod p from ``kernel.det``."""
    return kernel.det(kernel.sum_form(cfg.coeffs, a, b, cfg.modulus), cfg.modulus) == 0


_ORACLE_SUBSAMPLE = 100


def estimate_zero_probability(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the seeded Monte-Carlo experiment and count exact zero determinants.

    A repeated a_r or b_s makes two rows or columns equal, so det = 0 on
    every path. At n = k+1, det = +-alpha_k^n * prod_i C(k,i) * vdm(a) * vdm(b)
    with alpha_k != 0 mod p, so unless p divides some C(k,i), det = 0 exactly
    when a point repeats and the zero test is this O(n) collision check
    alone. Otherwise the trials without a repeat are decided by
    _det_is_zero.
    Each of the first 100 trials that the collision check decides is
    cross-checked against an elimination determinant.
    """
    p = cfg.modulus
    n, k = cfg.n, cfg.k
    use_collision = n == k + 1 and all(binomial(k, i) % p for i in range(k + 1))
    zero_count = 0
    for t, draws in enumerate(_trial_draws(cfg.seed, n, p, cfg.trials)):
        a, b = draws[:n], draws[n:]
        repeated = len(set(a)) < n or len(set(b)) < n
        if repeated or use_collision:
            if t < _ORACLE_SUBSAMPLE and repeated != _det_is_zero(cfg, a, b):
                raise RuntimeError(
                    f"collision shortcut disagrees with oracle on trial {t}: a={a} b={b}"
                )
            zero_count += repeated
        elif _det_is_zero(cfg, a, b):
            zero_count += 1

    empirical = Fraction(zero_count, cfg.trials)
    variance = empirical * (1 - empirical) / cfg.trials
    halfwidth = Fraction(3 * math.sqrt(variance)) if variance else Fraction(0)
    return ExperimentResult(
        modulus=p,
        n=n,
        k=k,
        trials=cfg.trials,
        seed=cfg.seed,
        zero_count=zero_count,
        empirical=empirical,
        sz_bound=sz_bound(n, k, p),
        exact_borderline=exact_borderline_probability(n, p) if use_collision else None,
        confidence_halfwidth=halfwidth,
    )


def result_to_json(res: ExperimentResult) -> dict:
    return {
        "p": res.modulus,
        "n": res.n,
        "k": res.k,
        "trials": res.trials,
        "seed": res.seed,
        "zero_count": res.zero_count,
        "empirical": str(res.empirical),
        "sz_bound": str(res.sz_bound),
        "exact_borderline": None if res.exact_borderline is None else str(res.exact_borderline),
        "confidence_halfwidth": str(res.confidence_halfwidth),
    }


CSV_HEADER = "p,n,k,trials,seed,zero_count,empirical,sz_bound,exact_borderline"


def result_csv_line(res: ExperimentResult) -> str:
    exact = "" if res.exact_borderline is None else str(res.exact_borderline)
    return (
        f"{res.modulus},{res.n},{res.k},{res.trials},{res.seed},"
        f"{res.zero_count},{res.empirical},{res.sz_bound},{exact}"
    )
