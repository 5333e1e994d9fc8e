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
trial_stream state this specification.

The trial loop draws from the same streams DRAW_BATCH trials at a time
(_draw_batches) and keeps each batch in the 128-bit lanes of Python ints
from the mix to the zero count, draw j of the batch's trial i in lane
j * b + i, so each step is one big-int operation for the whole batch:
mix64 of every state; one add and mask that finds whether any output is
rejected (a batch with one keeps each trial's accepted outputs, draws the
rest from a SplitMix64 at its 2n-th state and lays the residues out
again); a multiply and a shift that reduce every output mod p, exact for
all 62-bit outputs (_Lanes.residues); and pairwise XORs of the point blocks
that flag each trial with a repeated a_r or b_s (_repeat_free). Per-trial
lists are read out of the lanes only where a determinant is still needed:
the first 100 trials that the collision check decides, which are
cross-checked, and each trial without a repeat off the collision path.

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

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .scalar import PrimeField, binomial, format_scalar

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


# trials per batch of _draw_batches; see the batch table in CHANGES.md
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


class _Lanes:
    """The constants of count 128-bit lanes that hold 62-bit outputs of
    draws mod p, and the lane-wise rejection test and reduction that read
    them. Every value in a lane stays below 2^128, so no carry or borrow
    crosses into the next lane."""

    def __init__(self, p: int, count: int):
        ones = _lanes([1], count)
        self.p, self.low64, self.low62 = p, _MASK64 * ones, ((1 << 62) - 1) * ones
        self.bit64, self.reject = ones << 64, ((1 << 64) - _rejection_threshold(p)) * ones
        self.shift = 62 + p.bit_length()
        self.factor = (1 << self.shift) // p + 1
        # a quotient is below 2^(63 - bit_length(p)); the next lane's product
        # comes in at bit 128 - shift = 66 - bit_length(p)
        self.quotients = ((1 << 128 - self.shift) - 1) * ones

    def rejected(self, u: int) -> bool:
        """Whether some lane of u is at or above the rejection threshold:
        u + 2^64 - threshold < 2^65 carries into bit 64 exactly there."""
        return bool((u + self.reject) & self.bit64)

    def residues(self, u: int) -> int:
        """u mod p in every lane, all lanes below 2^62: u - p * floor(u * m / 2^s)
        with s = 62 + bit_length(p) and m = floor(2^s / p) + 1, division by an
        invariant integer (Granlund and Montgomery, PLDI 1994). It is exact:
        as 0 < m * p - 2^s <= p, u * m / 2^s exceeds u / p by at most
        u / 2^s < 2^-bit_length(p) < 1 / p, which keeps it below
        floor(u / p) + 1. And m <= 2^63 + 1, so u * m < 2^126 stays in its
        lane. kernel._reduce_slots splits its slots into even and odd lanes
        to make that room; these lanes have it already, so one pass does."""
        return u - self.p * (u * self.factor >> self.shift & self.quotients)


def _draw_batches(seed: int, n: int, p: int, trials: int):
    """Yield (b, residues) for each batch of up to DRAW_BATCH consecutive
    trials, residue j of the batch's trial i in 128-bit lane j * b + i of
    residues: for trial t exactly [trial_stream(seed, t).next_below(p) for _
    in range(2n)].

    The stream starts mix64(seed) ^ mix64(t * gamma) and then each trial's
    first 2n states start + (j+1) * gamma are mixed in the same layout. If
    _Lanes.rejected finds no output at or above the rejection threshold, the
    outputs are reduced mod p by _Lanes.residues. Otherwise each trial keeps
    its accepted outputs in order, draws the rest from
    SplitMix64(start + 2n * gamma), and the residues are laid out again."""
    seed_mix = mix64(seed)
    threshold = _rejection_threshold(p)
    w, size = 2 * n, 0
    for t0 in range(0, trials, DRAW_BATCH):
        b = min(DRAW_BATCH, trials - t0)
        if b != size:  # the first batch and a short last one
            size = b
            lanes = _Lanes(p, b * w)
            seeds = _lanes([seed_mix], b)
            offsets = _lanes(range(b))
            steps = _lanes([(j + 1) * _GAMMA & _MASK64 for j in range(w)], b)
        indexes = _lanes([t0], b) + offsets
        starts = _mix64_lanes(indexes * _GAMMA, lanes.low64) ^ seeds
        # block j of b lanes holds the starts plus (j+1) * gamma
        states = int.from_bytes(starts.to_bytes(16 * b, "little") * w, "little") + steps
        # the shift moves the next lane's bits only above each lane's low 64
        outputs = _mix64_lanes(states, lanes.low64) >> 2 & lanes.low62
        if not lanes.rejected(outputs):
            yield b, lanes.residues(outputs)
            continue
        drawn = _unlanes(outputs, b * w)
        words = [0] * (2 * b * w)  # each lane's low and high 64 bits
        for i, start in enumerate(_unlanes(starts, b)):
            kept = [u % p for u in drawn[i::b] if u < threshold]
            rest = SplitMix64(start + w * _GAMMA)
            words[2 * i :: 2 * b] = kept + [rest.next_below(p) for _ in range(w - len(kept))]
        yield b, int.from_bytes(array("Q", words).tobytes(), "little")


def _blocks(z: int, count: int, bits: int) -> list[int]:
    """The count blocks of bits bits that make up z, the lowest first, split
    in halves: each level of halving copies z once, where a shift per block
    copies it once per block."""
    if count == 1:
        return [z]
    half = count // 2
    return _blocks(z & (1 << half * bits) - 1, half, bits) + _blocks(z >> half * bits, count - half, bits)


def _repeat_free(residues: int, n: int, b: int) -> int:
    """For a batch of b trials laid out as by _draw_batches, the int whose
    lane i has bit 64 set iff trial i's a_1..a_n are distinct and so are its
    b_1..b_n, and no other bit set. Each pair of point blocks x, y of one
    side is compared in all b lanes at once: x ^ y is 0 in a lane where the
    two points are equal, and (x ^ y) + 2^64 - 1 reaches bit 64 iff it is not."""
    points = _blocks(residues, 2 * n, 128 * b)
    free, carry = _lanes([1 << 64], b), _lanes([_MASK64], b)
    for side in (points[:n], points[n:]):
        for x, y in itertools.combinations(side, 2):
            free &= (x ^ y) + carry
    return free


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
    every path; _repeat_free flags such trials a batch at a time. At n = k+1,
    det = +-alpha_k^n * prod_i C(k,i) * vdm(a) * vdm(b) with alpha_k != 0
    mod p, so unless p divides some C(k,i), det = 0 exactly when a point
    repeats and the zero test is this collision check alone: a batch past the
    first 100 trials adds its count of flagged trials and builds no
    per-trial list. Otherwise the trials without a repeat are decided by
    _det_is_zero on their points read out of the lanes.
    Each of the first 100 trials that the collision check decides is
    cross-checked against an elimination determinant.
    """
    p = cfg.modulus
    n, k = cfg.n, cfg.k
    use_collision = n == k + 1 and all(binomial(k, i) % p for i in range(k + 1))
    zero_count = t0 = 0
    for size, residues in _draw_batches(cfg.seed, n, p, cfg.trials):
        free = _repeat_free(residues, n, size)
        if use_collision and t0 >= _ORACLE_SUBSAMPLE:
            zero_count += size - free.bit_count()
        else:
            draws = _unlanes(residues, 2 * n * size)
            for i, distinct in enumerate(_unlanes(free >> 64, size)):
                t = t0 + i
                decided = use_collision or not distinct  # by the collision check
                if decided and t >= _ORACLE_SUBSAMPLE:
                    zero_count += not distinct
                    continue
                a, b = draws[i : n * size : size], draws[n * size + i :: size]
                zero = _det_is_zero(cfg, a, b)
                if decided and zero == distinct:
                    raise RuntimeError(
                        f"collision shortcut disagrees with oracle on trial {t}: a={a} b={b}"
                    )
                zero_count += zero
        t0 += size

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
    exact = res.exact_borderline
    return {
        "p": res.modulus,
        "n": res.n,
        "k": res.k,
        "trials": res.trials,
        "seed": res.seed,
        "zero_count": res.zero_count,
        "empirical": format_scalar(res.empirical),
        "sz_bound": format_scalar(res.sz_bound),
        "exact_borderline": None if exact is None else format_scalar(exact),
        "confidence_halfwidth": format_scalar(res.confidence_halfwidth),
    }


CSV_HEADER = "p,n,k,trials,seed,zero_count,empirical,sz_bound,exact_borderline"


def result_csv_line(res: ExperimentResult) -> str:
    """The CSV_HEADER fields of result_to_json, with "" for no exact_borderline."""
    row = result_to_json(res)
    return ",".join("" if row[name] is None else str(row[name]) for name in CSV_HEADER.split(","))
