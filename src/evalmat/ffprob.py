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
within a trial the draw order is a_1..a_n then b_1..b_n.

Each trial stays on raw residues: the integer kernel builds [f(a_r + b_s)]
mod p by Horner and eliminates it mod p, with no scalar objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .scalar import PrimeField, binomial

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal SplitMix64 stream; next_below does 62-bit rejection sampling."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        # accept only draws below the largest multiple of bound in [0, 2^62)
        threshold = (1 << 62) - ((1 << 62) % bound)
        while True:
            u = self.next_uint64() >> 2
            if u < threshold:
                return u % bound


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """Independent deterministic stream for one trial."""
    return SplitMix64(mix64(seed) ^ mix64((trial * _GAMMA) & _MASK64))


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
    d = Fraction(1)
    for i in range(n):
        d *= Fraction(q - i, q)
    return 1 - d * d


def _coefficient_scale(cfg: ExperimentConfig) -> int:
    """alpha_k^n * prod_i C(k,i) mod p: the borderline determinant's
    point-independent factor."""
    p = cfg.modulus
    k = cfg.k
    scale = pow(cfg.coeffs[k], cfg.n, p)
    for i in range(k + 1):
        scale = scale * (binomial(k, i) % p) % p
    return scale


def _det_is_zero(cfg: ExperimentConfig, a: list[int], b: list[int]) -> bool:
    p = cfg.modulus
    return kernel.det(kernel.sum_form(cfg.coeffs, a, b, p), p) == 0


_ORACLE_SUBSAMPLE = 100


def estimate_zero_probability(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the seeded Monte-Carlo experiment and count exact zero determinants.

    At n = k+1 with a nonzero coefficient scale the zero test is the O(n)
    collision check from the borderline closed form, cross-checked against
    an elimination determinant on the first 100 trials; otherwise every
    trial computes the determinant by elimination.
    """
    p = cfg.modulus
    n, k = cfg.n, cfg.k
    use_collision = n == k + 1 and _coefficient_scale(cfg) != 0
    zero_count = 0
    for t in range(cfg.trials):
        g = trial_stream(cfg.seed, t)
        a = [g.next_below(p) for _ in range(n)]
        b = [g.next_below(p) for _ in range(n)]
        if use_collision:
            is_zero = len(set(a)) < n or len(set(b)) < n
            if t < _ORACLE_SUBSAMPLE and is_zero != _det_is_zero(cfg, a, b):
                raise RuntimeError(
                    f"collision shortcut disagrees with oracle on trial {t}: a={a} b={b}"
                )
        else:
            is_zero = _det_is_zero(cfg, a, b)
        if is_zero:
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
