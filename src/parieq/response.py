"""Best responses for both bettor types, given the opposing side's totals.

Small bettors are price takers: with implied probability P of Outcome 1 and
payout-retention fraction kappa, a unit bet on Outcome 1 returns kappa*p/P
in expectation to a bettor of belief p, so she stakes everything once that
edge is positive and nothing otherwise. The large bettor moves the odds with
her own wager, so her optimum balances stake size against the payout dilution
it causes; the interior optimum has the square-root form below, capped by her
budget.
"""

from dataclasses import dataclass
from math import sqrt

from .errors import DomainError


@dataclass(frozen=True)
class MarketParams:
    """Market primitives: retention fraction, large-bettor belief and budget."""

    kappa: float  # fraction of the pool paid back; the take is 1 - kappa
    q: float      # large bettor's probability of Outcome 1
    w: float      # large bettor's budget

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < 1.0:
            raise DomainError(f"kappa must lie in (0,1), got {self.kappa}")
        if not 0.0 <= self.q <= 1.0:
            raise DomainError(f"q must lie in [0,1], got {self.q}")
        if not self.w > 0.0:
            raise DomainError(f"w must be positive, got {self.w}")


@dataclass(frozen=True)
class DiffuseAggregate:
    """Total small-bettor wagers on each outcome."""

    d1: float
    d2: float

    def __post_init__(self) -> None:
        if not (self.d1 >= 0.0 and self.d2 >= 0.0):  # NaN included
            raise DomainError(f"wager totals must be nonnegative, got {self}")


@dataclass(frozen=True)
class AtomicBet:
    """The large bettor's wager pair."""

    a1: float
    a2: float

    def __post_init__(self) -> None:
        if not (self.a1 >= 0.0 and self.a2 >= 0.0):  # NaN included
            raise DomainError(f"wagers must be nonnegative, got {self}")

    @property
    def total(self) -> float:
        return self.a1 + self.a2


@dataclass(frozen=True)
class DiffuseThresholds:
    """Belief cut points of the small bettors' all-or-nothing profile.

    Beliefs strictly above ``bet1_above`` stake everything on Outcome 1,
    beliefs strictly below ``bet2_below`` stake everything on Outcome 2, and
    everyone else (including the two boundary beliefs, a zero-mass set)
    abstains. The two groups never overlap while kappa < 1.
    """

    bet1_above: float
    bet2_below: float


def implied_probability(d: DiffuseAggregate, a: AtomicBet) -> float:
    """Share of the total pool wagered on Outcome 1."""
    total = d.d1 + d.d2 + a.a1 + a.a2
    if total <= 0.0:
        raise DomainError("empty pool: no wagers placed on either outcome")
    return (d.d1 + a.a1) / total


def diffuse_best_response(P: float, kappa: float) -> DiffuseThresholds:
    """Threshold profile maximizing every small bettor's expected profit at P."""
    if not 0.0 < P < 1.0:
        raise DomainError(f"implied probability must lie in (0,1), got {P}")
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"kappa must lie in (0,1), got {kappa}")
    return DiffuseThresholds(bet1_above=P / kappa,
                             bet2_below=1.0 - (1.0 - P) / kappa)


def diffuse_unit_edge(p: float, P: float, kappa: float) -> tuple[float, float]:
    """Expected profit per unit bet on each outcome for a bettor of belief p."""
    if not 0.0 < P < 1.0:
        raise DomainError(f"implied probability must lie in (0,1), got {P}")
    return kappa * p / P - 1.0, kappa * (1.0 - p) / (1.0 - P) - 1.0


def atomic_profit(bet: AtomicBet, d: DiffuseAggregate, params: MarketParams) -> float:
    """Large bettor's expected profit from ``bet`` against small-bettor totals d."""
    _require_two_sided(d)
    kappa, q = params.kappa, params.q
    pool = bet.a1 + d.d1 + bet.a2 + d.d2
    return (bet.a1 * (kappa * pool * q / (bet.a1 + d.d1) - 1.0)
            + bet.a2 * (kappa * pool * (1.0 - q) / (bet.a2 + d.d2) - 1.0))


def atomic_best_response(d: DiffuseAggregate, params: MarketParams) -> AtomicBet:
    """Profit-maximizing feasible wager for the large bettor.

    Exactly one of three regimes applies: a positive bet on Outcome 1, a
    positive bet on Outcome 2, or abstention. The square-root stake is the
    unconstrained optimum; the budget caps it.
    """
    _require_two_sided(d)
    kappa, q, w, d1, d2 = params.kappa, params.q, params.w, d.d1, d.d2
    # the radicand for the side held with probability b is rounded here as
    # kappa b d1 d2 / (1 - kappa b), for solve's Equilibrium and the oracle;
    # the equilibrium module's map rounds it as (kappa b / (1 - kappa b))
    # d1 d2. Neither can take the other's order bit for bit: this stake in
    # the map's order turns appendixA's a2 at kappa = 0.5205, w = 1 from
    # 3.8504572973e-09 to 3.85045729741e-09, a cell the benchmark checks
    # byte for byte, and phi in this order moves the residual on 29 rows of
    # four bundled sweep --baseline CSVs. 1 - kappa b is positive, as
    # kappa < 1 and b <= 1
    if q > d1 / (kappa * (d1 + d2)):
        return AtomicBet(_stake(kappa * q * d1 * d2 / (1.0 - kappa * q), d1, w), 0.0)
    b = 1.0 - q
    if b > d2 / (kappa * (d1 + d2)):
        return AtomicBet(0.0, _stake(kappa * b * d1 * d2 / (1.0 - kappa * b), d2, w))
    return AtomicBet(0.0, 0.0)


def _stake(square: float, own: float, cap: float) -> float:
    # the large bettor's square-root stake on the side whose small-bettor
    # total is own, capped at cap: min(cap, max(0.0, sqrt(square) - own))
    # with its ties and its NaN (to 0.0), in comparisons. square is kappa b
    # d1 d2 / (1 - kappa b) for her belief b in that side, rounded in the
    # caller's order
    s = sqrt(square) - own
    return cap if s >= cap else (s if s > 0.0 else 0.0)


def _require_two_sided(d: DiffuseAggregate) -> None:
    if not (d.d1 > 0.0 and d.d2 > 0.0):  # NaN included
        raise DomainError(
            f"small-bettor totals must be positive on both outcomes, got {d}")
