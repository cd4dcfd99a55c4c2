"""Spot-instance market (§1.1 background; extension beyond the core paper).

"The price for these instances depends on current supply/demand conditions
in the Amazon cloud.  The user can specify a maximum amount she is willing
to pay … and configure her instance to execute whenever this maximum bid
becomes higher than the current market offer."  The paper sticks to
on-demand instances because of deadlines; we model the market anyway so the
cost/deadline trade-off can be explored (see ``tests/test_spot_market.py``
and ``examples/spot_fallback.py``).

Three layers:

* :class:`SpotMarket` — one hourly mean-reverting price process;
* :class:`SpotMarketBoard` — one market per (availability zone, instance
  type), each drawn from its own *named* RNG fork so installing a board
  never shifts any existing stream, plus the interruption calculus: the
  first hour boundary where the price crosses a bid is a
  :class:`SpotInterruption` carrying the two-minute warning EC2 grants;
* :class:`SpotRequest` — the standalone §1.1 persistent-request model,
  run on one market by the X5 spot trade-off experiment
  (:func:`repro.experiments.exp_side.spot_tradeoff`) and by
  ``examples/spot_market.py``.

Billing follows the 2010 spot rules: each started instance-hour is charged
at the spot price in force when the hour began; an hour cut short because
*the market* reclaimed the instance is free, while an hour cut short by
the *user* terminating is charged in full (the on-demand ceil-hour rule).
:meth:`SpotMarketBoard.bill_segment` is the one implementation of that
arithmetic, used by the runner's spot acquisition policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.cloud.types import SMALL, InstanceType
from repro.sim.random import RngStream
from repro.units import HOUR

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.cluster import Cloud

__all__ = ["SpotMarket", "SpotMarketBoard", "SpotInterruption", "SpotRequest",
           "TWO_MINUTE_WARNING"]

#: EC2's interruption notice: the instance learns of its reclamation two
#: minutes before termination — the window a checkpoint must fit into.
TWO_MINUTE_WARNING = 120.0

#: How far ahead interruption/affordability scans look before giving up.
DEFAULT_HORIZON_HOURS = 24 * 7


@dataclass
class SpotMarket:
    """Hourly mean-reverting spot price process.

    ``price(h)`` for integer hour ``h`` follows an Ornstein–Uhlenbeck-like
    recursion around ``mean_price``, floored at ``floor``.  The market
    predates any campaign, so hour 0 is already a shocked draw around the
    mean (unless ``start_price`` pins it) — different zones disagree from
    the first query, which is what makes bid aggressiveness select zones.
    Deterministic in the seed; prices are cached so queries are
    idempotent.
    """

    rng: RngStream
    mean_price: float = 0.04        # typical 2010 small-instance spot price
    reversion: float = 0.35
    volatility: float = 0.012
    floor: float = 0.01
    start_price: float | None = None
    _prices: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.reversion <= 1:
            raise ValueError("reversion must be in (0, 1]")
        if self.mean_price <= 0 or self.floor < 0:
            raise ValueError("prices must be positive")

    def price(self, hour: int) -> float:
        """Spot price during wall-clock hour ``hour`` (0-based)."""
        if hour < 0:
            raise ValueError("hour must be non-negative")
        while len(self._prices) <= hour:
            if not self._prices:
                if self.start_price is not None:
                    p = self.start_price
                else:
                    p = self.mean_price + self.rng.normal(0.0, self.volatility)
            else:
                prev = self._prices[-1]
                shock = self.rng.normal(0.0, self.volatility)
                p = prev + self.reversion * (self.mean_price - prev) + shock
            self._prices.append(max(self.floor, p))
        return self._prices[hour]

    def prices(self, hours: int) -> list[float]:
        """The first ``hours`` hourly prices."""
        return [self.price(h) for h in range(hours)]


@dataclass(frozen=True)
class SpotInterruption:
    """One market reclamation: the price crossed above the bid.

    ``at`` is the absolute simulated second the instance is terminated
    (always an hour boundary — prices move hourly); ``warning_at`` is the
    two-minute notice the instance can checkpoint against.  ``source``
    distinguishes price crossings (``"market"``) from replayed trace
    events (``"trace"``, see
    :class:`~repro.chaos.scenario.SpotInterruptionTrace`).
    """

    zone: str
    at: float
    price: float
    bid: float
    source: str = "market"
    warning_seconds: float = TWO_MINUTE_WARNING

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("interruption time must be non-negative")
        if self.warning_seconds < 0:
            raise ValueError("warning must be non-negative")

    @property
    def warning_at(self) -> float:
        """Absolute second the two-minute warning is delivered."""
        return max(0.0, self.at - self.warning_seconds)


class SpotMarketBoard:
    """Per-AZ (and per-type) spot price processes with interruption math.

    Every ``(zone, instance type)`` pair gets an *independent*
    :class:`SpotMarket` whose stream is forked from the board's RNG by
    name (``market.{type}.{zone}``) — a pure derivation, so creating a
    board (or querying a new zone) never shifts draws any existing
    consumer observes, and two boards built from the same fork are
    bit-identical.

    Prices for non-reference instance types scale with their on-demand
    rate ratio (an ``m1.large`` trades at 4× the small-instance market,
    just as its on-demand price does); bids are always expressed in
    *reference* (small-instance) terms and scaled the same way, so one
    bid knob governs the whole ladder.
    """

    def __init__(self, rng: RngStream, zones: Iterable[str], *,
                 mean_price: float = 0.04, reversion: float = 0.35,
                 volatility: float = 0.012, floor: float = 0.01,
                 reference_rate: float = SMALL.hourly_rate,
                 warning_seconds: float = TWO_MINUTE_WARNING) -> None:
        self.rng = rng
        self.zones = tuple(zones)
        if not self.zones:
            raise ValueError("a market board needs at least one zone")
        self.mean_price = mean_price
        self.reversion = reversion
        self.volatility = volatility
        self.floor = floor
        self.reference_rate = reference_rate
        self.warning_seconds = warning_seconds
        self._markets: dict[tuple[str, str], SpotMarket] = {}

    @classmethod
    def for_cloud(cls, cloud: "Cloud", **kwargs) -> "SpotMarketBoard":
        """A board over ``cloud``'s zones, forked off its root stream.

        The fork name (``spot.board``) is a namespace no other consumer
        uses, so attaching a board leaves the cloud's hidden state —
        instance quality, boot delays, measurement noise — byte-identical.
        """
        return cls(cloud.rng.fork("spot.board"),
                   (z.name for z in cloud.region.zones), **kwargs)

    # -- prices ------------------------------------------------------------

    def scale(self, itype: InstanceType) -> float:
        """Price multiplier for ``itype`` relative to the reference type."""
        return itype.hourly_rate / self.reference_rate

    def market(self, zone: str, itype: InstanceType = SMALL) -> SpotMarket:
        """The (cached) price process for one ``(zone, type)`` pair."""
        if zone not in self.zones:
            raise KeyError(f"unknown zone {zone!r}; board covers {self.zones}")
        key = (zone, itype.name)
        m = self._markets.get(key)
        if m is None:
            s = self.scale(itype)
            m = SpotMarket(rng=self.rng.fork(f"market.{itype.name}.{zone}"),
                           mean_price=self.mean_price * s,
                           reversion=self.reversion,
                           volatility=self.volatility * s,
                           floor=self.floor * s)
            self._markets[key] = m
        return m

    def price(self, zone: str, hour: int, itype: InstanceType = SMALL) -> float:
        """Spot price in ``zone`` for ``itype`` during market hour ``hour``."""
        return self.market(zone, itype).price(hour)

    def affordable(self, zone: str, hour: int, bid: float,
                   itype: InstanceType = SMALL) -> bool:
        """Would a reference-terms ``bid`` hold ``itype`` in ``zone``?"""
        return self.price(zone, hour, itype) <= bid * self.scale(itype)

    def cheapest_zone(self, hour: int, bid: float, *,
                      itype: InstanceType = SMALL,
                      exclude: Iterable[str] = ()) -> str | None:
        """Cheapest zone whose price the bid covers at ``hour`` (or None)."""
        skip = set(exclude)
        best: str | None = None
        best_price = float("inf")
        for zone in self.zones:
            if zone in skip:
                continue
            p = self.price(zone, hour, itype)
            if p <= bid * self.scale(itype) and p < best_price:
                best, best_price = zone, p
        return best

    # -- interruption calculus --------------------------------------------

    def next_crossing(self, zone: str, *, after: float, bid: float,
                      itype: InstanceType = SMALL,
                      horizon_hours: int = DEFAULT_HORIZON_HOURS,
                      ) -> SpotInterruption | None:
        """First price-above-bid hour boundary strictly after ``after``.

        This is the engine-schedulable interruption event: an instance
        running in ``zone`` since ``after`` survives exactly until the
        returned event's ``at`` (and hears about it ``warning_seconds``
        earlier).  ``None`` means the bid holds for the whole horizon.
        """
        h = int(after // HOUR) + 1
        scaled_bid = bid * self.scale(itype)
        for hour in range(h, h + horizon_hours):
            p = self.price(zone, hour, itype)
            if p > scaled_bid:
                return SpotInterruption(
                    zone=zone, at=hour * HOUR, price=p, bid=scaled_bid,
                    source="market", warning_seconds=self.warning_seconds)
        return None

    def next_affordable_hour(self, zone: str, *, from_hour: int, bid: float,
                             itype: InstanceType = SMALL,
                             horizon_hours: int = DEFAULT_HORIZON_HOURS,
                             ) -> int | None:
        """First hour >= ``from_hour`` the bid covers in ``zone`` (or None)."""
        scaled_bid = bid * self.scale(itype)
        for hour in range(from_hour, from_hour + horizon_hours):
            if self.price(zone, hour, itype) <= scaled_bid:
                return hour
        return None

    # -- billing -----------------------------------------------------------

    def bill_segment(self, zone: str, start: float, end: float, *,
                     itype: InstanceType = SMALL,
                     interrupted: bool = False) -> list[tuple[float, float, float]]:
        """Charged sub-intervals for one spot run under 2010 billing rules.

        Returns ``(sub_start, sub_end, hourly_price)`` triples, one per
        charged instance-hour: each started hour bills at the market
        price in force at its start; with ``interrupted`` (the market
        reclaimed the instance) the trailing partial hour is free,
        otherwise (user termination) it is charged like any ceil-hour.
        """
        if end < start:
            raise ValueError("segment ends before it starts")
        out: list[tuple[float, float, float]] = []
        t = start
        while t < end:
            sub_end = min(end, t + HOUR)
            if interrupted and sub_end - t < HOUR and sub_end >= end:
                break                        # reclaimed mid-hour: free
            out.append((t, sub_end, self.price(zone, int(t // HOUR), itype)))
            t = sub_end
        return out


@dataclass(frozen=True)
class SpotRequest:
    """A persistent spot request at a fixed maximum bid."""

    bid: float

    def __post_init__(self) -> None:
        if self.bid <= 0:
            raise ValueError("bid must be positive")

    def active_hours(self, market: SpotMarket, horizon_hours: int) -> list[int]:
        """Hours within the horizon during which the instance would run."""
        return [h for h in range(horizon_hours) if market.price(h) <= self.bid]

    def simulate_progress(
        self, market: SpotMarket, horizon_hours: int, work_hours: float
    ) -> dict:
        """Run ``work_hours`` of resumable computation on spot capacity.

        Returns completion hour (or None), hours of paid compute and total
        cost.  Applications "are required to be able to resume cleanly"
        (§1.1): progress simply accumulates over active hours.  Zero work
        is complete before any hour starts — ``completed_hour=0``, nothing
        paid — regardless of whether the bid ever holds.
        """
        if work_hours < 0:
            raise ValueError("work must be non-negative")
        if work_hours == 0:
            return {"completed_hour": 0, "paid_hours": 0,
                    "cost": 0.0, "done": True}
        done = 0.0
        cost = 0.0
        paid_hours = 0
        for h in range(horizon_hours):
            price = market.price(h)
            if price <= self.bid:
                cost += price
                paid_hours += 1
                done += 1.0
                if done >= work_hours:
                    return {"completed_hour": h + 1, "paid_hours": paid_hours,
                            "cost": cost, "done": True}
        return {"completed_hour": None, "paid_hours": paid_hours,
                "cost": cost, "done": False}
