"""Trade-order fill tracking.

Two fill channels per step and side, with adverse fills taking precedence:

* adverse: the agent is posted and the touch moves through the order, so
  the fill is certain and executes at the pre-move quote;
* non-adverse: the agent is posted, a market order arrives on that side,
  no adverse fill happened, and a Bernoulli(rho) draw succeeds.

Counters keep the identity  total(side) = adverse + non-adverse.

:func:`fill_rule` states this once, for booleans or boolean arrays.
:func:`step_fills` applies it to one step of the scalar simulator, and
``run_batch`` evaluates it once over every fill code of a step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import MarketParams
from .table import read_cells, write_table

__all__ = [
    "Side",
    "FillKind",
    "FillEvent",
    "FillCounters",
    "FillColumns",
    "EnvVariant",
    "EnvMode",
    "classify_fill",
    "FILL_EVENTS",
    "fill_rule",
    "step_fills",
    "write_fill_log",
    "read_fill_log",
]


class Side(enum.Enum):
    BID = "bid"
    ASK = "ask"


class FillKind(enum.Enum):
    ADVERSE = "adverse"
    NON_ADVERSE = "non_adverse"


@dataclass(frozen=True)
class FillEvent:
    """One unit fill: bid fills execute at the posted bid, asks at the ask."""

    t_index: int
    side: Side
    price: float
    kind: FillKind


@dataclass(frozen=True)
class FillCounters:
    """Fill counts by side and kind."""

    afa: int = 0
    nfa: int = 0
    afb: int = 0
    nfb: int = 0

    @property
    def n_plus(self) -> int:
        """Total ask-side fills (sell orders lifted)."""
        return self.afa + self.nfa

    @property
    def n_minus(self) -> int:
        """Total bid-side fills (buy orders hit)."""
        return self.afb + self.nfb

    @classmethod
    def from_fills(cls, fills: list[FillEvent]) -> "FillCounters":
        """Count fill events by side and kind."""
        return cls.from_columns(FillColumns.from_events(fills))

    @classmethod
    def from_columns(cls, fills: "FillColumns") -> "FillCounters":
        """Count fills by side and kind with one ``bincount``."""
        # codes 0 adverse ask, 1 adverse bid, 2 non-adverse ask, 3 non-adverse bid
        codes = 2 * ~fills.is_adverse + ~fills.is_ask
        afa, afb, nfa, nfb = np.bincount(codes, minlength=4).tolist()
        return cls(afa=afa, nfa=nfa, afb=afb, nfb=nfb)

    def __add__(self, other: "FillCounters") -> "FillCounters":
        return FillCounters(afa=self.afa + other.afa, nfa=self.nfa + other.nfa,
                            afb=self.afb + other.afb, nfb=self.nfb + other.nfb)


class EnvVariant(enum.Enum):
    BENCHMARK = "benchmark"
    IMPROVED = "improved"


@dataclass(frozen=True)
class EnvMode:
    """Simulation environment: benchmark ignores adverse fills and fills
    every posted order an arriving market order matches; improved forces
    adverse fills on trade-through and thins the rest by rho."""

    variant: EnvVariant
    rho_effective: float

    @classmethod
    def benchmark(cls) -> "EnvMode":
        return cls(EnvVariant.BENCHMARK, rho_effective=1.0)

    @classmethod
    def improved(cls, params: MarketParams) -> "EnvMode":
        return cls(EnvVariant.IMPROVED, rho_effective=params.rho)

    @property
    def detect_adverse(self) -> bool:
        return self.variant is EnvVariant.IMPROVED


def classify_fill(side: Side, price_now: float, price_next: float) -> FillKind:
    """A fill is adverse when the first subsequent touch move is against it."""
    if side is Side.BID:
        return FillKind.ADVERSE if price_next < price_now else FillKind.NON_ADVERSE
    return FillKind.ADVERSE if price_next > price_now else FillKind.NON_ADVERSE


# A step's four fill events, in the order they settle: adverse ask, adverse
# bid, non-adverse ask, non-adverse bid.
FILL_EVENTS = (
    (Side.ASK, FillKind.ADVERSE),
    (Side.BID, FillKind.ADVERSE),
    (Side.ASK, FillKind.NON_ADVERSE),
    (Side.BID, FillKind.NON_ADVERSE),
)


def fill_rule(posted_ask, posted_bid, ask_through, bid_through, ask_hit, bid_hit):
    """The step's four fill events as flags in :data:`FILL_EVENTS` order,
    for booleans or boolean arrays.

    ``ask_through`` and ``bid_through`` flag a trade-through the
    environment counts (the ask moved up, the bid down; improved mode
    only).  ``ask_hit`` and ``bid_hit`` flag a market order that arrived
    on that side and passed the thinning draw.  A posted side fills
    adversely on a trade-through, else non-adversely on a hit.
    """
    # logical_and returns numpy booleans, so ~ is a logical not on scalars too
    adverse_ask = np.logical_and(posted_ask, ask_through)
    adverse_bid = np.logical_and(posted_bid, bid_through)
    return (adverse_ask, adverse_bid,
            posted_ask & ask_hit & ~adverse_ask, posted_bid & bid_hit & ~adverse_bid)


def step_fills(
    posted_bid: bool,
    posted_ask: bool,
    bid_now: float,
    ask_now: float,
    bid_next: float,
    ask_next: float,
    mo_buy: bool,
    mo_sell: bool,
    mode: EnvMode,
    u_ask: float,
    u_bid: float,
    t_index: int = 0,
) -> list[FillEvent]:
    """Full fill pipeline for one step: adverse first, then thinned fills.

    Arriving buy MOs lift the posted ask; sell MOs hit the posted bid.
    ``u_ask`` and ``u_bid`` are the step's thinning uniforms.  The events
    are :func:`fill_rule`'s, in :data:`FILL_EVENTS` order.
    """
    detect, rho = mode.detect_adverse, mode.rho_effective
    flags = fill_rule(
        posted_ask, posted_bid,
        detect and ask_next > ask_now, detect and bid_next < bid_now,
        mo_buy and u_ask < rho, mo_sell and u_bid < rho,
    )
    price = {Side.ASK: ask_now, Side.BID: bid_now}
    return [FillEvent(t_index, side, price[side], kind)
            for happened, (side, kind) in zip(flags, FILL_EVENTS) if happened]


@dataclass(eq=False)
class FillColumns:
    """Fills as columns, one entry per fill in log order.

    ``is_ask`` marks ask-side fills (the rest are bids) and ``is_adverse``
    adverse ones; prices are the posted quote each fill executed at.
    """

    t_index: np.ndarray
    is_ask: np.ndarray
    price: np.ndarray
    is_adverse: np.ndarray

    def __len__(self) -> int:
        return self.t_index.size

    @classmethod
    def from_events(cls, fills: list[FillEvent]) -> "FillColumns":
        return cls(
            t_index=np.array([f.t_index for f in fills], dtype=np.int64),
            is_ask=np.array([f.side is Side.ASK for f in fills], dtype=bool),
            price=np.array([f.price for f in fills], dtype=float),
            is_adverse=np.array([f.kind is FillKind.ADVERSE for f in fills], dtype=bool),
        )


FILL_LOG_HEADER = ["t_index", "side", "price", "kind"]


def write_fill_log(fills: FillColumns, path) -> None:
    """Fill log CSV: t_index, side, price, kind."""
    write_table(path, FILL_LOG_HEADER, [
        fills.t_index,
        np.where(fills.is_ask, Side.ASK.value, Side.BID.value),
        fills.price,
        np.where(fills.is_adverse, FillKind.ADVERSE.value, FillKind.NON_ADVERSE.value),
    ])


def read_fill_log(path) -> FillColumns:
    """Read a fill log back as columns; an unknown side or kind raises."""
    cells = read_cells(path)
    if cells.header != FILL_LOG_HEADER:
        raise ValueError(f"unexpected fill log header {','.join(cells.header)!r}")
    return FillColumns(
        t_index=cells.ints("t_index"),
        is_ask=cells.flags("side", Side.ASK.value, Side.BID.value),
        price=cells.floats("price"),
        is_adverse=cells.flags("kind", FillKind.ADVERSE.value, FillKind.NON_ADVERSE.value),
    )
