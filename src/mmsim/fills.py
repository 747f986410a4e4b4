"""Trade-order fill tracking.

Two fill channels per step and side, with adverse fills taking precedence:

* adverse: the agent is posted and the touch moves through the order, so
  the fill is certain and executes at the pre-move quote;
* non-adverse: the agent is posted, a market order arrives on that side,
  no adverse fill happened, and a Bernoulli(rho) draw succeeds.

Counters keep the identity  total(side) = adverse + non-adverse.

:func:`fill_rule` states this once, for booleans or boolean arrays; the
simulator evaluates it once over every fill code a step can hold.
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
    "fill_rule",
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
    def from_columns(cls, fills: "FillColumns") -> "FillCounters":
        """Count fills by side and kind with one ``bincount``."""
        afa, afb, nfa, nfb = np.bincount(fills.event, minlength=4).tolist()
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
    adverse fills on trade-through and thins the rest by rho, a fill
    probability that must lie in [0, 1]."""

    variant: EnvVariant
    rho_effective: float

    def __post_init__(self):
        if not 0.0 <= self.rho_effective <= 1.0:  # NaN fails too
            raise ValueError(f"rho_effective must lie in [0, 1], got {self.rho_effective!r}")

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


def fill_rule(posted_ask, posted_bid, ask_through, bid_through, ask_hit, bid_hit):
    """The step's four fill events as flags, for booleans or boolean
    arrays, in the order they settle: adverse ask, adverse bid, non-adverse
    ask, non-adverse bid.

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


# fill_rule's four events in its order, as (side, kind)
_EVENTS = ((Side.ASK, FillKind.ADVERSE), (Side.BID, FillKind.ADVERSE),
           (Side.ASK, FillKind.NON_ADVERSE), (Side.BID, FillKind.NON_ADVERSE))
# each event's side and kind texts
_EVENT_SIDES, _EVENT_KINDS = (np.array([e.value for e in column]) for column in zip(*_EVENTS))


def _event_of(is_ask: np.ndarray, is_adverse: np.ndarray) -> np.ndarray:
    """The event indices of fills flagged by side and kind."""
    return (2 * ~is_adverse + ~is_ask).astype(np.uint8)


@dataclass(eq=False)
class FillColumns:
    """Fills as columns, one entry per fill in log order.

    ``event`` is each fill's index among ``fill_rule``'s four events
    (``_EVENTS``), one byte a fill; prices are the posted quote each fill
    executed at.
    """

    t_index: np.ndarray
    event: np.ndarray
    price: np.ndarray

    def __len__(self) -> int:
        return self.t_index.size

    @property
    def is_ask(self) -> np.ndarray:
        """Ask-side fills; the rest are bids."""
        return (self.event & 1) == 0

    @property
    def is_adverse(self) -> np.ndarray:
        """Adverse fills."""
        return self.event < 2

    def texts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each fill's side and kind as the texts the tables hold."""
        return _EVENT_SIDES.take(self.event), _EVENT_KINDS.take(self.event)

    @classmethod
    def from_events(cls, fills: list[FillEvent]) -> "FillColumns":
        return cls(
            t_index=np.array([f.t_index for f in fills], dtype=np.int64),
            event=_event_of(np.array([f.side is Side.ASK for f in fills], dtype=bool),
                          np.array([f.kind is FillKind.ADVERSE for f in fills], dtype=bool)),
            price=np.array([f.price for f in fills], dtype=float),
        )


FILL_LOG_HEADER = ["t_index", "side", "price", "kind"]


def write_fill_log(fills: FillColumns, path) -> None:
    """Fill log CSV: t_index, side, price, kind."""
    sides, kinds = fills.texts()
    write_table(path, FILL_LOG_HEADER, [fills.t_index, sides, fills.price, kinds])


def read_fill_log(path) -> FillColumns:
    """Read a fill log back as columns; an unknown side or kind, or a
    negative or decreasing ``t_index``, raises."""
    cells = read_cells(path)
    if cells.header != FILL_LOG_HEADER:
        raise ValueError(f"unexpected fill log header {','.join(cells.header)!r}")
    t_index = cells.ints("t_index")
    back = np.flatnonzero(np.diff(t_index, prepend=0) < 0)
    if back.size:
        row = int(back[0])
        cells.reject("t_index", row,
                     f"below the {t_index[row - 1]} before it" if row else "below 0")
    is_ask = cells.flags("side", Side.ASK.value, Side.BID.value)
    price = cells.floats("price")
    is_adverse = cells.flags("kind", FillKind.ADVERSE.value, FillKind.NON_ADVERSE.value)
    return FillColumns(t_index=t_index, event=_event_of(is_ask, is_adverse), price=price)
