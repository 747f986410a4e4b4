"""The scalar simulator: the reference the simulator's kernel is tested against.

``run_simulation`` steps one window as the simulator's step order reads,
one step and one fill at a time, on Python scalars.  ``mmsim.simulator``
runs every window, alone or in a batch, through one vectorised kernel;
the tests require its results to equal this loop's bit for bit.  The
loop's helpers are the model's rules for one step: the fills of a step
(``step_fills``), their settlement (``update_inventory``,
``update_cash``), their count (``counters_from_events``) and the drift's
Euler step (``step_alpha``).  The loop keeps its fills as ``FillEvent``
objects in ``FILL_EVENTS`` order and returns them as ``FillColumns``, as
the simulator does; ``fill_events`` turns columns back into events.

This module holds no tests; the test modules import it.
"""

from __future__ import annotations

import math

import numpy as np

from mmsim.dynamics import BatchWindow, arrival_probabilities, draw_events
from mmsim.fills import (
    EnvMode,
    FillColumns,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
    fill_rule,
)
from mmsim.market_data import PriceSeries
from mmsim.params import MarketParams
from mmsim.simulator import (
    SeriesTooShortError,
    SimResult,
    _bound_breach,
    terminal_wealth,
)
from mmsim.solver import PostingPolicy

# A step's four fill events, in the order they settle and ``fill_rule``
# returns them: adverse ask, adverse bid, non-adverse ask, non-adverse bid.
FILL_EVENTS = (
    (Side.ASK, FillKind.ADVERSE),
    (Side.BID, FillKind.ADVERSE),
    (Side.ASK, FillKind.NON_ADVERSE),
    (Side.BID, FillKind.NON_ADVERSE),
)


def fill_events(fills: FillColumns) -> list[FillEvent]:
    """The inverse of ``FillColumns.from_events``: one event per row."""
    return [
        FillEvent(t, Side.ASK if ask else Side.BID, price,
                  FillKind.ADVERSE if adverse else FillKind.NON_ADVERSE)
        for t, ask, price, adverse in zip(fills.t_index.tolist(), fills.is_ask.tolist(),
                                          fills.price.tolist(), fills.is_adverse.tolist())
    ]


def draw_window_events(rng: BatchWindow, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch window's random events: ``(u, z)``, the uniforms, shape
    (n_steps, 4), and the alpha shocks, shape (n_steps,), the window's row
    of its group as ``draw_events`` lays them out."""
    (_, u, z), = draw_events(rng, 1, n_steps)
    return u[0], z[0]


def step_alpha(
    alpha: float | np.ndarray,
    buy: bool | np.ndarray,
    sell: bool | np.ndarray,
    dt: float,
    params: MarketParams,
    z: float | np.ndarray,
) -> float | np.ndarray:
    """One Euler step of the short-term drift, for scalars or arrays;
    ``buy`` and ``sell`` flag the step's market-order arrivals.

    alpha' = alpha (1 - zeta dt) + eta sqrt(dt) z
             + eps_plus 1{buy} - eps_minus 1{sell}

    Adding a zero jump leaves the sum unchanged, so the expression equals
    adding each jump only on its arrival, term by term.
    """
    out = alpha * (1.0 - params.zeta * dt) + params.eta * math.sqrt(dt) * z
    return out + params.eps_plus * buy - params.eps_minus * sell


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


def update_inventory(q: int, fills: list[FillEvent], q_max: int) -> int:
    """Apply one step of fills: buys add a lot, sells shed one."""
    out = q
    for f in fills:
        out += 1 if f.side is Side.BID else -1
    if abs(out) > q_max:
        raise _bound_breach(out, q_max)
    return out


def update_cash(c: float, fills: list[FillEvent]) -> float:
    """Sells collect the fill price, buys pay it."""
    for f in fills:
        c += f.price if f.side is Side.ASK else -f.price
    return c


def counters_from_events(fills: list[FillEvent]) -> FillCounters:
    """Count fill events by side and kind."""
    return FillCounters.from_columns(FillColumns.from_events(fills))


def run_simulation(
    policy: PostingPolicy,
    series: PriceSeries,
    mode: EnvMode,
    params: MarketParams,
    rng: BatchWindow,
) -> SimResult:
    """Run one window of n_dt steps over the leading samples of a series.

    The window's events are drawn first (``draw_window_events``).  Step i
    (state at sample i, transition to i+1):
      1. read the posting decision at (i, nearest drift node, inventory);
      2. take the step's market-order arrivals and advance the drift;
      3. improved mode: force adverse fills from the i -> i+1 quote move;
      4. thin the remaining posted sides by rho_effective on MO arrival;
      5. settle cash and inventory; mark wealth to the mid.

    At i = n_dt the terminal liquidation value replaces the mark-to-market,
    and the objective subtracts the running inventory penalty integral.
    This scalar loop is the reference that ``run_batch`` reproduces.
    """
    n = params.n_dt
    if len(series) < n + 1:
        raise SeriesTooShortError(f"need {n + 1} samples, series has {len(series)}")
    policy.check(params)
    u, z = draw_window_events(rng, n)
    p_buy, p_sell = arrival_probabilities(params.lambda_plus, params.lambda_minus, params.dt)

    bid, ask, mid = series.bid, series.ask, series.mid
    nodes = policy.alpha_nodes
    j0 = params.q_max

    inventory = np.zeros(n + 1, dtype=int)
    cash = np.zeros(n + 1)
    wealth = np.zeros(n + 1)
    posted_bid = np.zeros(n, dtype=bool)
    posted_ask = np.zeros(n, dtype=bool)
    fills: list[FillEvent] = []

    q = 0
    c = 0.0
    alpha = 0.0
    wealth[0] = 0.0
    penalty = 0.0

    for i in range(n):
        # the nearest node, the lower on a tie: the kernel's stated contract
        a_idx = int(np.abs(nodes - alpha).argmin())
        j = q + j0
        p_ask = bool(policy.post_ask[i, a_idx, j])
        p_bid = bool(policy.post_bid[i, a_idx, j])
        posted_ask[i] = p_ask
        posted_bid[i] = p_bid

        u_buy, u_sell, u_ask, u_bid = u[i]
        buy, sell = u_buy < p_buy, u_sell < p_sell
        alpha = step_alpha(alpha, buy, sell, params.dt, params, z[i])

        new_fills = step_fills(
            p_bid, p_ask, bid[i], ask[i], bid[i + 1], ask[i + 1],
            buy, sell, mode, u_ask, u_bid, t_index=i,
        )
        penalty += params.phi * (q * q) * params.dt
        q = update_inventory(q, new_fills, params.q_max)
        c = update_cash(c, new_fills)
        fills.extend(new_fills)

        inventory[i + 1] = q
        cash[i + 1] = c
        wealth[i + 1] = c + q * mid[i + 1]

    final = terminal_wealth(c, q, mid[n], params)
    wealth[n] = final
    return SimResult(
        inventory=inventory,
        cash=cash,
        wealth=wealth,
        fills=FillColumns.from_events(fills),
        posted_bid=posted_bid,
        posted_ask=posted_ask,
        counters=counters_from_events(fills),
        terminal_wealth=final,
        objective=final - penalty,
    )
