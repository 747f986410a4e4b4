"""Strategy simulation over a quote series.

Each window runs the optimal posting policy step by step: market orders are
simulated, the short-term drift evolves with them, the posting decision is
looked up at the nearest drift node for the current inventory, fills are
generated by the environment's fill rules, and cash/inventory/wealth paths
are recorded.  Batches split a session into consecutive non-overlapping
windows that share only their boundary sample, each with its own
deterministic RNG stream.  A window's random events are drawn before its
first step, so ``run_batch`` steps many windows at once in numpy, and the
scalar ``run_simulation`` is the reference it must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    RngStream,
    arrival_probabilities,
    draw_window_events,
    pcg64_stream_states,
    step_alpha,
)
from .fills import EnvMode, FillColumns, FillCounters, FillEvent, Side, step_fills
from .market_data import PriceSeries
from .params import MarketParams
from .solver import PostingPolicy, terminal_condition
from .table import write_table

__all__ = [
    "SimResult",
    "BatchResult",
    "SeriesTooShortError",
    "PolicyShapeMismatchError",
    "InventoryBoundBreachError",
    "update_inventory",
    "update_cash",
    "terminal_wealth",
    "nearest_node",
    "run_simulation",
    "run_batch",
    "write_snapshot_csv",
    "write_batch_wealth_csv",
]


class SeriesTooShortError(ValueError):
    pass


class PolicyShapeMismatchError(ValueError):
    pass


class InventoryBoundBreachError(RuntimeError):
    """A fill pushed inventory past its bound: a policy/fill contract bug."""


@dataclass(eq=False)
class SimResult:
    """One window's paths; arrays hold n_dt+1 states, posting flags n_dt."""

    inventory: np.ndarray
    cash: np.ndarray
    wealth: np.ndarray
    fills: list[FillEvent]
    posted_bid: np.ndarray
    posted_ask: np.ndarray
    counters: FillCounters
    terminal_wealth: float
    objective: float


@dataclass(eq=False)
class BatchResult:
    """Per-window terminal wealths and objectives, fill totals, and every
    fill as columns with session-global ``t_index = w n_dt + i``."""

    terminal_wealths: np.ndarray
    objectives: np.ndarray
    fill_totals: FillCounters
    n_paths: int
    fills: FillColumns


def update_inventory(q: int, fills: list[FillEvent], q_max: int) -> int:
    """Apply one step of fills: buys add a lot, sells shed one."""
    out = q
    for f in fills:
        out += 1 if f.side is Side.BID else -1
    if abs(out) > q_max:
        raise _bound_breach(out, q_max)
    return out


def _bound_breach(q: int, q_max: int) -> InventoryBoundBreachError:
    return InventoryBoundBreachError(
        f"inventory {q} outside [-{q_max}, {q_max}]; "
        "the policy must not post at an inventory bound"
    )


def update_cash(c: float, fills: list[FillEvent]) -> float:
    """Sells collect the fill price, buys pay it."""
    for f in fills:
        c += f.price if f.side is Side.ASK else -f.price
    return c


def terminal_wealth(c: float, q: int, s: float, params: MarketParams) -> float:
    """Cash plus the liquidation value of q lots at the horizon.

    The liquidation is the solver's terminal payoff on top of the mid mark.
    """
    return c + q * s + terminal_condition(q, params)


def nearest_node(nodes: np.ndarray, alpha):
    """Index of the node nearest to ``alpha`` (scalar or array), the lower
    one on a tie.

    One bracketing search finds ``nodes[lo] < alpha <= nodes[lo + 1]``
    (the end pair outside the nodes), and one exact compare of the two neighbours' distances picks between
    them.  For finite, strictly increasing nodes and a finite ``alpha``
    this equals ``np.abs(nodes - alpha).argmin()`` whenever every gap
    between neighbouring nodes exceeds the float spacing at
    ``|alpha| + max|nodes|``: then no node beyond the bracket rounds to
    the same distance.  On the default grid (gaps of 0.0016) that holds
    for ``|alpha|`` up to about 1e12.
    """
    hi = np.minimum(np.searchsorted(nodes, alpha), nodes.size - 1)
    lo = np.maximum(hi - 1, 0)
    return np.where(nodes[hi] - alpha < alpha - nodes[lo], hi, lo)


def _check_policy(policy: PostingPolicy, params: MarketParams) -> None:
    nodes = policy.alpha_nodes
    if not (nodes.size and np.isfinite(nodes).all() and (np.diff(nodes) > 0).all()):
        raise PolicyShapeMismatchError(
            "policy alpha nodes must be non-empty, finite and strictly increasing"
        )
    expected = (params.n_dt + 1, nodes.size, 2 * params.q_max + 1)
    if policy.post_ask.shape != expected or policy.post_bid.shape != expected:
        raise PolicyShapeMismatchError(
            f"policy shape {policy.post_ask.shape} does not match "
            f"(n_dt+1, n_alpha, 2 q_max+1) = {expected}"
        )
    # the simulator reads inventory q at index q + q_max
    if not np.array_equal(policy.q_nodes, np.arange(-params.q_max, params.q_max + 1)):
        raise PolicyShapeMismatchError(
            f"policy inventory nodes are not -q_max..q_max = {-params.q_max}..{params.q_max}"
        )


def run_simulation(
    policy: PostingPolicy,
    series: PriceSeries,
    mode: EnvMode,
    params: MarketParams,
    rng: RngStream | np.random.Generator,
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
    _check_policy(policy, params)
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
        a_idx = int(nearest_node(nodes, alpha))
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
        fills=fills,
        posted_bid=posted_bid,
        posted_ask=posted_ask,
        counters=FillCounters.from_fills(fills),
        terminal_wealth=final,
        objective=final - penalty,
    )


def n_windows(series_len: int, n_dt: int) -> int:
    return (series_len - 1) // n_dt


# Windows stepped together.  A block holds per window step 4 event flag
# bytes, the 8-byte alpha shock and 4 fill flag bytes: about 2 MB at
# n_dt = 120, so one block runs a session of a thousand windows.
BLOCK_WINDOWS = 1024


def run_batch(
    policy: PostingPolicy,
    series: PriceSeries,
    mode: EnvMode,
    params: MarketParams,
    master_seed: int,
) -> BatchResult:
    """Run every full window in a session; window w uses stream_id = w.

    Windows cover samples [w n_dt, (w+1) n_dt] so consecutive windows share
    one boundary sample, and results do not depend on execution order.
    The windows of a block are stepped together, each step one set of
    array operations over the block.  Every operation is the one
    ``run_simulation`` applies to a single window, in the same order, so
    each window's results equal its scalar run bit for bit.
    """
    n = params.n_dt
    count = n_windows(len(series), n)
    if count < 1:
        raise SeriesTooShortError(
            f"series of {len(series)} samples holds no full window of {n + 1}"
        )
    _check_policy(policy, params)
    blocks = [
        _run_block(policy, series, mode, params, master_seed, w0, min(BLOCK_WINDOWS, count - w0))
        for w0 in range(0, count, BLOCK_WINDOWS)
    ]
    wealths, objectives, codes, t_index = (np.concatenate(part) for part in zip(*blocks))
    is_ask = codes % 2 == 0
    fills = FillColumns(
        t_index=t_index,
        is_ask=is_ask,
        price=np.where(is_ask, series.ask[t_index], series.bid[t_index]),
        is_adverse=codes < 2,
    )
    return BatchResult(
        terminal_wealths=wealths, objectives=objectives,
        fill_totals=FillCounters.from_columns(fills), n_paths=count, fills=fills,
    )


def _run_block(policy, series, mode, params, master_seed, w0, size):
    """Step windows w0 .. w0+size-1 together.

    Window w draws from the start of stream ``RngStream(master_seed, w)``:
    the block's PCG64 states come from one ``pcg64_stream_states`` call,
    and one reused generator is set to each in turn.  Each window's
    uniforms are thresholded into event flags as they are drawn, so the
    block holds per step four flags (buy and sell arrival, ask and bid
    thinning, in the layout of ``draw_window_events``) and the alpha
    shock, not the uniforms.

    Returns their terminal wealths and objectives, then their fills as
    event codes and session-global t_index, in window, step and event
    order.  Codes are 0 adverse ask, 1 adverse bid,
    2 non-adverse ask and 3 non-adverse bid, the order ``step_fills``
    emits and ``run_simulation`` settles cash in.
    """
    n = params.n_dt
    p_buy, p_sell = arrival_probabilities(params.lambda_plus, params.lambda_minus, params.dt)
    # one threshold per uniform of a window's flattened (n, 4) block
    limits = np.tile([p_buy, p_sell, mode.rho_effective, mode.rho_effective], n)
    flags = np.empty((size, n * 4), dtype=bool)
    z = np.empty((size, n))
    bit_gen = np.random.PCG64()
    gen = np.random.Generator(bit_gen)
    for k, (state, inc) in enumerate(pcg64_stream_states(master_seed, w0, size)):
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        u, z[k] = draw_window_events(gen, n)
        np.less(u.reshape(-1), limits, out=flags[k])
    flags = flags.reshape(size, n, 4)

    base = w0 * n
    span = size * n

    def quotes(prices, i):
        # sample i of every window in the block: a strided view, no copy
        return prices[base + i:base + i + span:n]

    nodes = policy.alpha_nodes
    j0 = params.q_max
    events = np.zeros((size, n, 4), dtype=bool)
    q = np.zeros(size, dtype=np.int64)
    c = np.zeros(size)
    alpha = np.zeros(size)
    penalty = np.zeros(size)

    for i in range(n):
        a_idx = nearest_node(nodes, alpha)
        j = q + j0
        p_ask = policy.post_ask[i, a_idx, j]
        p_bid = policy.post_bid[i, a_idx, j]

        buy, sell, thin_ask, thin_bid = flags[:, i].T
        alpha = step_alpha(alpha, buy, sell, params.dt, params, z[:, i])

        ask_now, bid_now = quotes(series.ask, i), quotes(series.bid, i)
        step = events[:, i]
        if mode.detect_adverse:
            np.logical_and(p_ask, quotes(series.ask, i + 1) > ask_now, out=step[:, 0])
            np.logical_and(p_bid, quotes(series.bid, i + 1) < bid_now, out=step[:, 1])
        step[:, 2] = p_ask & buy & ~step[:, 0] & thin_ask
        step[:, 3] = p_bid & sell & ~step[:, 1] & thin_bid

        penalty += params.phi * (q * q) * params.dt
        q += step[:, 1].astype(np.int64) + step[:, 3] - step[:, 0] - step[:, 2]
        outside = np.abs(q) > params.q_max
        if outside.any():
            raise _bound_breach(int(q[outside.argmax()]), params.q_max)
        np.add(c, ask_now, out=c, where=step[:, 0])
        np.subtract(c, bid_now, out=c, where=step[:, 1])
        np.add(c, ask_now, out=c, where=step[:, 2])
        np.subtract(c, bid_now, out=c, where=step[:, 3])

    mid = (quotes(series.bid, n) + quotes(series.ask, n)) / 2.0
    final = terminal_wealth(c, q, mid, params)
    flat = np.flatnonzero(events)
    return final, final - penalty, flat % 4, base + flat // 4


def write_snapshot_csv(result: SimResult, series: PriceSeries, path) -> None:
    """Per-step path snapshot; multiple same-step fills join with ';'.

    The last row is the terminal state: no posting flags and no fills.
    """
    n = result.posted_bid.size
    by_step: dict[int, list[FillEvent]] = {}
    for f in result.fills:
        by_step.setdefault(f.t_index, []).append(f)
    steps = [by_step.get(i, []) for i in range(n)] + [[]]
    write_table(
        path,
        ["t_index", "bid", "ask", "mid", "posted_bid", "posted_ask",
         "fill_side", "fill_kind", "q", "cash", "wealth"],
        [
            range(n + 1), series.bid[:n + 1], series.ask[:n + 1], series.mid[:n + 1],
            [*result.posted_bid.astype(int).tolist(), ""],
            [*result.posted_ask.astype(int).tolist(), ""],
            [";".join(f.side.value for f in fills) for fills in steps],
            [";".join(f.kind.value for f in fills) for fills in steps],
            result.inventory, result.cash, result.wealth,
        ],
    )


def write_batch_wealth_csv(batch: BatchResult, path) -> None:
    write_table(path, ["window", "terminal_wealth", "objective"],
                [range(batch.n_paths), batch.terminal_wealths, batch.objectives])
