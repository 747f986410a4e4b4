"""Strategy simulation over a quote series.

Each window runs the optimal posting policy step by step: market orders are
simulated, the short-term drift evolves with them, the posting decision is
looked up at the nearest drift node for the current inventory, fills are
generated by the environment's fill rules, and cash/inventory/wealth paths
are recorded.  Batches split a session into consecutive non-overlapping
windows that share only their boundary sample, each with its own
deterministic RNG stream.  The scalar ``run_simulation`` is the reference
that ``run_batch`` must equal bit for bit.

``run_batch`` steps only what depends on inventory.  A window's random
events are drawn before its first step, and with them everything else is
known before the loop, over a block of windows at once: the alpha path,
its nearest drift nodes, and per step a one-byte fill code holding the
trade-throughs and the thinned market-order hits.  ``fill_rule`` is
evaluated once over all 64 codes (with the two posting bits) into an event
table and an inventory-change table.  A step of the loop then gathers the
posting bits at (step, node, inventory), ORs them into the step's code,
adds the running penalty, moves inventory by the code's change and checks
the inventory bounds.  After the loop the events come from
the codes in one gather, and cash is settled from the fill columns with
``np.add.at``, in window, step and event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    RngStream,
    arrival_probabilities,
    draw_window_events,
    pcg64_stream_states,
    step_alpha,
)
from .fills import EnvMode, FillColumns, FillCounters, FillEvent, Side, fill_rule, step_fills
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
# bytes while its events are drawn, the 8-byte alpha path and one fill code
# byte: about 1.6 MB at n_dt = 120, so one block runs a session of a
# thousand windows.
BLOCK_WINDOWS = 1024

# Steps whose drift nodes are looked up together, in one nearest_node call.
NODE_CHUNK = 8

# Bits of a window step's fill code.  The low four are known before the
# first step: the ask and bid trade-throughs (improved mode only) and the
# ask and bid hits (a market order arrived on that side and passed the
# thinning draw).  The posted bid and ask come from the policy, at the
# step's drift node and inventory.
_ASK_THROUGH, _BID_THROUGH, _ASK_HIT, _BID_HIT, _POSTED_BID, _POSTED_ASK = (
    1 << bit for bit in range(6))


def _code_tables() -> tuple[np.ndarray, np.ndarray]:
    """``fill_rule`` over every fill code: the (64, 4) events in
    ``FILL_EVENTS`` order, and each code's inventory change."""
    code = np.arange(64)
    adverse_ask, adverse_bid, ask, bid = fill_rule(
        *((code & bit) > 0 for bit in
          (_POSTED_ASK, _POSTED_BID, _ASK_THROUGH, _BID_THROUGH, _ASK_HIT, _BID_HIT)))
    dq = bid.astype(np.intp) + adverse_bid - ask - adverse_ask
    return np.stack([adverse_ask, adverse_bid, ask, bid], axis=1), dq


_CODE_EVENTS, _CODE_DQ = _code_tables()


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
    The windows of a block are stepped together (``_run_block``).  Cash
    is settled from the fill columns afterwards: ``np.add.at`` applies
    each window's fills in step and event order, the scalar run's order
    of adds.  Every float operation is the one ``run_simulation`` applies
    to a single window, in the same order, so each window's results equal
    its scalar run bit for bit.
    """
    n = params.n_dt
    count = n_windows(len(series), n)
    if count < 1:
        raise SeriesTooShortError(
            f"series of {len(series)} samples holds no full window of {n + 1}"
        )
    _check_policy(policy, params)
    posting = (policy.post_ask[:n] * np.uint8(_POSTED_ASK)
               | policy.post_bid[:n] * np.uint8(_POSTED_BID)).reshape(-1)
    blocks = [
        _run_block(posting, policy.alpha_nodes, series, mode, params,
                   master_seed, w0, min(BLOCK_WINDOWS, count - w0))
        for w0 in range(0, count, BLOCK_WINDOWS)
    ]
    q, penalty, events, t_index = (np.concatenate(part) for part in zip(*blocks))
    is_ask = events % 2 == 0
    fills = FillColumns(
        t_index=t_index,
        is_ask=is_ask,
        price=np.where(is_ask, series.ask[t_index], series.bid[t_index]),
        is_adverse=events < 2,
    )
    # sells collect the fill price, buys pay it
    cash = np.zeros(count)
    np.add.at(cash, t_index // n, np.where(is_ask, fills.price, -fills.price))
    mid = (series.bid[n:count * n + 1:n] + series.ask[n:count * n + 1:n]) / 2.0
    wealths = terminal_wealth(cash, q, mid, params)
    return BatchResult(
        terminal_wealths=wealths, objectives=wealths - penalty,
        fill_totals=FillCounters.from_columns(fills), n_paths=count, fills=fills,
    )


def _run_block(posting, nodes, series, mode, params, master_seed, w0, size):
    """Step windows w0 .. w0+size-1 together; only inventory is stepped.

    Window w draws from the start of stream ``RngStream(master_seed, w)``:
    the block's PCG64 states come from one ``pcg64_stream_states`` call,
    and one reused generator is set to each in turn.  Each window's
    uniforms are thresholded into event flags as they are drawn (buy and
    sell arrival, ask and bid thinning, in the layout of
    ``draw_window_events``).

    Before the step loop, over the whole block: the alpha path, written
    over the shocks; the low four bits of every step's fill code, from the
    flags and one comparison of each quote series with itself one sample
    on.  Then step i gathers the posting bits at (i, drift node, inventory)
    from ``posting`` (the policy's codes, flattened), ORs them into the
    step's code, adds the running penalty of the step's inventory, moves
    inventory by the code's change and raises at the first bound breach;
    the drift nodes are looked up ``NODE_CHUNK`` steps at a time.

    Returns the windows' final inventories and running penalties, then
    their fills as event indices into ``FILL_EVENTS`` and session-global
    t_index, in window, step and event order.
    """
    n = params.n_dt
    p_buy, p_sell = arrival_probabilities(params.lambda_plus, params.lambda_minus, params.dt)
    # one threshold per uniform of a window's flattened (n, 4) block
    limits = np.tile([p_buy, p_sell, mode.rho_effective, mode.rho_effective], n)
    flags = np.empty((size, n * 4), dtype=bool)
    # row 0 is every window's initial alpha, 0; row i + 1 starts as step i's shock
    alpha = np.zeros((n + 1, size))
    bit_gen = np.random.PCG64()
    gen = np.random.Generator(bit_gen)
    for k, (state, inc) in enumerate(pcg64_stream_states(master_seed, w0, size)):
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        u, alpha[1:, k] = draw_window_events(gen, n)
        np.less(u.reshape(-1), limits, out=flags[k])
    flags = flags.reshape(size, n, 4)

    # the step's fill bits, window by window, then laid out step by step
    base = w0 * n
    span = size * n
    codes = (flags[:, :, 0] & flags[:, :, 2]) * np.uint8(_ASK_HIT)
    codes |= (flags[:, :, 1] & flags[:, :, 3]) * np.uint8(_BID_HIT)
    if mode.detect_adverse:
        ask = series.ask[base:base + span + 1]
        bid = series.bid[base:base + span + 1]
        codes |= (ask[1:] > ask[:-1]).reshape(size, n) * np.uint8(_ASK_THROUGH)
        codes |= (bid[1:] < bid[:-1]).reshape(size, n) * np.uint8(_BID_THROUGH)
    codes = codes.T.copy()
    buy, sell = flags[:, :, :2].transpose(2, 1, 0).copy()
    del flags

    # step_alpha's operations in its order, a window step's jumps as its
    # products eps * flag, looked up by the flag
    alpha[1:] *= params.eta * math.sqrt(params.dt)
    decay = 1.0 - params.zeta * params.dt
    up = params.eps_plus * np.array([False, True])
    down = params.eps_minus * np.array([False, True])
    scaled = np.empty(size)
    for i in range(n):
        out = alpha[i + 1]
        np.multiply(alpha[i], decay, out=scaled)
        out += scaled
        out += up.take(buy[i].view(np.uint8))
        out -= down.take(sell[i].view(np.uint8))
    del buy, sell

    n_alpha, n_q = nodes.size, 2 * params.q_max + 1
    q_nodes = np.arange(-params.q_max, params.q_max + 1)
    # the running penalty of each inventory, as run_simulation computes it
    charge = params.phi * (q_nodes * q_nodes) * params.dt
    # inventory as a column index, q + q_max
    j = np.full(size, params.q_max, dtype=np.intp)
    penalty = np.zeros(size)
    at = np.empty(size, dtype=np.intp)
    for i0 in range(0, n, NODE_CHUNK):
        i1 = min(i0 + NODE_CHUNK, n)
        # each window's row of posting at (step, drift node)
        rows = nearest_node(nodes, alpha[i0:i1])
        rows += np.arange(i0 * n_alpha, i1 * n_alpha, n_alpha)[:, None]
        rows *= n_q
        for row, code in zip(rows, codes[i0:i1]):
            np.add(row, j, out=at)
            code |= posting[at]
            penalty += charge[j]
            j += _CODE_DQ.take(code)
            if j.min() < 0 or j.max() >= n_q:
                q = j - params.q_max
                raise _bound_breach(int(q[(np.abs(q) > params.q_max).argmax()]), params.q_max)
    del alpha

    flat = np.flatnonzero(_CODE_EVENTS[codes.T])
    return j - params.q_max, penalty, flat % 4, base + flat // 4


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
