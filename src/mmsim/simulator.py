"""Strategy simulation over a quote series.

One kernel, ``_run_block``, steps a block of windows of the optimal
posting policy together; its docstring gives the order of a step.
``run_batch`` splits a session into consecutive non-overlapping windows
that share only their boundary sample, window w drawing its events as
``BatchWindow(master_seed, w)``, and steps them in blocks.
``run_simulation`` steps one batch window as a block of one, and reads
the window's cash, inventory and wealth paths off the kernel's fill
codes.  Both return their fills as ``FillColumns``, in window, step and
settlement order.
The tests hold both, bit for bit, to the scalar loop of
``tests/scalar_reference.py``, which steps one fill at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import WINDOW_UNIFORMS, BatchWindow, arrival_probabilities, draw_events
from .fills import EnvMode, FillColumns, FillCounters, fill_rule
from .market_data import PriceSeries
from .params import MarketParams
from .solver import PostingPolicy, terminal_condition
from .table import write_table

__all__ = [
    "SimResult",
    "BatchResult",
    "SeriesTooShortError",
    "InventoryBoundBreachError",
    "terminal_wealth",
    "run_simulation",
    "run_batch",
    "write_snapshot_csv",
    "write_batch_wealth_csv",
]


class SeriesTooShortError(ValueError):
    pass


class InventoryBoundBreachError(RuntimeError):
    """A fill pushed inventory past its bound: a policy/fill contract bug."""


@dataclass(eq=False)
class SimResult:
    """One window's paths; arrays hold n_dt+1 states, posting flags n_dt.
    ``fills`` are the window's fills as columns with window-local
    ``t_index``."""

    inventory: np.ndarray
    cash: np.ndarray
    wealth: np.ndarray
    fills: FillColumns
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


def _bound_breach(q: int, q_max: int) -> InventoryBoundBreachError:
    return InventoryBoundBreachError(
        f"inventory {q} outside [-{q_max}, {q_max}]; "
        "the policy must not post at an inventory bound"
    )


def terminal_wealth(c: float, q: int, s: float, params: MarketParams) -> float:
    """Cash plus the liquidation value of q lots at the horizon.

    The liquidation is the solver's terminal payoff on top of the mid mark.
    """
    return c + q * s + terminal_condition(q, params)


class _NodeGrid:
    """A node set prepared once per run to find the node nearest to an
    ``alpha`` (scalar or array), the lower one on a tie.

    The nodes are even, each within 1e-9 cell of ``a0 + k / inv``, as
    ``PostingPolicy.check`` requires and ``alpha_grid``'s and every policy
    file's are.  So ``x = (alpha - a0) inv``, alpha clipped to the nodes'
    range, is off alpha's place by at most about 1e-9 cell (under a million
    nodes), and where ``x`` lies within ``0.5 - 1e-6`` of its rounding
    ``k``, node ``k`` is nearer than any other by about 2e-6 cell.  Other
    probes (near a midpoint, NaN) compare the distances to their bracket's
    nodes, ``floor(x)`` and the next, exactly.  NaN takes the last
    bracket's lower node, +-inf an end node.

    For finite ``alpha`` it is ``np.abs(nodes - alpha).argmin()`` while the
    cell exceeds the float spacing at ``|alpha| + max|nodes|`` (``|alpha|``
    to about 1e12 on the default grid): the compare reads argmin's two
    distances, no node past the bracket rounds as near, and a 2e-6-cell
    lead survives rounding.
    """

    def __init__(self, nodes: np.ndarray):
        self.nodes, self.a0, last = nodes, nodes[0], nodes.size - 1
        self.inv = last / (nodes[-1] - nodes[0]) if last else 1.0

    def nearest(self, alpha):
        nodes, last, shape = self.nodes, self.nodes.size - 1, np.shape(alpha)
        alpha = np.reshape(alpha, -1)
        x = (np.clip(alpha, self.a0, nodes[-1]) - self.a0) * self.inv  # NaN stays NaN
        k = np.rint(x)
        off = ~(np.abs(x - k) < 0.5 - 1e-6)
        if off.any():
            hi = np.fmin(np.floor(x[off]) + 1, last).astype(np.intp)  # NaN: the last bracket
            lo = np.maximum(hi - 1, 0)
            k[off] = np.where(nodes[hi] - alpha[off] < alpha[off] - nodes[lo], hi, lo)
        return k.astype(np.intp).reshape(shape)


def _check_step(series: PriceSeries, params: MarketParams) -> None:
    """Raise ValueError unless the series is sampled every ``params.dt``."""
    if series.dt != params.dt:
        raise ValueError(f"series sampled every {series.dt!r} s, "
                         f"but the config's dt is {params.dt!r} s")


def run_simulation(
    policy: PostingPolicy,
    series: PriceSeries,
    mode: EnvMode,
    params: MarketParams,
    rng: BatchWindow,
) -> SimResult:
    """Run one window of n_dt steps over the leading samples of a series.

    The window draws the events of batch window ``rng`` and is stepped by
    the batch's kernel as a block of one, so it equals that window's run in
    a batch bit for bit.  Its paths are read off the kernel's per-step fill
    codes: inventory is the running sum of each code's change, the posting
    flags are its posting bits, cash is the running sum of the signed fill
    prices after each step's last fill, and wealth marks to the mid.
    """
    n = params.n_dt
    _check_step(series, params)
    if len(series) < n + 1:
        raise SeriesTooShortError(f"need {n + 1} samples, series has {len(series)}")
    policy.check(params)
    _, penalty, events, t_index, codes = _run_block(policy, series, mode, params, rng, 0, 1)
    fills = _fill_columns(series, events, t_index)

    inventory = np.zeros(n + 1, dtype=int)
    np.cumsum(_CODE_DQ.take(codes[0]), out=inventory[1:])
    # a sequential sum from 0.0, the order in which fills settle; step i's
    # cash is the sum over the fills of steps before it
    settled = np.cumsum(np.concatenate(([0.0], np.where(fills.is_ask, fills.price, -fills.price))))
    # the count of fills before step i, i = 0..n
    cash = settled[np.cumsum(np.bincount(t_index + 1, minlength=n + 1))]
    mid = series.mid[:n + 1]
    wealth = np.zeros(n + 1)
    wealth[1:] = cash[1:] + inventory[1:] * mid[1:]
    final = terminal_wealth(cash[n], int(inventory[n]), mid[n], params)
    wealth[n] = final
    return SimResult(
        inventory=inventory,
        cash=cash,
        wealth=wealth,
        fills=fills,
        posted_bid=(codes[0] & _POSTED_BID) > 0,
        posted_ask=(codes[0] & _POSTED_ASK) > 0,
        counters=FillCounters.from_columns(fills),
        terminal_wealth=final,
        objective=final - penalty[0],
    )


# Windows stepped together.  A block holds per window step 4 event flag
# bytes while its events are drawn, the 8-byte alpha path and one fill code
# byte: about 1.6 MB at n_dt = 120 (and one group's uniforms while
# drawing), so one block runs a session of a thousand windows.
BLOCK_WINDOWS = 1024

# Steps whose drift nodes are looked up together, in one _NodeGrid lookup.
# On 1,000 windows a chunk of 30 ran no faster than 8, and 120 slower.
NODE_CHUNK = 8

# Bits of a window step's fill code.  The low six are known before the
# first step: they are the step's four flag bytes packed in order
# (``_run_block``), the buy and sell arrivals, the ask thinning draw with
# the ask and bid trade-throughs (improved mode only) in its spare bits,
# and the bid thinning draw.  The posted bid and ask come from the policy,
# at the step's drift node and inventory.
(_BUY, _SELL, _ASK_THIN, _ASK_THROUGH, _BID_THROUGH, _BID_THIN, _POSTED_BID,
 _POSTED_ASK) = (1 << bit for bit in range(8))


def _code_tables() -> tuple[np.ndarray, np.ndarray]:
    """``fill_rule`` over every fill code: the (256, 4) events in its
    order, and each code's inventory change.  A side is hit when a market
    order arrived on it and passed the thinning draw."""
    code = np.arange(256)
    buy, sell, ask_thin, ask_through, bid_through, bid_thin, posted_bid, posted_ask = (
        (code & bit) > 0 for bit in
        (_BUY, _SELL, _ASK_THIN, _ASK_THROUGH, _BID_THROUGH, _BID_THIN, _POSTED_BID, _POSTED_ASK))
    adverse_ask, adverse_bid, ask, bid = fill_rule(
        posted_ask, posted_bid, ask_through, bid_through, buy & ask_thin, sell & bid_thin)
    dq = bid.astype(np.intp) + adverse_bid - ask - adverse_ask
    return np.stack([adverse_ask, adverse_bid, ask, bid], axis=1), dq


_CODE_EVENTS, _CODE_DQ = _code_tables()
# whether a code holds any event, as a bytes.translate table
_CODE_BUSY = _CODE_EVENTS.any(axis=1).tobytes()


def run_batch(
    policy: PostingPolicy,
    series: PriceSeries,
    mode: EnvMode,
    params: MarketParams,
    master_seed: int,
) -> BatchResult:
    """Run every full window in a session; window w draws its events as
    ``BatchWindow(master_seed, w)``.

    Windows cover samples [w n_dt, (w+1) n_dt] so consecutive windows share
    one boundary sample, and results do not depend on execution order.
    The windows of a block are stepped together (``_run_block``).  Cash is
    settled from the fill columns afterwards: ``np.add.at`` applies each
    window's fills in step and event order, the order ``run_simulation``
    sums them in, so each window's results equal its ``run_simulation``
    run bit for bit.
    """
    n = params.n_dt
    _check_step(series, params)
    count = (len(series) - 1) // n
    if count < 1:
        raise SeriesTooShortError(
            f"series of {len(series)} samples holds no full window of {n + 1}"
        )
    policy.check(params)
    blocks = []
    for w0 in range(0, count, BLOCK_WINDOWS):
        size = min(BLOCK_WINDOWS, count - w0)
        # a batch keeps no block's fill codes
        blocks.append(_run_block(policy, series, mode, params, BatchWindow(master_seed, w0),
                                 w0 * n, size)[:4])
    q, penalty, events, t_index = (np.concatenate(part) for part in zip(*blocks))
    fills = _fill_columns(series, events, t_index)
    cash = np.zeros(count)
    np.add.at(cash, t_index // n, np.where(fills.is_ask, fills.price, -fills.price))
    mid = (series.bid[n:count * n + 1:n] + series.ask[n:count * n + 1:n]) / 2.0
    wealths = terminal_wealth(cash, q, mid, params)
    return BatchResult(
        terminal_wealths=wealths, objectives=wealths - penalty,
        fill_totals=FillCounters.from_columns(fills), n_paths=count, fills=fills,
    )


def _run_block(policy, series, mode, params, first, base, size):
    """Step ``size`` windows together; only inventory is stepped.

    The windows draw the events of the batch windows from ``first`` on
    (``_draw_block``).  Window k starts at sample ``base + k n_dt`` of
    ``series``.  Before the step loop, over the whole block: the improved
    mode's trade-throughs, one comparison of each quote series with itself
    one sample on, are ORed into the spare bits of each step's ask-thinning
    flag byte; each step's four flag bytes are transposed to step-major
    order as one 32-bit word and gathered by one multiply into the low six
    bits of the step's fill code; and the alpha path is written over the
    shocks, its jumps multiplied out of the code's arrival bits.  Step i
    (state at sample i, transition to i+1) then
      1. takes the posting bits at (i, nearest drift node, inventory) and
         ORs them into the step's code; nodes are looked up ``NODE_CHUNK``
         steps at a time, on the solver's even nodes by one rounding each
         (``_NodeGrid``);
      2. adds the running penalty of the step's inventory;
      3. moves inventory by the code's change, raising at a bound breach,
         found by one unsigned maximum of the inventory columns.
    After the loop only the steps whose code holds an event are expanded
    into their events.

    Returns the windows' final inventories and running penalties, their
    fills as event indices in ``fill_rule``'s order and t_index from sample 0
    of ``series``, in window, step and event order, and the final fill
    codes, shape (size, n_dt).
    """
    n = params.n_dt
    p_buy, p_sell = arrival_probabilities(params.lambda_plus, params.lambda_minus, params.dt)
    # the thresholds of a step's four uniforms
    limits = np.array([p_buy, p_sell, mode.rho_effective, mode.rho_effective])
    flags, alpha = _draw_block(first, size, n, limits)
    n_alpha, n_q = policy.alpha_nodes.size, 2 * params.q_max + 1
    grid = _NodeGrid(policy.alpha_nodes)
    # the policy's posting bits, flattened over (step, node, inventory)
    posting = (policy.post_ask[:n] * np.uint8(_POSTED_ASK)
               | policy.post_bid[:n] * np.uint8(_POSTED_BID)).reshape(-1)

    # the step's fill bits, window by window, then laid out step by step
    span = size * n
    if mode.detect_adverse:
        ask = series.ask[base:base + span + 1]
        bid = series.bid[base:base + span + 1]
        # the trade-throughs as bits 1 and 2 of the ask-thinning flag byte
        moved = (ask[1:] > ask[:-1]).view(np.uint8) << 1
        moved |= (bid[1:] < bid[:-1]).view(np.uint8) << 2
        lane = flags.view(np.uint8)[:, :, 2]
        np.bitwise_or(lane, moved.reshape(size, n), out=lane)
        del moved, lane
    # a step's four flag bytes as one little-endian word, transposed as one
    words = flags.view("<u4").reshape(size, n).T.copy()
    del flags
    # the words' bits gathered into a code's low six: the multiply puts
    # byte 0 at bit 24, byte 1 at 25, byte 2 at 26-28 and byte 3 at 29,
    # and its cross terms, each at a distinct bit under 24, carry into none
    words *= np.uint32(1 << 24 | 1 << 17 | 1 << 10 | 1 << 5)
    words >>= 24
    codes = words.astype(np.uint8)
    del words
    buy, sell = (codes & _BUY) > 0, (codes & _SELL) > 0

    # alpha' = alpha (1 - zeta dt) + eta sqrt(dt) z + eps_plus 1{buy}
    #          - eps_minus 1{sell}, a step's jumps multiplied out of its arrival bits
    alpha[1:] *= params.eta * math.sqrt(params.dt)
    decay = 1.0 - params.zeta * params.dt
    scaled, jump = np.empty(size), np.empty(size)
    for i in range(n):
        out = alpha[i + 1]
        np.multiply(alpha[i], decay, out=scaled)
        out += scaled
        out += np.multiply(buy[i], params.eps_plus, out=jump)
        out -= np.multiply(sell[i], params.eps_minus, out=jump)
    del buy, sell

    q_nodes = np.arange(-params.q_max, params.q_max + 1)
    # the running penalty of each inventory
    charge = params.phi * (q_nodes * q_nodes) * params.dt
    # inventory as a column index, q + q_max
    j = np.full(size, params.q_max, dtype=np.intp)
    penalty = np.zeros(size)
    at = np.empty(size, dtype=np.intp)
    for i0 in range(0, n, NODE_CHUNK):
        i1 = min(i0 + NODE_CHUNK, n)
        # each window's row of posting at (step, drift node)
        rows = grid.nearest(alpha[i0:i1])
        rows += np.arange(i0 * n_alpha, i1 * n_alpha, n_alpha)[:, None]
        rows *= n_q
        for row, code in zip(rows, codes[i0:i1]):
            np.add(row, j, out=at)
            code |= posting.take(at)
            penalty += charge.take(j)
            j += _CODE_DQ.take(code)
            if j.view(np.uintp).max() >= n_q:  # a column below 0 reads as huge
                q = j - params.q_max
                raise _bound_breach(int(q[(np.abs(q) > params.q_max).argmax()]), params.q_max)
    del alpha

    # the steps with any event, window by window, then their 4 event flags
    # each.  bytes.translate looks every code up in a 256-byte table with
    # no intp copy of the codes (8 bytes a step), which numpy's take makes
    codes = codes.T.tobytes()
    steps = np.flatnonzero(np.frombuffer(codes.translate(_CODE_BUSY), dtype=bool))
    codes = np.frombuffer(codes, dtype=np.uint8).reshape(size, n)
    flat = np.flatnonzero(_CODE_EVENTS.take(codes.take(steps), axis=0))
    t_index = steps.take(flat >> 2)
    t_index += base
    return j - params.q_max, penalty, flat.astype(np.uint8) & 3, t_index, codes


def _fill_columns(series: PriceSeries, events: np.ndarray, t_index: np.ndarray) -> FillColumns:
    """Fills as columns, each at the quote of its side at its step."""
    fills = FillColumns(t_index=t_index, event=events, price=series.bid[t_index])
    np.copyto(fills.price, series.ask[t_index], where=fills.is_ask)
    return fills


def _draw_block(first, size, n, limits):
    """Event flags and shocks of the ``size`` batch windows from ``first``
    on (``draw_events``).

    Each group's uniforms are thresholded in one contiguous ``np.less``,
    against ``limits`` laid out like the group's uniforms (rebuilt only
    when a group's size differs from the last one's), into the flags,
    shape (size, n, 4), per step buy and sell arrival, ask and bid
    thinning.  Broadcasting the four limits instead runs a 4-element inner
    loop per window step, about eight times slower.  Its shocks go into
    its windows' columns of the alpha path, shape (n + 1, size), whose
    row 0 is every window's initial alpha, 0.
    """
    flags = np.empty((size, n, WINDOW_UNIFORMS), dtype=bool)
    alpha = np.zeros((n + 1, size))
    laid = np.empty(0)
    for k, u, z in draw_events(first, size, n):
        if laid.shape != u.shape:
            laid = np.broadcast_to(limits, u.shape).copy()
        np.less(u, laid, out=flags[k:k + len(u)])
        alpha[1:, k:k + len(u)] = z.T
    return flags, alpha


def write_snapshot_csv(result: SimResult, series: PriceSeries, path) -> None:
    """Per-step path snapshot; multiple same-step fills join with ';'.

    The last row is the terminal state: no posting flags and no fills.
    """
    n = result.posted_bid.size
    fills = result.fills
    # row i's fills are fills[at[i]:at[i + 1]], at[i] counting the fills
    # before step i; t_index is sorted
    at = np.cumsum(np.bincount(fills.t_index + 1, minlength=n + 2)).tolist()
    sides, kinds = (texts.tolist() for texts in fills.texts())
    write_table(
        path,
        ["t_index", "bid", "ask", "mid", "posted_bid", "posted_ask",
         "fill_side", "fill_kind", "q", "cash", "wealth"],
        [
            range(n + 1), series.bid[:n + 1], series.ask[:n + 1], series.mid[:n + 1],
            [*result.posted_bid.astype(int).tolist(), ""],
            [*result.posted_ask.astype(int).tolist(), ""],
            [";".join(sides[a:b]) for a, b in zip(at, at[1:])],
            [";".join(kinds[a:b]) for a, b in zip(at, at[1:])],
            result.inventory, result.cash, result.wealth,
        ],
    )


def write_batch_wealth_csv(batch: BatchResult, path) -> None:
    write_table(path, ["window", "terminal_wealth", "objective"],
                [range(batch.n_paths), batch.terminal_wealths, batch.objectives])
