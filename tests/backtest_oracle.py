"""An oracle of the backtest: the value of a posting policy in the process
``run_batch`` runs on ``simulate``'s synthetic quotes, by backward policy
evaluation over (step, alpha, q) (Puterman, *Markov Decision Processes*,
1994).

The process, step by step, as ``tests/scalar_reference.py`` steps it:

- the policy is read at the step's nearest alpha node, the lower on a tie
  (``simulator._NodeGrid``), and the inventory q;
- a buy and a sell market order arrive with ``arrival_probabilities``, and
  each hits the posted quote on its side if its thinning draw falls below
  the environment's ``rho_effective``;
- alpha takes its Euler step, with the arrivals' ``eps_plus`` and
  ``eps_minus`` jumps and a normal shock;
- the synthetic mid (``synthetic_quotes``) moves a tick up and a tick down
  with ``MID_MOVE_PROB`` each, independent of every draw; in the improved
  environment a move through a posted quote fills it adversely
  (``fill_rule``);
- at the horizon the inventory is liquidated at ``terminal_condition``.

Marked to the mid, a step earns ``delta/2`` per fill, plus the inventory
after the step times the step's mid move, less ``phi q^2 dt``, so the sum
over a window is its objective.  The fills and the move are taken jointly:
a non-adverse fill means its side did not trade through.

Alpha enters only through the policy, so the value is smooth in alpha but
for steps where the nearest node changes.  It is held constant on
sub-cells, ``refine`` (odd) to a node's cell, whose edges hold every cell
edge and whose centres every node; a shock is integrated exactly over each
sub-cell, the end ones reaching to infinity.

This module holds no tests; the test modules import it.
"""

from __future__ import annotations

import math

import numpy as np

from mmsim.dynamics import arrival_probabilities
from mmsim.fills import EnvMode, fill_rule
from mmsim.market_data import MID_MOVE_PROB
from mmsim.params import MarketParams
from mmsim.simulator import _NodeGrid
from mmsim.solver import PostingPolicy, terminal_condition

# the standard normal CDF on [-9, 9], for linear interpolation: its error
# there is under 1e-9, and its mass beyond is under 1e-18
_X = np.linspace(-9.0, 9.0, 180_001)
_CDF = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in _X.tolist()])


def _shock_weights(centres: np.ndarray, edges: np.ndarray, mean: np.ndarray, sd: float):
    """(len(mean), len(centres)): the chance that ``mean + sd z`` lands in
    each sub-cell, the first and last reaching to -inf and +inf."""
    cdf = np.ones((mean.size, centres.size + 1))
    cdf[:, 0] = 0.0
    cdf[:, 1:-1] = np.interp((edges[None, :] - mean[:, None]) / sd, _X, _CDF)
    return np.diff(cdf, axis=1)


def backtest_value(policy: PostingPolicy, params: MarketParams, mode: EnvMode,
                   refine: int) -> float:
    """The policy's expected objective over a window from alpha = 0 and
    q = 0, alpha held on ``refine`` sub-cells a node; the quotes are
    ``simulate``'s, whose tick is ``delta``."""
    if refine < 1 or refine % 2 == 0:
        raise ValueError(f"refine must be odd and positive, got {refine}")
    n, dt = params.n_dt, params.dt
    nodes = policy.alpha_nodes
    q = np.arange(-params.q_max, params.q_max + 1)
    n_q = q.size
    if policy.post_ask[:n, :, 0].any() or policy.post_bid[:n, :, -1].any():
        raise ValueError("the policy posts past an inventory bound")

    # sub-cells: the middle one of each node's is centred on the node
    width = (nodes[-1] - nodes[0]) / (nodes.size - 1) / refine
    offsets = (np.arange(refine) - refine // 2) * width
    centres = (nodes[:, None] + offsets[None, :]).reshape(-1)
    edges = (centres[1:] + centres[:-1]) / 2.0
    node = _NodeGrid(nodes).nearest(centres)
    origin = int(np.flatnonzero(centres == 0.0)[0])

    p_buy, p_sell = arrival_probabilities(params.lambda_plus, params.lambda_minus, dt)
    rho = mode.rho_effective
    decay = 1.0 - params.zeta * dt
    sd = params.eta * math.sqrt(dt)
    # each side's (arrived, hit, chance): no order, an order thinned away, a hit
    buys = [(0, 0, 1.0 - p_buy), (1, 0, p_buy * (1.0 - rho)), (1, 1, p_buy * rho)]
    sells = [(0, 0, 1.0 - p_sell), (1, 0, p_sell * (1.0 - rho)), (1, 1, p_sell * rho)]
    moves = [(1, MID_MOVE_PROB), (-1, MID_MOVE_PROB), (0, 1.0 - 2.0 * MID_MOVE_PROB)]
    weights = {
        (buy, sell): _shock_weights(
            centres, edges, centres * decay + params.eps_plus * buy - params.eps_minus * sell, sd)
        for buy in (0, 1) for sell in (0, 1)
    }
    rows = np.arange(centres.size)[:, None]

    value = np.broadcast_to(terminal_condition(q, params), (centres.size, n_q))
    for i in range(n - 1, -1, -1):
        ahead = {arrivals: w @ value for arrivals, w in weights.items()}
        posted_ask, posted_bid = policy.post_ask[i][node], policy.post_bid[i][node]
        value = np.broadcast_to(-params.phi * q * q * dt, (centres.size, n_q)).copy()
        for buy, ask_hit, p_b in buys:
            for sell, bid_hit, p_s in sells:
                for move, p_m in moves:
                    adverse_ask, adverse_bid, ask, bid = fill_rule(
                        posted_ask, posted_bid, mode.detect_adverse and move > 0,
                        mode.detect_adverse and move < 0, bool(ask_hit), bool(bid_hit))
                    asks = adverse_ask.astype(int) + ask
                    bids = adverse_bid.astype(int) + bid
                    after = q + bids - asks
                    reward = (asks + bids) * (params.delta / 2.0) + after * (move * params.delta)
                    next_value = ahead[buy, sell][rows, after + params.q_max]
                    value += (p_b * p_s * p_m) * (reward + next_value)
    return float(value[origin, params.q_max])
