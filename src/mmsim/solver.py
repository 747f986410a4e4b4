"""Backward solver for the reduced posting value function h(t, alpha, q).

After splitting cash and the marked-to-market book value out of the full
value function (H = c + qS + h), the remaining component h satisfies

    0 = (d/dt - zeta a d/da + 0.5 eta^2 d2/da2) h + a q - phi q^2
        + lam+ ( max_{d+ in {0,1}} d+ rho [Dl/2 + h(t, a+e+, q-1) - h(t, a+e+, q)] 1{q > -q_max}
                 + h(t, a+e+, q) - h(t, a, q) )
        + lam- ( mirrored with a-e-, q+1, 1{q < q_max} )

with terminal data h(T, a, q) = -|q| Dl/2 - varphi q^2: the book is closed by a
market order at the touch (sell at the bid, buy at the ask), which costs half
a spread per lot on either side, so the payoff is even in q.

The solver marches backward in time with an explicit scheme, ``substeps``
substeps per dt: central first/second differences in alpha on the interior,
one-sided at the two boundary nodes, and linear interpolation (clamped at
the boundary) for the jump-shifted evaluations h(., a +- eps, .).  The
binary maximization is evaluated exactly from its two candidates.

The optimal posting indicators read off the solved surface are

    post_ask(t, a, q) = 1{ Dl/2 + rho [h(t, a+e+, q-1) - h(t, a+e+, q)] > 0 } and q > -q_max
    post_bid(t, a, q) = 1{ Dl/2 + rho [h(t, a-e-, q+1) - h(t, a-e-, q)] > 0 } and q < q_max
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .params import MarketParams, SolverGrid, ValidationError, render_config, validate
from .table import read_cells, write_table

__all__ = [
    "ValueSurface",
    "PostingPolicy",
    "UnstableSchemeError",
    "GridTooCoarseError",
    "terminal_condition",
    "alpha_grid",
    "interp_alpha",
    "solve_dpe",
    "extract_policy",
    "reconstruct_value",
    "export_surface_csv",
    "export_policy_csv",
    "load_policy_csv",
]


class UnstableSchemeError(RuntimeError):
    """The explicit scheme produced a non-finite value."""

    def __init__(self, t_index: int):
        self.t_index = t_index
        super().__init__(
            f"non-finite value while updating time slice {t_index}; "
            "increase substeps or refine the alpha grid"
        )


class GridTooCoarseError(ValueError):
    """The drift jump would leave the alpha grid entirely."""


@dataclass(eq=False)
class ValueSurface:
    """Solved h tensor of shape (n_dt+1, n_alpha, 2 q_max + 1)."""

    h: np.ndarray
    alpha_nodes: np.ndarray
    q_nodes: np.ndarray
    params_fingerprint: str


@dataclass(eq=False)
class PostingPolicy:
    """Boolean posting decisions, same shape and axes as the value tensor."""

    post_ask: np.ndarray
    post_bid: np.ndarray
    alpha_nodes: np.ndarray
    q_nodes: np.ndarray


def terminal_condition(q, params: MarketParams):
    """Liquidation value of q lots at the horizon: -|q| delta/2 - varphi q^2.

    Relative to the mark-to-market q S: a long book is sold at the bid and a
    short book is bought back at the ask, half a spread per lot either way,
    plus the quadratic penalty.
    """
    q = np.asarray(q, dtype=float)
    out = -np.abs(q) * (params.delta / 2.0) - params.varphi * q * q
    return out if out.ndim else float(out)


def alpha_grid(grid: SolverGrid) -> np.ndarray:
    """Exactly mirror-symmetric nodes with alpha = 0 at the center."""
    m = (grid.n_alpha - 1) // 2
    pos = np.arange(1, m + 1) * (grid.alpha_max / m)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _interp_weights(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracketing index and weight for clamped linear interpolation."""
    xc = np.clip(x, nodes[0], nodes[-1])
    idx = np.clip(np.searchsorted(nodes, xc, side="right") - 1, 0, nodes.size - 2)
    w = (xc - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, w


def interp_alpha(values: np.ndarray, alpha_nodes: np.ndarray, alpha: float) -> float:
    """Linear interpolation along alpha; out-of-range queries clamp.

    Written as a + w (b - a) so node hits and constant stretches come back
    exactly (a query clamped to the last node returns that node's value).
    """
    idx, w = _interp_weights(alpha_nodes, np.asarray([alpha], dtype=float))
    i, wi = int(idx[0]), float(w[0])
    if wi == 1.0:
        return float(values[i + 1])
    return float(values[i] + wi * (values[i + 1] - values[i]))


def _shift_slice(g: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate a (n_alpha, n_q) slice at alpha + shift for every node."""
    a = g[idx, :]
    b = g[idx + 1, :]
    out = a + w[:, None] * (b - a)
    hit = w == 1.0
    if hit.any():
        out[hit] = b[hit]
    return out


def _posting_gains(
    gp: np.ndarray, gm: np.ndarray, params: MarketParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node payoff of posting on each side, floored at not posting.

    gp/gm are the jump-shifted slices at alpha+eps_plus / alpha-eps_minus.
    An ask post is worth rho (delta/2 + h(q-1) - h(q)); disallowed at the
    short bound.  The bid side mirrors at the long bound.
    """
    half = params.delta / 2.0
    ask = np.zeros_like(gp)
    ask[:, 1:] = np.maximum(0.0, params.rho * (half + gp[:, :-1] - gp[:, 1:]))
    bid = np.zeros_like(gm)
    bid[:, :-1] = np.maximum(0.0, params.rho * (half + gm[:, 1:] - gm[:, :-1]))
    return ask, bid


def solve_dpe(params: MarketParams, grid: SolverGrid | None = None) -> ValueSurface:
    """March the reduced equation backward from the terminal slice.

    Raises :class:`UnstableSchemeError` if a non-finite value appears, and
    :class:`GridTooCoarseError` if a drift jump from the center node would
    land beyond one cell past the grid boundary, where clamped
    interpolation no longer resembles the true shift.
    """
    if grid is None:
        grid = SolverGrid()
    problems = validate(params, grid)
    if problems:
        raise ValidationError(problems)

    alpha = alpha_grid(grid)
    q = np.arange(-params.q_max, params.q_max + 1)
    da = grid.alpha_max / ((grid.n_alpha - 1) // 2)
    if max(params.eps_plus, params.eps_minus) > grid.alpha_max + da:
        raise GridTooCoarseError(
            f"drift jump {max(params.eps_plus, params.eps_minus)!r} exceeds the grid "
            f"half-width {grid.alpha_max!r} by more than one cell ({da!r})"
        )

    idx_p, w_p = _interp_weights(alpha, alpha + params.eps_plus)
    idx_m, w_m = _interp_weights(alpha, alpha - params.eps_minus)

    tau = params.dt / grid.substeps
    source = alpha[:, None] * q[None, :] - params.phi * (q.astype(float) ** 2)[None, :]
    adv = -params.zeta * alpha
    diff = 0.5 * params.eta**2
    lam_p, lam_m = params.lambda_plus, params.lambda_minus

    h = np.empty((params.n_dt + 1, alpha.size, q.size))
    h[-1] = np.broadcast_to(terminal_condition(q, params), (alpha.size, q.size))

    d1 = np.empty_like(h[-1])
    d2 = np.empty_like(h[-1])
    for k in range(params.n_dt - 1, -1, -1):
        g = h[k + 1]
        for _ in range(grid.substeps):
            # overflow of an unstable iteration is caught by the finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                d1[1:-1] = (g[2:] - g[:-2]) / (2.0 * da)
                d1[0] = (g[1] - g[0]) / da
                d1[-1] = (g[-1] - g[-2]) / da
                d2[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / da**2
                d2[0] = (g[2] - 2.0 * g[1] + g[0]) / da**2
                d2[-1] = (g[-3] - 2.0 * g[-2] + g[-1]) / da**2

                gp = _shift_slice(g, idx_p, w_p)
                gm = _shift_slice(g, idx_m, w_m)
                gain_ask, gain_bid = _posting_gains(gp, gm, params)

                g = g + tau * (
                    adv[:, None] * d1
                    + diff * d2
                    + source
                    + lam_p * (gain_ask + gp - g)
                    + lam_m * (gain_bid + gm - g)
                )
            if not np.all(np.isfinite(g)):
                raise UnstableSchemeError(k)
        h[k] = g

    fingerprint = hashlib.sha256(render_config(params, grid).encode()).hexdigest()
    return ValueSurface(h=h, alpha_nodes=alpha, q_nodes=q, params_fingerprint=fingerprint)


def extract_policy(surface: ValueSurface, params: MarketParams) -> PostingPolicy:
    """Evaluate the posting indicators on every node of the solved surface."""
    alpha = surface.alpha_nodes
    idx_p, w_p = _interp_weights(alpha, alpha + params.eps_plus)
    idx_m, w_m = _interp_weights(alpha, alpha - params.eps_minus)
    half = params.delta / 2.0

    post_ask = np.zeros(surface.h.shape, dtype=bool)
    post_bid = np.zeros(surface.h.shape, dtype=bool)
    for k in range(surface.h.shape[0]):
        gp = _shift_slice(surface.h[k], idx_p, w_p)
        gm = _shift_slice(surface.h[k], idx_m, w_m)
        post_ask[k, :, 1:] = half + params.rho * (gp[:, :-1] - gp[:, 1:]) > 0.0
        post_bid[k, :, :-1] = half + params.rho * (gm[:, 1:] - gm[:, :-1]) > 0.0
    return PostingPolicy(
        post_ask=post_ask,
        post_bid=post_bid,
        alpha_nodes=alpha.copy(),
        q_nodes=surface.q_nodes.copy(),
    )


def reconstruct_value(
    surface: ValueSurface,
    c: float,
    s: float,
    alpha: float,
    q: int,
    t_index: int,
) -> float:
    """Full value at a state: cash + book value + posting component."""
    j = int(q) + (surface.q_nodes.size - 1) // 2
    if not 0 <= j < surface.q_nodes.size:
        raise ValueError(f"inventory {q} outside [{surface.q_nodes[0]}, {surface.q_nodes[-1]}]")
    return c + q * s + interp_alpha(surface.h[t_index, :, j], surface.alpha_nodes, alpha)


def _node_columns(alpha_nodes: np.ndarray, q_nodes: np.ndarray, shape) -> list[np.ndarray]:
    """t_index, alpha and q of every node, in row-major (t, alpha, q) order."""
    k, i, j = (axis.ravel() for axis in np.indices(shape))
    return [k, alpha_nodes[i], q_nodes[j]]


def export_surface_csv(surface: ValueSurface, policy: PostingPolicy, path) -> None:
    """Flat node-per-row CSV: t_index, alpha, q, h, post_bid, post_ask."""
    write_table(
        path,
        ["t_index", "alpha", "q", "h", "post_bid", "post_ask"],
        _node_columns(surface.alpha_nodes, surface.q_nodes, surface.h.shape)
        + [surface.h.ravel(), policy.post_bid.ravel(), policy.post_ask.ravel()],
    )


def export_policy_csv(policy: PostingPolicy, path) -> None:
    """Posting decisions only: t_index, alpha, q, post_bid, post_ask."""
    write_table(
        path,
        ["t_index", "alpha", "q", "post_bid", "post_ask"],
        _node_columns(policy.alpha_nodes, policy.q_nodes, policy.post_ask.shape)
        + [policy.post_bid.ravel(), policy.post_ask.ravel()],
    )


def load_policy_csv(path) -> PostingPolicy:
    """Rebuild a policy from either CSV layout written by the exporters.

    The file must list every node of the (t, alpha, q) grid it spans
    exactly once, with finite alpha nodes and posting flags of ``1`` or
    ``0``.
    """
    cells = read_cells(path)
    required = {"t_index", "alpha", "q", "post_bid", "post_ask"}
    if not required.issubset(cells.header):
        raise ValueError(f"policy file missing columns {sorted(required - set(cells.header))}")
    n = cells.n_rows
    if not n:
        raise ValueError("policy file has no rows")

    t_idx = cells.ints("t_index")
    alphas = cells.floats("alpha")
    if not np.isfinite(alphas).all():
        row = int(np.argmin(np.isfinite(alphas)))
        raise ValueError(f"{path}: data row {row + 1} has non-finite alpha {alphas[row]}")
    qs = cells.ints("q")
    bid = cells.flags("post_bid", "1", "0")
    ask = cells.flags("post_ask", "1", "0")

    alpha_nodes = np.unique(alphas)
    q_nodes = np.unique(qs)
    shape = (int(t_idx.max()) + 1, alpha_nodes.size, q_nodes.size)
    node = np.ravel_multi_index(
        (t_idx, np.searchsorted(alpha_nodes, alphas), np.searchsorted(q_nodes, qs)), shape
    )
    # as many rows as nodes, and every node hit: each node appears exactly once
    covered = np.zeros(int(np.prod(shape)), dtype=bool)
    covered[node] = True
    if n != covered.size or not covered.all():
        raise ValueError("policy file does not cover a full (t, alpha, q) grid exactly once")

    post_ask = np.zeros_like(covered)
    post_bid = np.zeros_like(covered)
    post_ask[node] = ask
    post_bid[node] = bid
    return PostingPolicy(post_ask=post_ask.reshape(shape), post_bid=post_bid.reshape(shape),
                         alpha_nodes=alpha_nodes, q_nodes=q_nodes)
