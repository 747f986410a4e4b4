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
one-sided at the two boundary nodes, and the jump-shifted evaluations
h(., a +- eps, .) taken from the nodes.  If every row of both shifts lands
within 1e-9 of a cell of an alpha node (a row clamped at a grid end lands
on the end node), as on any grid where eps_plus and eps_minus are whole
multiples of the node spacing, each shift is its landing node's row.
Otherwise every shift is linear interpolation, clamped at the boundary.
The binary maximization is evaluated exactly from its two candidates.

The march runs in place.  Every buffer is allocated once per solve, each
array operation is one numpy call writing through ``out=``, and the last
substep of a step writes straight into ``h[k]``.  Both jump-shifted slices
come from one row gather: of the landing rows, or of the stacked bracket
rows that the interpolation then combines.  The posting gains of both
sides are differenced along the flattened shifted buffer, and the column
where one alpha row runs into the next is zeroed after.  Each node still
gets the scheme's floating-point operations in the scheme's order:
a + w (b - a) for an interpolated shift, (Dl/2 + h(q -+ 1)) - h(q) for a
gain, and g + tau ((((adv d1 + diff d2) + source) + ask term) + bid term)
for the update.  So h is bitwise what the plain expression-per-line loop
gives; ``tests/test_solver.py`` keeps that loop as its oracle.

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
    "solve_dpe",
    "extract_policy",
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


class _JumpShift:
    """Both jump-shifted evaluations of an (n_alpha, n_q) slice, stacked.

    Rows ``[0, n_alpha)`` hold h(alpha + eps_plus) and rows
    ``[n_alpha, 2 n_alpha)`` hold h(alpha - eps_minus).  If every row of
    both shifts lands within 1e-9 of a cell of an alpha node (a row
    clamped at a grid end lands on the end node), each row is that node's
    row, i+k or i-k clamped, and an evaluation is one row gather.
    Otherwise each row is clamped linear interpolation a + w (b - a)
    between its bracketing nodes, and a row whose weight is exactly 1.0 (a
    node hit, or a clamp to the last node) takes b itself.  Rows, weights
    and hit rows are worked out once, so an interpolating evaluation is
    one row gather and three in-place ufunc calls.
    """

    def __init__(self, alpha: np.ndarray, params: MarketParams, n_q: int):
        idx_p, w_p = _interp_weights(alpha, alpha + params.eps_plus)
        idx_m, w_m = _interp_weights(alpha, alpha - params.eps_minus)
        lo = np.concatenate([idx_p, idx_m])
        w = np.concatenate([w_p, w_m])
        cell = np.rint(w)
        self.lands = bool(np.all(np.abs(w - cell) <= 1e-9))
        if self.lands:
            self.rows = lo + cell.astype(lo.dtype)
            return
        self.rows = np.concatenate([lo, lo + 1])
        # a full weight array: broadcasting a column along the short q axis
        # costs about twice as much per call
        self.w = np.repeat(w[:, None], n_q, axis=1)
        self.hit = np.flatnonzero(w == 1.0)
        self._ab = np.empty((2 * lo.size, n_q))
        self._a, self._b = self._ab[:lo.size], self._ab[lo.size:]

    def __call__(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the rows are in range; "clip" skips the buffered check of "raise"
        if self.lands:
            return np.take(g, self.rows, axis=0, out=out, mode="clip")
        a, b = self._a, self._b
        np.take(g, self.rows, axis=0, out=self._ab, mode="clip")
        np.subtract(b, a, out=out)
        np.multiply(self.w, out, out=out)
        np.add(a, out, out=out)
        out[self.hit] = b[self.hit]
        return out


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

    n, m = alpha.size, q.size
    size = n * m
    shift = _JumpShift(alpha, params, m)
    tau = params.dt / grid.substeps
    source = alpha[:, None] * q[None, :] - params.phi * (q.astype(float) ** 2)[None, :]
    half = params.delta / 2.0

    # d[0], d[1]: first and second alpha differences, each divided by its
    # spacing and scaled by its coefficient in one call for both
    d = np.empty((2, n, m))
    d1, d2 = d
    spacing = np.empty_like(d)
    spacing[0] = 2.0 * da
    spacing[0, [0, -1]] = da
    spacing[1] = da**2
    coef = np.empty_like(d)
    coef[0] = (-params.zeta * alpha)[:, None]
    coef[1] = 0.5 * params.eta**2
    lam = np.array([[params.lambda_plus], [params.lambda_minus]])

    # rows [0, n) are the ask side at alpha + eps_plus, rows [n, 2n) the
    # bid side at alpha - eps_minus; the *_flat views run along q and on
    # into the next row
    shifted = np.empty((2 * n, m))
    plus_half = np.empty_like(shifted)
    gains = np.zeros_like(shifted)
    shifted_flat, plus_half_flat, gains_flat = shifted.ravel(), plus_half.ravel(), gains.ravel()
    gains_sides = gains.reshape(2, size)

    h = np.empty((params.n_dt + 1, n, m))
    h[-1] = np.broadcast_to(terminal_condition(q, params), (n, m))
    finite = np.empty((n, m), dtype=bool)

    # overflow of an unstable iteration is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(params.n_dt - 1, -1, -1):
            g = h[k + 1]
            for _ in range(grid.substeps):
                # d1: (g[i+1] - g[i-1]) / 2da inside, one-sided at rows 0 and n-1
                np.subtract(g[2:], g[:-2], out=d1[1:-1])
                np.subtract(g[1::n - 2], g[:n - 1:n - 2], out=d1[::n - 1])
                # d2: ((g[i+1] - 2 g[i]) + g[i-1]) / da^2; the one-sided
                # stencil of row 0 is the central one of row 1
                np.multiply(g[1:-1], 2.0, out=d2[1:-1])
                np.subtract(g[2:], d2[1:-1], out=d2[1:-1])
                np.add(d2[1:-1], g[:-2], out=d2[1:-1])
                d2[0] = d2[1]
                np.multiply(g[-2], 2.0, out=d2[-1])
                np.subtract(g[-3], d2[-1], out=d2[-1])
                np.add(d2[-1], g[-1], out=d2[-1])
                np.divide(d, spacing, out=d)
                np.multiply(coef, d, out=d)

                # posting gains max(0, rho ((Dl/2 + h(q -+ 1)) - h(q))),
                # then zero where q has no neighbour: ask at -q_max, bid at q_max
                shift(g, out=shifted)
                np.add(shifted_flat, half, out=plus_half_flat)
                np.subtract(plus_half_flat[:size - 1], shifted_flat[1:size],
                            out=gains_flat[1:size])
                np.subtract(plus_half_flat[size + 1:], shifted_flat[size:-1],
                            out=gains_flat[size:-1])
                np.multiply(gains_flat, params.rho, out=gains_flat)
                np.maximum(0.0, gains_flat, out=gains_flat)
                gains[:n, 0] = 0.0
                gains[n:, -1] = 0.0

                # g + tau (adv d1 + diff d2 + source
                #          + lam+ (gain_ask + gp - g) + lam- (gain_bid + gm - g))
                np.add(gains, shifted, out=gains)
                np.subtract(gains_sides, g.reshape(size), out=gains_sides)
                np.multiply(gains_sides, lam, out=gains_sides)
                np.add(d1, d2, out=d1)
                np.add(d1, source, out=d1)
                np.add(d1, gains[:n], out=d1)
                np.add(d1, gains[n:], out=d1)
                np.multiply(d1, tau, out=d1)
                g = np.add(g, d1, out=h[k])
            if not np.isfinite(g, out=finite).all():
                raise UnstableSchemeError(k)

    fingerprint = hashlib.sha256(render_config(params, grid).encode()).hexdigest()
    return ValueSurface(h=h, alpha_nodes=alpha, q_nodes=q, params_fingerprint=fingerprint)


def extract_policy(surface: ValueSurface, params: MarketParams) -> PostingPolicy:
    """Evaluate the posting indicators on every node of the solved surface.

    Each slice's inventory differences are taken on the flat jump-shifted
    buffer, as in the march; the wrap column, where a row's last node
    meets the next row's first, is cleared once at the end.
    """
    alpha = surface.alpha_nodes
    n, n_q = alpha.size, surface.q_nodes.size
    size = n * n_q
    shift = _JumpShift(alpha, params, n_q)
    shifted = np.empty((2 * n, n_q))
    up, down = shifted[:n].reshape(size), shifted[n:].reshape(size)
    gain = np.empty(size - 1)
    half = params.delta / 2.0

    post_ask = np.empty(surface.h.shape, dtype=bool)
    post_bid = np.empty(surface.h.shape, dtype=bool)
    for k in range(surface.h.shape[0]):
        shift(surface.h[k], out=shifted)
        # half + rho (h(a+e+, q-1) - h(a+e+, q)) > 0
        np.subtract(up[:-1], up[1:], out=gain)
        np.multiply(gain, params.rho, out=gain)
        np.add(gain, half, out=gain)
        np.greater(gain, 0.0, out=post_ask[k].reshape(size)[1:])
        # half + rho (h(a-e-, q+1) - h(a-e-, q)) > 0
        np.subtract(down[1:], down[:-1], out=gain)
        np.multiply(gain, params.rho, out=gain)
        np.add(gain, half, out=gain)
        np.greater(gain, 0.0, out=post_bid[k].reshape(size)[:-1])
    post_ask[:, :, 0] = False
    post_bid[:, :, -1] = False
    return PostingPolicy(
        post_ask=post_ask,
        post_bid=post_bid,
        alpha_nodes=alpha.copy(),
        q_nodes=surface.q_nodes.copy(),
    )


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
