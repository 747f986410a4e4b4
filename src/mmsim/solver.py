"""Backward solver for the reduced posting value function h(t, alpha, q).

After splitting cash and the marked-to-market book value out of the full
value function (H = c + qS + h), the remaining component h satisfies

    0 = (d/dt - zeta a d/da + 0.5 eta^2 d2/da2) h + (nu + a) q - phi q^2
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

Every substep is one stencil, with one of two rules for the posting gains,
each 0 where q has no neighbour (ask at -q_max, bid at q_max):

    maximise (solve_dpe):       max(0, rho ((Dl/2 + h(q -+ 1)) - h(q)))
    evaluate (evaluate_policy): rho ((Dl/2 + h(q -+ 1)) - h(q)) where a fixed
                                policy posts, 0 where it does not; its slice
                                k holds over every substep into slice k

The march runs in place on one (n_alpha, n_q) work slice, which each step
stores into ``h[k]`` once.  Every buffer, every view of a buffer and every
scalar operand is made once per march, so a substep is a straight run of
numpy calls, each writing through its ``out``.  Both jump-shifted slices
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

For rho < 1 this stated rule also posts where the maximiser's gain is
negative; evaluated, it is worth 0.754531 at the origin of the default
config against h = 0.777263, 2.9% less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .params import MarketParams, SolverGrid, ValidationError, render_config, validate
from .table import read_cells, write_table

__all__ = [
    "ValueSurface",
    "PostingPolicy",
    "PolicyShapeMismatchError",
    "UnstableSchemeError",
    "terminal_condition",
    "alpha_grid",
    "solve_dpe",
    "evaluate_policy",
    "extract_policy",
    "export_surface_csv",
    "export_policy_csv",
    "load_policy_csv",
]


class UnstableSchemeError(ValueError):
    """The explicit scheme produced a non-finite value: the config's grid
    is one it cannot solve."""

    def __init__(self, t_index: int):
        self.t_index = t_index
        super().__init__(
            f"non-finite value while updating time slice {t_index}; increase substeps"
        )


@dataclass(eq=False)
class ValueSurface:
    """An h tensor of shape (n_dt+1, n_alpha, 2 q_max + 1): solved, or a
    fixed policy's value."""

    h: np.ndarray
    alpha_nodes: np.ndarray
    q_nodes: np.ndarray
    params_fingerprint: str


class PolicyShapeMismatchError(ValueError):
    pass


@dataclass(eq=False)
class PostingPolicy:
    """Boolean posting decisions, same shape and axes as the value tensor."""

    post_ask: np.ndarray
    post_bid: np.ndarray
    alpha_nodes: np.ndarray
    q_nodes: np.ndarray

    def check(self, params: MarketParams, alpha_nodes: np.ndarray | None = None) -> None:
        """Raise PolicyShapeMismatchError unless the policy fits ``params``,
        on strictly increasing alpha nodes each within 1e-9 cell of an even
        spacing (``alpha_nodes`` if given), with masks of dtype bool."""
        nodes = self.alpha_nodes
        last = nodes.size - 1
        with np.errstate(over="ignore", invalid="ignore"):  # a span past the float range
            if not (nodes.size and np.isfinite(nodes).all() and (np.diff(nodes) > 0).all()
                    and (np.abs((nodes - nodes[0]) * (last / (nodes[-1] - nodes[0]) if last else 1.0)
                                - np.arange(last + 1)) < 1e-9).all()):
                raise PolicyShapeMismatchError("policy alpha nodes must be non-empty, finite, "
                                               "strictly increasing and evenly spaced")
        if alpha_nodes is not None and not np.array_equal(nodes, alpha_nodes):
            raise PolicyShapeMismatchError(
                f"policy alpha nodes are not the grid's {alpha_nodes.size} nodes"
            )
        expected = (params.n_dt + 1, nodes.size, 2 * params.q_max + 1)
        if self.post_ask.shape != expected or self.post_bid.shape != expected:
            raise PolicyShapeMismatchError(
                f"policy shape {self.post_ask.shape} does not match "
                f"(n_dt+1, n_alpha, 2 q_max+1) = {expected}"
            )
        # the march negates the masks and the simulator ORs them into its
        # posting bits: a 0/1 integer mask breaks the one, a 2 the other
        if self.post_ask.dtype != bool or self.post_bid.dtype != bool:
            raise PolicyShapeMismatchError(
                f"policy masks must be bool, not {self.post_ask.dtype} and {self.post_bid.dtype}"
            )
        # the simulator and the march read inventory q at index q + q_max
        if not np.array_equal(self.q_nodes, np.arange(-params.q_max, params.q_max + 1)):
            raise PolicyShapeMismatchError(
                f"policy inventory nodes are not -q_max..q_max = {-params.q_max}..{params.q_max}"
            )


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
    pos = np.arange(1, (grid.n_alpha - 1) // 2 + 1) * grid.cell
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
    one row gather, three in-place ufunc calls and one masked copy.
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
        # full weight and hit arrays: broadcasting a column along the short
        # q axis costs two to four times as much per call
        self.w = np.repeat(w[:, None], n_q, axis=1)
        self.hit = self.w == 1.0
        self._ab = np.empty((2 * lo.size, n_q))
        self._a, self._b = self._ab[:lo.size], self._ab[lo.size:]

    def bind(self, g: np.ndarray, out: np.ndarray):
        """``self(g, out)`` as a call without arguments."""
        # the rows are in range; "clip" skips the buffered check of "raise"
        if self.lands:
            return partial(g.take, self.rows, 0, out, "clip")
        take, rows, ab, a, b, w, hit = g.take, self.rows, self._ab, self._a, self._b, self.w, self.hit

        def interpolate():
            take(rows, 0, ab, "clip")
            np.subtract(b, a, out)
            np.multiply(w, out, out)
            np.add(a, out, out)
            np.copyto(out, b, where=hit)

        return interpolate

    def __call__(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.bind(g, out)()
        return out


def _stencil(params: MarketParams, grid: SolverGrid):
    """The alpha and q nodes, the (n_alpha, n_q) work slice ``g``, and
    ``substep(idle=None)``: one explicit substep of ``g`` in place,
    maximising, or with 0 gains where the stacked (2 n_alpha, n_q) mask
    ``idle`` (ask rows first) is True."""
    alpha = alpha_grid(grid)
    q = np.arange(-params.q_max, params.q_max + 1)
    da = grid.cell

    n, m = alpha.size, q.size
    size = n * m
    g = np.empty((n, m))
    source = (params.nu + alpha)[:, None] * q[None, :] - params.phi * (q.astype(float) ** 2)[None, :]

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
    shift = _JumpShift(alpha, params, m).bind(g, shifted)
    shifted_flat, plus_half_flat, gains_flat = shifted.ravel(), plus_half.ravel(), gains.ravel()
    gains_sides = gains.reshape(2, size)

    # every view and scalar operand of a substep, made once: on these
    # slices a numpy call costs about as much again as its arithmetic
    two, zero, half, rho, tau = (np.array(float(x)) for x in (
        2.0, 0.0, params.delta / 2.0, params.rho, params.dt / grid.substeps))
    g_flat, g_next, g_in, g_prev = g.reshape(size), g[2:], g[1:-1], g[:-2]
    d1_in, d2_in, d1_ends, d2_ends = d1[1:-1], d2[1:-1], d1[::n - 1], d2[::n - 1]
    # rows (1, n-1) and (0, n-2); then the end rows (0, n-1) and the rows
    # one and two cells inward of them (n_alpha >= 11)
    g_upper, g_lower = g[1::n - 2], g[:n - 1:n - 2]
    g_ends, g_ends_in, g_ends_in2 = g[::n - 1], g[1::n - 3], g[2::n - 5]
    ask_plus_half, ask_shifted, ask_gains = plus_half_flat[:size - 1], shifted_flat[1:size], gains_flat[1:size]
    bid_plus_half, bid_shifted, bid_gains = plus_half_flat[size + 1:], shifted_flat[size:-1], gains_flat[size:-1]
    ask_rows, bid_rows, ask_edge, bid_edge = gains[:n], gains[n:], gains[:n, 0], gains[n:, -1]

    def substep(idle: np.ndarray | None = None) -> None:
        # d1: (g[i+1] - g[i-1]) / 2da inside, one-sided at rows 0 and n-1
        np.subtract(g_next, g_prev, d1_in)
        np.subtract(g_upper, g_lower, d1_ends)
        # d2: ((g[i+1] - 2 g[i]) + g[i-1]) / da^2 inside; each end row takes
        # the central stencil of its inner neighbour, counted from the end:
        # ((g[2] - 2 g[1]) + g[0]) and ((g[n-3] - 2 g[n-2]) + g[n-1])
        np.multiply(g_in, two, d2_in)
        np.subtract(g_next, d2_in, d2_in)
        np.add(d2_in, g_prev, d2_in)
        np.multiply(g_ends_in, two, d2_ends)
        np.subtract(g_ends_in2, d2_ends, d2_ends)
        np.add(d2_ends, g_ends, d2_ends)
        np.divide(d, spacing, d)
        np.multiply(coef, d, d)

        # posting gains rho ((Dl/2 + h(q -+ 1)) - h(q)), maximised or masked,
        # then zeroed where q has no neighbour: ask at -q_max, bid at q_max
        shift()
        np.add(shifted_flat, half, plus_half_flat)
        np.subtract(ask_plus_half, ask_shifted, ask_gains)
        np.subtract(bid_plus_half, bid_shifted, bid_gains)
        np.multiply(gains_flat, rho, gains_flat)
        if idle is None:  # np.maximum deprecates a positional out
            np.maximum(zero, gains_flat, out=gains_flat)
        else:
            np.copyto(gains, zero, where=idle)
        ask_edge.fill(0.0)
        bid_edge.fill(0.0)

        # g + tau (adv d1 + diff d2 + source
        #          + lam+ (gain_ask + gp - g) + lam- (gain_bid + gm - g))
        np.add(gains, shifted, gains)
        np.subtract(gains_sides, g_flat, gains_sides)
        np.multiply(gains_sides, lam, gains_sides)
        np.add(d1, d2, d1)
        np.add(d1, source, d1)
        np.add(d1, ask_rows, d1)
        np.add(d1, bid_rows, d1)
        np.multiply(d1, tau, d1)
        np.add(g, d1, g)

    return alpha, q, g, substep


def _march(params: MarketParams, grid: SolverGrid | None, policy: PostingPolicy | None = None):
    """h marched back from the terminal slice: maximised without ``policy``,
    else with policy slice k's masks on every substep into slice k."""
    if grid is None:
        grid = SolverGrid()
    problems = validate(params, grid)
    if problems:
        raise ValidationError(problems)
    alpha, q, g, substep = _stencil(params, grid)
    if policy is not None:
        policy.check(params, alpha)
        # where each slice does not post, stacked as the stencil's gains
        idle = ~np.concatenate([policy.post_ask, policy.post_bid], axis=1)

    h = np.empty((params.n_dt + 1, alpha.size, q.size))
    h[-1] = np.broadcast_to(terminal_condition(q, params), h.shape[1:])
    g[...] = h[-1]
    finite = np.empty(g.shape, dtype=bool)

    # overflow of an unstable iteration is caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(params.n_dt - 1, -1, -1):
            idle_k = None if policy is None else idle[k]
            for _ in range(grid.substeps):
                substep(idle_k)
            h[k] = g
            if not np.isfinite(g, out=finite).all():
                raise UnstableSchemeError(k)

    # hashlib (and OpenSSL) loads here, not with the module: a command that
    # never solves does not pay for it
    import hashlib

    fingerprint = hashlib.sha256(render_config(params, grid).encode()).hexdigest()
    return ValueSurface(h=h, alpha_nodes=alpha, q_nodes=q, params_fingerprint=fingerprint)


def solve_dpe(params: MarketParams, grid: SolverGrid | None = None) -> ValueSurface:
    """March the reduced equation backward from the terminal slice, taking
    the better of posting and not posting on every substep.

    Raises :class:`ValidationError` for a parameter set or grid that
    :func:`validate` rejects, a drift jump that lands more than one cell
    past a grid end among them, and :class:`UnstableSchemeError` if a
    non-finite value appears.
    """
    return _march(params, grid)


def evaluate_policy(policy: PostingPolicy, params: MarketParams,
                    grid: SolverGrid | None = None) -> ValueSurface:
    """The value of following ``policy``: the march of :func:`solve_dpe`
    with policy slice k's posting decisions on every substep of the step
    into slice k, in place of the maximiser's.

    The policy must be on the grid's nodes (:meth:`PostingPolicy.check`);
    the march raises as :func:`solve_dpe` does.
    """
    return _march(params, grid, policy)


def extract_policy(surface: ValueSurface, params: MarketParams) -> PostingPolicy:
    """Evaluate the posting indicators on every node of the solved surface.

    One pass per slice takes gap = rho (h(q) - h(q+1)) along the flat
    stacked jump-shifted buffer, as the march does.  The ask posts where
    gap > -Dl/2, the bid where gap < Dl/2: rounding keeps the sign of an
    exact sum, so each is Dl/2 + rho dh > 0 exactly, NaN and inf included.
    The wrap column, where a row's last node meets the next row's first, is
    cleared once at the end.
    """
    alpha = surface.alpha_nodes
    n, n_q = alpha.size, surface.q_nodes.size
    size = n * n_q
    shift = _JumpShift(alpha, params, n_q)
    shifted = np.empty((2 * n, n_q))
    flat = shifted.reshape(2 * size)
    gap = np.empty(2 * size - 1)
    ask_gap, bid_gap = gap[:size - 1], gap[size:]
    half = params.delta / 2.0

    post_ask = np.empty(surface.h.shape, dtype=bool)
    post_bid = np.empty(surface.h.shape, dtype=bool)
    for k in range(surface.h.shape[0]):
        shift(surface.h[k], out=shifted)
        np.subtract(flat[:-1], flat[1:], out=gap)
        np.multiply(gap, params.rho, out=gap)
        np.greater(ask_gap, -half, out=post_ask[k].reshape(size)[1:])
        np.less(bid_gap, half, out=post_bid[k].reshape(size)[:-1])
    post_ask[:, :, 0] = False
    post_bid[:, :, -1] = False
    return PostingPolicy(post_ask=post_ask, post_bid=post_bid,
                         alpha_nodes=alpha.copy(), q_nodes=surface.q_nodes.copy())


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
    exactly once, with non-negative t indices, finite alpha nodes and
    posting flags of ``1`` or ``0``.
    """
    cells = read_cells(path)
    required = {"t_index", "alpha", "q", "post_bid", "post_ask"}
    if not required.issubset(cells.header):
        raise ValueError(f"policy file missing columns {sorted(required - set(cells.header))}")
    n = cells.n_rows
    if not n:
        raise ValueError("policy file has no rows")

    t_idx = cells.ints("t_index")
    if (t_idx < 0).any():
        cells.reject("t_index", int(np.argmax(t_idx < 0)), "below 0")
    alphas = cells.floats("alpha")
    qs = cells.ints("q")
    bid = cells.flags("post_bid", "1", "0")
    ask = cells.flags("post_ask", "1", "0")

    # with return_inverse, unique skips the np.ma check that would import numpy.ma
    alpha_nodes, alpha_index = np.unique(alphas, return_inverse=True)
    q_nodes, q_index = np.unique(qs, return_inverse=True)
    shape = (int(t_idx.max()) + 1, alpha_nodes.size, q_nodes.size)
    # as many rows as nodes, and every node hit: each node appears exactly
    # once.  The node count is compared in Python ints, before any array of
    # that size is allocated.
    covered = np.zeros(n, dtype=bool)
    if n == math.prod(shape):
        node = np.ravel_multi_index((t_idx, alpha_index, q_index), shape)
        covered[node] = True
    if not covered.all():
        raise ValueError("policy file does not cover a full (t, alpha, q) grid exactly once")

    post_ask = np.zeros_like(covered)
    post_bid = np.zeros_like(covered)
    post_ask[node] = ask
    post_bid[node] = bid
    return PostingPolicy(post_ask=post_ask.reshape(shape), post_bid=post_bid.reshape(shape),
                         alpha_nodes=alpha_nodes, q_nodes=q_nodes)
