from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.cli import cli_main
from mmsim.params import SolverGrid, ValidationError, default_grid, default_params
from mmsim.solver import (
    GridTooCoarseError,
    UnstableSchemeError,
    ValueSurface,
    alpha_grid,
    export_policy_csv,
    export_surface_csv,
    extract_policy,
    load_policy_csv,
    solve_dpe,
    terminal_condition,
)
from mmsim.solver import _interp_weights, _JumpShift


@pytest.fixture(scope="module")
def default_solution():
    params = default_params()
    surface = solve_dpe(params, default_grid())
    policy = extract_policy(surface, params)
    return params, surface, policy


def test_terminal_condition_values():
    p = default_params()
    assert terminal_condition(0, p) == 0.0
    assert terminal_condition(7, p) == pytest.approx(-0.525, rel=1e-12)
    # a short book is bought back at the ask: -7 * 0.005 - 0.01 * 49
    assert terminal_condition(-7, p) == pytest.approx(-0.525, rel=1e-12)


def test_terminal_slice_exact(default_solution):
    params, surface, _ = default_solution
    expected = terminal_condition(surface.q_nodes, params)
    diff = np.abs(surface.h[-1] - expected[None, :]).max()
    assert diff == 0.0


def test_alpha_grid_symmetric_with_zero_node():
    nodes = alpha_grid(default_grid())
    assert nodes.size == 51
    assert nodes[25] == 0.0
    assert np.array_equal(nodes, -nodes[::-1])


def test_flat_inventory_row_stays_zero_without_events():
    p = replace(default_params(), lambda_plus=0.0, lambda_minus=0.0, eta=0.0)
    surface = solve_dpe(p, default_grid())
    j0 = p.q_max
    assert np.all(surface.h[:, :, j0] == 0.0)


def test_single_substep_matches_hand_stencil():
    # one explicit substep of size 0.5 back from the horizon, read at the
    # alpha = 0 node for one long lot
    p = replace(default_params(), dt=0.5, horizon=0.5, n_dt=1)
    grid = replace(default_grid(), substeps=1)
    surface = solve_dpe(p, grid)
    i0 = int(np.where(surface.alpha_nodes == 0.0)[0][0])
    got = surface.h[0, i0, p.q_max + 1]

    t = lambda q: -q * (p.delta / 2 + p.varphi * q)
    tau = 0.5
    gain_ask = max(0.0, p.rho * (p.delta / 2 + t(0) - t(1)))
    gain_bid = max(0.0, p.rho * (p.delta / 2 + t(2) - t(1)))
    expected = t(1) + tau * (p.lambda_plus * gain_ask + p.lambda_minus * gain_bid)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.0138334, abs=1e-12)


def test_policy_respects_inventory_bounds(default_solution):
    _, _, policy = default_solution
    assert not policy.post_ask[:, :, 0].any()
    assert not policy.post_bid[:, :, -1].any()


def test_policy_posts_on_zero_value_difference():
    params = default_params()
    nodes = alpha_grid(default_grid())
    q = np.arange(-params.q_max, params.q_max + 1)
    flat = ValueSurface(
        h=np.zeros((3, nodes.size, q.size)),
        alpha_nodes=nodes,
        q_nodes=q,
        params_fingerprint="",
    )
    policy = extract_policy(flat, params)
    assert policy.post_ask[:, :, 1:].all()
    assert policy.post_bid[:, :, :-1].all()


def test_policy_matches_direct_indicator(default_solution):
    # independent evaluation through numpy's own interpolation
    params, surface, policy = default_solution
    nodes = surface.alpha_nodes
    half = params.delta / 2
    n_t, n_a, n_q = surface.h.shape
    for k in range(0, n_t, 17):
        for j in range(n_q):
            up = np.array(
                [np.interp(a + params.eps_plus, nodes, surface.h[k, :, j]) for a in nodes]
            )
            dn = np.array(
                [np.interp(a - params.eps_minus, nodes, surface.h[k, :, j]) for a in nodes]
            )
            if j >= 1:
                up_prev = np.array(
                    [np.interp(a + params.eps_plus, nodes, surface.h[k, :, j - 1]) for a in nodes]
                )
                want = half + params.rho * (up_prev - up) > 0
                assert np.array_equal(policy.post_ask[k, :, j], want)
            if j <= n_q - 2:
                dn_next = np.array(
                    [np.interp(a - params.eps_minus, nodes, surface.h[k, :, j + 1]) for a in nodes]
                )
                want = half + params.rho * (dn_next - dn) > 0
                assert np.array_equal(policy.post_bid[k, :, j], want)


def test_mirror_symmetry_without_spread_term():
    # the stencil alone, with the spread shrunk out of both the terminal data
    # and the posting gains, must reflect (alpha, q) -> (-alpha, -q) onto itself
    p = replace(default_params(), delta=1e-12)
    surface = solve_dpe(p, default_grid())
    asym = np.abs(surface.h - surface.h[:, ::-1, ::-1]).max()
    assert asym <= 1e-9
    policy = extract_policy(surface, p)
    assert np.array_equal(policy.post_ask, policy.post_bid[:, ::-1, ::-1])


def test_full_model_mirror_asymmetry_equals_terminal_spread():
    # at a positive spread the solved terminal slice is exactly as mirror-
    # asymmetric as the liquidation payoff it starts from; closing at the touch
    # costs half a spread per lot on either side, so both are zero
    p = default_params()
    assert p.delta > 0
    surface = solve_dpe(p, default_grid())
    asym = np.abs(surface.h[-1] - surface.h[-1, ::-1, ::-1]).max()
    payoff = terminal_condition(surface.q_nodes, p)
    payoff_asym = np.abs(payoff - payoff[::-1]).max()
    assert asym == payoff_asym
    assert payoff_asym == 0.0


def test_lower_rho_changes_the_policy():
    grid = default_grid()
    p_low = default_params()
    p_one = replace(p_low, rho=1.0)
    pol_low = extract_policy(solve_dpe(p_low, grid), p_low)
    pol_one = extract_policy(solve_dpe(p_one, grid), p_one)
    differing = (pol_low.post_ask != pol_one.post_ask).sum()
    differing += (pol_low.post_bid != pol_one.post_bid).sum()
    assert differing > 0


def test_refinement_shrinks_intergrid_gap():
    params = default_params()
    coarse = default_grid()
    grids = [
        coarse,
        replace(coarse, n_alpha=101, substeps=8),
        replace(coarse, n_alpha=201, substeps=32),
    ]
    solutions = [solve_dpe(params, g) for g in grids]
    h0 = solutions[0].h
    h1 = solutions[1].h[:, ::2, :]
    h2 = solutions[2].h[:, ::4, :]
    d1 = np.abs(h1 - h0).max()
    d2 = np.abs(h2 - h1).max()
    assert d2 < d1


def test_value_stays_inside_a_priori_bound():
    params = default_params()
    grid = default_grid()
    surface = solve_dpe(params, grid)
    terminal_max = np.abs(terminal_condition(surface.q_nodes, params)).max()
    bound = 10 * terminal_max + params.horizon * (
        params.q_max * grid.alpha_max
        + params.lambda_plus * params.delta / 2
        + params.lambda_minus * params.delta / 2
    )
    assert np.abs(surface.h).max() <= bound


def test_unstable_scheme_is_detected():
    p = replace(default_params(), eta=0.05)
    with pytest.raises(UnstableSchemeError) as err:
        solve_dpe(p, replace(default_grid(), substeps=1))
    assert 0 <= err.value.t_index <= p.n_dt


def test_jump_exceeding_grid_is_rejected():
    p = replace(default_params(), eps_plus=0.05, eps_minus=0.05)
    with pytest.raises(GridTooCoarseError):
        solve_dpe(p, default_grid())


def test_invalid_params_are_rejected():
    with pytest.raises(ValidationError):
        solve_dpe(replace(default_params(), rho=2.0), default_grid())


def test_policy_csv_round_trip(tmp_path, default_solution):
    _, surface, policy = default_solution
    path = tmp_path / "policy.csv"
    export_policy_csv(policy, path)
    loaded = load_policy_csv(path)
    assert np.array_equal(loaded.post_ask, policy.post_ask)
    assert np.array_equal(loaded.post_bid, policy.post_bid)
    assert np.array_equal(loaded.alpha_nodes, policy.alpha_nodes)

    combined = tmp_path / "surface.csv"
    export_surface_csv(surface, policy, combined)
    loaded2 = load_policy_csv(combined)
    assert np.array_equal(loaded2.post_ask, policy.post_ask)


def test_policy_csv_requires_exact_node_coverage(tmp_path, default_solution):
    _, _, policy = default_solution
    path = tmp_path / "policy.csv"
    export_policy_csv(policy, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows[1] = rows[0]  # one node twice, the next one missing: the row count still fits
    bad = tmp_path / "bad_policy.csv"
    bad.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="exactly once"):
        load_policy_csv(bad)
    code = cli_main(["simulate", "--policy", str(bad), "--windows", "2",
                     "--out", str(tmp_path / "run")])
    assert code == 1
    assert not (tmp_path / "run" / "batch_wealth.csv").exists()


@pytest.mark.parametrize("column", [3, 4])  # post_bid, post_ask
@pytest.mark.parametrize("cell", ["2", "x", "", "01", "true"])
def test_policy_csv_rejects_a_flag_other_than_0_or_1(tmp_path, default_solution, column, cell):
    _, _, policy = default_solution
    path = tmp_path / "policy.csv"
    export_policy_csv(policy, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    fields = rows[40].split(",")
    fields[column] = cell
    rows[40] = ",".join(fields)
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    name = header.split(",")[column]
    with pytest.raises(ValueError, match=f"data row 41 has {name} '{cell}', not '1' or '0'"):
        load_policy_csv(path)


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf"])
def test_simulate_rejects_a_non_finite_alpha_node(tmp_path, default_solution, spelling):
    _, _, policy = default_solution
    path = tmp_path / "policy.csv"
    export_policy_csv(policy, path)
    text = path.read_text(encoding="utf-8")
    lowest = repr(float(policy.alpha_nodes[0]))
    assert f",{lowest}," in text
    path.write_text(text.replace(f",{lowest},", f",{spelling},"), encoding="utf-8")
    with pytest.raises(ValueError, match=f"data row 1 has non-finite alpha {spelling}"):
        load_policy_csv(path)
    code = cli_main(["simulate", "--policy", str(path), "--windows", "5",
                     "--out", str(tmp_path / "run")])
    assert code == 1
    assert not (tmp_path / "run" / "batch_wealth.csv").exists()


def test_surface_fingerprint_depends_on_inputs():
    p = default_params()
    s1 = solve_dpe(p, default_grid())
    s2 = solve_dpe(replace(p, rho=1.0), default_grid())
    assert s1.params_fingerprint != s2.params_fingerprint


def _reference_shift_slice(g, idx, w):
    a = g[idx, :]
    b = g[idx + 1, :]
    out = a + w[:, None] * (b - a)
    hit = w == 1.0
    if hit.any():
        out[hit] = b[hit]
    return out


def _reference_shifts(g, alpha, params, land=True):
    """h(alpha + eps_plus) and h(alpha - eps_minus) of a slice.  When every
    row of both lands within 1e-9 of a cell of a node (and ``land``), each
    row is that node's row; otherwise each is clamped interpolation."""
    idx_p, w_p = _interp_weights(alpha, alpha + params.eps_plus)
    idx_m, w_m = _interp_weights(alpha, alpha - params.eps_minus)
    w = np.concatenate([w_p, w_m])
    if land and np.all(np.abs(w - np.rint(w)) <= 1e-9):
        return g[idx_p + np.rint(w_p).astype(int)], g[idx_m + np.rint(w_m).astype(int)]
    return _reference_shift_slice(g, idx_p, w_p), _reference_shift_slice(g, idx_m, w_m)


def _reference_posting_gains(gp, gm, params):
    half = params.delta / 2.0
    ask = np.zeros_like(gp)
    ask[:, 1:] = np.maximum(0.0, params.rho * (half + gp[:, :-1] - gp[:, 1:]))
    bid = np.zeros_like(gm)
    bid[:, :-1] = np.maximum(0.0, params.rho * (half + gm[:, 1:] - gm[:, :-1]))
    return ask, bid


def _reference_solve(params, grid, land=True):
    """The march with one numpy expression per term of the scheme, as
    solve_dpe evaluated it before it ran in place on preallocated buffers:
    the oracle for solve_dpe's h, byte for byte.  With ``land=False`` every
    jump is interpolated, even where all of them land on nodes: the
    measure of how far taking the landing rows moves h."""
    alpha = alpha_grid(grid)
    q = np.arange(-params.q_max, params.q_max + 1)
    da = grid.alpha_max / ((grid.n_alpha - 1) // 2)

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
            with np.errstate(over="ignore", invalid="ignore"):
                d1[1:-1] = (g[2:] - g[:-2]) / (2.0 * da)
                d1[0] = (g[1] - g[0]) / da
                d1[-1] = (g[-1] - g[-2]) / da
                d2[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / da**2
                d2[0] = (g[2] - 2.0 * g[1] + g[0]) / da**2
                d2[-1] = (g[-3] - 2.0 * g[-2] + g[-1]) / da**2

                gp, gm = _reference_shifts(g, alpha, params, land)
                gain_ask, gain_bid = _reference_posting_gains(gp, gm, params)

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
    return h


@st.composite
def _solver_inputs(draw):
    """Small grids with every branch of the shift and the gains reachable:
    whole-cell jumps on both sides (the landing rows' gather), jumps that
    hit a node (weight exactly 1.0) or pass the last node (the clamp),
    unequal jumps, rho at both ends, and no market orders."""
    n_alpha = 2 * draw(st.integers(5, 20)) + 1
    alpha_max = draw(st.sampled_from([0.02, 0.04]))
    grid = SolverGrid(alpha_min=-alpha_max, alpha_max=alpha_max, n_alpha=n_alpha,
                      substeps=draw(st.integers(1, 4)))
    half_cells = (n_alpha - 1) // 2
    da = alpha_max / half_cells
    eps = st.one_of(
        st.integers(0, half_cells).map(lambda j: j * da),
        st.floats(0.0, alpha_max + da),
    )
    intensity = st.one_of(st.just(0.0), st.floats(0.0, 1.5))
    n_dt = draw(st.integers(1, 6))
    dt = draw(st.sampled_from([0.25, 1.0]))
    params = replace(
        default_params(),
        q_max=draw(st.integers(1, 4)),
        n_dt=n_dt,
        dt=dt,
        horizon=n_dt * dt,
        rho=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        lambda_plus=draw(intensity),
        lambda_minus=draw(intensity),
        eps_plus=draw(eps),
        eps_minus=draw(eps),
        zeta=draw(st.floats(0.0, 0.2)),
        eta=draw(st.floats(0.0, 0.003)),
        phi=draw(st.sampled_from([0.0, 1e-4])),
        varphi=draw(st.sampled_from([0.0, 0.01])),
    )
    return params, grid


@settings(max_examples=100, deadline=None)
@given(inputs=_solver_inputs(), seed=st.integers(0, 2**32 - 1))
def test_jump_shift_is_bitwise_the_reference_interpolation(inputs, seed):
    # values spread over many decades, so that a + 1.0 (b - a) is often not b
    # and a row that hits a node must take b itself
    params, grid = inputs
    alpha = alpha_grid(grid)
    n_q = 2 * params.q_max + 1
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((alpha.size, n_q)) * 10.0 ** rng.integers(-8, 9, (alpha.size, n_q))
    got = _JumpShift(alpha, params, n_q)(g, out=np.empty((2 * alpha.size, n_q)))
    want = np.concatenate(_reference_shifts(g, alpha, params))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(half_cells=st.integers(5, 30), alpha_max=st.sampled_from([0.02, 0.04, 0.1]),
       k_plus=st.integers(0, 62), k_minus=st.integers(0, 62), seed=st.integers(0, 2**32 - 1))
def test_jump_shift_on_an_aligned_grid_is_the_node_row_gather(half_cells, alpha_max, k_plus,
                                                              k_minus, seed):
    # jumps of whole cells, zero included, and up to past the far end, so
    # that rows clamp at both ends
    n = 2 * half_cells + 1
    alpha = alpha_grid(SolverGrid(alpha_min=-alpha_max, alpha_max=alpha_max, n_alpha=n))
    da = alpha_max / half_cells
    params = replace(default_params(), eps_plus=k_plus * da, eps_minus=k_minus * da, q_max=3)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-8, 9, (n, 7))
    shift = _JumpShift(alpha, params, 7)
    assert shift.lands
    got = shift(g, out=np.empty((2 * n, 7)))
    rows = np.arange(n)
    want = np.concatenate([g[np.minimum(rows + k_plus, n - 1)], g[np.maximum(rows - k_minus, 0)]])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(inputs=_solver_inputs())
def test_march_is_bitwise_the_reference_scheme(inputs):
    params, grid = inputs
    try:
        want = _reference_solve(params, grid)
    except UnstableSchemeError as err:
        with pytest.raises(UnstableSchemeError) as got:
            solve_dpe(params, grid)
        assert got.value.t_index == err.t_index
        return
    assert solve_dpe(params, grid).h.tobytes() == want.tobytes()


def test_march_is_bitwise_the_reference_on_the_default_config():
    params, grid = default_params(), default_grid()
    assert solve_dpe(params, grid).h.tobytes() == _reference_solve(params, grid).tobytes()


def _reference_policy(h, alpha, params, land=True):
    half = params.delta / 2.0
    post_ask = np.zeros(h.shape, dtype=bool)
    post_bid = np.zeros(h.shape, dtype=bool)
    for k, g in enumerate(h):
        gp, gm = _reference_shifts(g, alpha, params, land)
        post_ask[k, :, 1:] = half + params.rho * (gp[:, :-1] - gp[:, 1:]) > 0
        post_bid[k, :, :-1] = half + params.rho * (gm[:, 1:] - gm[:, :-1]) > 0
    return post_ask, post_bid


@pytest.mark.parametrize("n_alpha,substeps", [(41, 2), (81, 4)])
def test_aligned_grid_gather_stays_within_rounding_of_the_interpolation(n_alpha, substeps):
    # eps = 0.002 is 1 cell on 41 nodes and 2 on 81: taking the node rows
    # moves h by rounding alone and flips no posting decision; the default
    # 51-node grid (1.25 cells) keeps interpolating
    params = default_params()
    grid = replace(default_grid(), n_alpha=n_alpha, substeps=substeps)
    alpha = alpha_grid(grid)
    assert _JumpShift(alpha, params, 1).lands
    assert not _JumpShift(alpha_grid(default_grid()), params, 1).lands
    surface = solve_dpe(params, grid)
    interpolated = _reference_solve(params, grid, land=False)
    assert np.abs(surface.h - interpolated).max() <= 1e-12 * np.abs(interpolated).max()
    policy = extract_policy(surface, params)
    post_ask, post_bid = _reference_policy(interpolated, alpha, params, land=False)
    assert np.array_equal(policy.post_ask, post_ask)
    assert np.array_equal(policy.post_bid, post_bid)


def _unstable_step(params, grid):
    with pytest.raises(UnstableSchemeError) as err:
        _reference_solve(params, grid)
    return err.value.t_index


def test_instability_is_reported_at_the_reference_step():
    p = replace(default_params(), eta=0.05)
    grid = replace(default_grid(), substeps=1)
    want = _unstable_step(p, grid)
    assert want < p.n_dt - 1  # some steps pass first, so the index is not trivially the first
    with pytest.raises(UnstableSchemeError) as err:
        solve_dpe(p, grid)
    assert err.value.t_index == want


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(0.05, 0.2),
    n_alpha=st.integers(10, 20).map(lambda k: 2 * k + 1),
    rho=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 1.0),
    eps=st.floats(0.0, 0.004),
)
def test_drawn_instability_is_reported_at_the_reference_step(eta, n_alpha, rho, lam, eps):
    p = replace(default_params(), eta=eta, rho=rho, lambda_plus=lam, eps_minus=eps,
                n_dt=300, horizon=300.0)
    grid = replace(default_grid(), n_alpha=n_alpha, substeps=1)
    want = _unstable_step(p, grid)
    with pytest.raises(UnstableSchemeError) as err:
        solve_dpe(p, grid)
    assert err.value.t_index == want
