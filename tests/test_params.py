import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.params import (
    ConfigParseError,
    ValidationError,
    default_grid,
    default_params,
    load_config,
    render_config,
    stationary_alpha_std,
    validate,
)


def test_defaults_match_reference_values():
    p = default_params()
    assert p.sigma == 0.005
    assert p.zeta == 0.05
    assert p.eta == 0.001
    assert p.eps_plus == 0.002 and p.eps_minus == 0.002
    assert p.lambda_plus == 0.5833 and p.lambda_minus == 0.5833
    assert p.delta == 0.01
    assert p.varphi == 0.01
    assert p.phi == 0.0
    assert p.rho == 0.2
    assert p.q_max == 7
    assert p.horizon == 120.0 and p.dt == 1.0 and p.n_dt == 120
    assert p.nu == 0.0
    assert p.n_dt * p.dt == p.horizon


def test_defaults_validate_clean():
    assert validate(default_params(), default_grid()) == []


def test_default_grid_spans_stationary_alpha():
    p = default_params()
    sd = stationary_alpha_std(p)
    assert sd == pytest.approx(0.0075, abs=5e-4)
    assert default_grid().alpha_max >= 5 * sd


@pytest.mark.parametrize(
    "change,expected",
    [
        ({"rho": 1.5}, "RhoOutOfRange"),
        ({"rho": -0.1}, "RhoOutOfRange"),
        ({"delta": -0.01}, "SpreadNonPositive"),
        ({"delta": 0.0}, "SpreadNonPositive"),
        ({"sigma": -1.0}, "NegativeParameter"),
        ({"q_max": 0}, "NegativeParameter"),
        ({"dt": 0.5}, "InconsistentHorizon"),
        # an integer field must hold an integer, not a float or a string
        ({"q_max": 2.5}, "NegativeParameter: q_max = 2.5 must be an integer"),
        ({"q_max": "7"}, "NegativeParameter: q_max = '7' must be an integer"),
        ({"n_dt": 120.0}, "NegativeParameter: n_dt = 120.0 must be an integer"),
        ({"n_dt": "120"}, "NegativeParameter: n_dt = '120' must be an integer"),
    ],
)
def test_validate_flags_each_invariant(change, expected):
    problems = validate(replace(default_params(), **change), default_grid())
    assert problems, "expected at least one problem"
    assert any(expected in msg for msg in problems)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["dt", "horizon", "sigma"])
def test_validate_says_a_non_finite_value_must_be_finite(name, value):
    problems = validate(replace(default_params(), **{name: value}), default_grid())
    assert f"NegativeParameter: {name} = {value!r} must be finite" in problems
    assert not any(" must be >" in p for p in problems)


@pytest.mark.parametrize(
    "change,expected",
    [
        ({"alpha_min": -0.04, "alpha_max": 0.05}, "GridAsymmetric"),
        ({"n_alpha": 50}, "GridTooCoarse"),
        ({"n_alpha": 9}, "GridTooCoarse"),
        ({"substeps": 0}, "GridTooCoarse"),
        ({"n_alpha": 51.0}, "GridTooCoarse: n_alpha = 51.0 must be an integer"),
        ({"n_alpha": "51"}, "GridTooCoarse: n_alpha = '51' must be an integer"),
        ({"substeps": 2.5}, "GridTooCoarse: substeps = 2.5 must be an integer"),
        ({"substeps": "2"}, "GridTooCoarse: substeps = '2' must be an integer"),
    ],
)
def test_validate_flags_grid_problems(change, expected):
    grid = replace(default_grid(), **change)
    problems = validate(default_params(), grid)
    assert any(expected in msg for msg in problems)


@given(
    sigma=st.floats(allow_nan=True, allow_infinity=True),
    rho=st.floats(allow_nan=True, allow_infinity=True),
    delta=st.floats(allow_nan=True, allow_infinity=True),
    q_max=st.integers(min_value=-10, max_value=10),
)
def test_validate_is_total(sigma, rho, delta, q_max):
    params = replace(default_params(), sigma=sigma, rho=rho, delta=delta, q_max=q_max)
    problems = validate(params, default_grid())
    assert isinstance(problems, list)
    bad = (
        not math.isfinite(sigma) or sigma < 0
        or not math.isfinite(rho) or not 0 <= rho <= 1
        or not math.isfinite(delta) or delta <= 0
        or q_max < 1
    )
    assert bad == bool(problems)


def test_load_config_empty_gives_defaults():
    params, grid = load_config("")
    assert params == default_params()
    assert grid == default_grid()


def test_load_config_single_override():
    params, grid = load_config("rho = 1.0\n")
    assert params == replace(default_params(), rho=1.0)
    assert grid == default_grid()


def test_load_config_rejects_invalid_value():
    with pytest.raises(ValidationError) as err:
        load_config("delta = -0.01\n")
    assert any("SpreadNonPositive" in p for p in err.value.problems)


def test_load_config_rejects_unknown_key():
    with pytest.raises(ConfigParseError, match="unknown key"):
        load_config("spread = 0.01\n")


def test_load_config_rejects_duplicate_and_garbage():
    with pytest.raises(ConfigParseError, match="duplicate"):
        load_config("rho = 0.2\nrho = 0.3\n")
    with pytest.raises(ConfigParseError, match="expected"):
        load_config("just some words\n")
    with pytest.raises(ConfigParseError, match="bad value"):
        load_config("rho = fast\n")


def test_load_config_comments_and_blanks():
    text = "# full line comment\n\nrho = 0.5  # trailing comment\n"
    params, _ = load_config(text)
    assert params.rho == 0.5


def test_load_config_derives_step_count_from_dt():
    params, _ = load_config("dt = 0.5\n")
    assert params.n_dt == 240
    assert params.n_dt * params.dt == params.horizon


@pytest.mark.parametrize("text, expected", [
    ("horizon = 1e308\ndt = 1e-308\n", "InconsistentHorizon"),
    ("horizon = inf\n", "horizon = inf"),
])
def test_load_config_reports_an_overflowing_step_count(text, expected):
    with pytest.raises(ValidationError) as err:
        load_config(text)
    assert any(expected in p for p in err.value.problems)


def test_validate_reports_an_n_dt_past_the_float_range():
    """n_dt * dt overflows converting n_dt to a float; validate reports the
    horizon rather than raising, and so does load_config."""
    problems = validate(replace(default_params(), n_dt=10**400), default_grid())
    assert problems == ["InconsistentHorizon: n_dt * dt = inf does not equal horizon = 120.0"]
    with pytest.raises(ValidationError) as err:
        load_config("n_dt = 1" + "0" * 400 + "\n")
    assert any("InconsistentHorizon" in p for p in err.value.problems)


def test_render_round_trips_defaults():
    params, grid = default_params(), default_grid()
    assert load_config(render_config(params, grid)) == (params, grid)


@given(
    rho=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    sigma=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    eta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    q_max=st.integers(min_value=1, max_value=25),
    n_alpha=st.integers(min_value=5, max_value=60).map(lambda k: 2 * k + 1),
)
@settings(max_examples=50)
def test_render_round_trips_arbitrary_valid_sets(rho, sigma, eta, q_max, n_alpha):
    params = replace(default_params(), rho=rho, sigma=sigma, eta=eta, q_max=q_max)
    grid = replace(default_grid(), n_alpha=n_alpha)
    assert load_config(render_config(params, grid)) == (params, grid)


def test_market_params_is_immutable():
    p = default_params()
    with pytest.raises(AttributeError):
        p.rho = 0.9
