"""Model constants and solver settings.

All quantities are in price units, lots and seconds.  A configuration file is
flat UTF-8 text, one ``key = value`` pair per line, ``#`` starts a comment,
and keys must match the field names of :class:`MarketParams` or
:class:`SolverGrid` exactly.  Unknown keys are rejected.

The ladder's contract presets live here too: the CLI needs them before it
knows which command's modules to load (``basic_poster`` re-exports the
ladder spacings).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

__all__ = [
    "MarketParams",
    "SolverGrid",
    "ConfigParseError",
    "ValidationError",
    "OFFSET_TICKS_PRESETS",
    "TICK_PRESETS",
    "default_params",
    "default_grid",
    "validate",
    "load_config",
    "render_config",
]


@dataclass(frozen=True)
class MarketParams:
    """Market-model constants.

    sigma        midprice volatility, price units per sqrt(second)
    nu           long-term midprice drift, price units per second
    zeta         mean-reversion rate of the short-term drift, 1/second
    eta          diffusion volatility of the short-term drift
    eps_plus     upward drift jump per arriving buy market order
    eps_minus    downward drift jump per arriving sell market order
    lambda_plus  buy market-order intensity, 1/second
    lambda_minus sell market-order intensity, 1/second
    delta        bid-ask spread
    varphi       terminal inventory penalty, price units per lot^2
    phi          running inventory penalty, price units per lot^2 per second
    rho          probability that an eligible resting order is filled
                 non-adversely, in [0, 1]
    q_max        inventory bound in lots (position stays in [-q_max, q_max])
    horizon      strategy window length, seconds
    dt           simulation step, seconds
    n_dt         steps per window (n_dt * dt == horizon)
    """

    sigma: float = 0.005
    nu: float = 0.0
    zeta: float = 0.05
    eta: float = 0.001
    eps_plus: float = 0.002
    eps_minus: float = 0.002
    lambda_plus: float = 0.5833
    lambda_minus: float = 0.5833
    delta: float = 0.01
    varphi: float = 0.01
    phi: float = 0.0
    rho: float = 0.2
    q_max: int = 7
    horizon: float = 120.0
    dt: float = 1.0
    n_dt: int = 120


@dataclass(frozen=True)
class SolverGrid:
    """Discretization of the short-term-drift axis and solver substepping.

    The grid is ``n_alpha`` evenly spaced nodes on [-alpha_max, alpha_max],
    an odd count so that alpha = 0 is a node.  ``substeps`` explicit
    substeps are taken per dt to keep the scheme stable.  A grid on which
    the drift jump is not a whole number of cells is admitted, but there
    the interpolated jump overstates ``h``: 81 nodes on +-0.05 (eps 1.6
    cells) give h(0,0,0) = 0.81782, against 0.777263 on 51 nodes and
    0.775242 on 101 nodes at 8 substeps, where the jump lands on a node.
    """

    alpha_max: float = 0.05
    n_alpha: int = 51
    substeps: int = 2

    @property
    def cell(self) -> float:
        """The node spacing, alpha_max over the nodes on either side of 0."""
        return self.alpha_max / ((self.n_alpha - 1) // 2)


def default_params() -> MarketParams:
    """Baseline parameter set used throughout the package."""
    return MarketParams()


def default_grid() -> SolverGrid:
    """Grid wide enough to hold ~6.6 stationary standard deviations of alpha."""
    return SolverGrid()


def stationary_alpha_std(params: MarketParams) -> float:
    """Stationary standard deviation of the mean-reverting drift process."""
    if params.zeta <= 0:
        return math.inf
    var_rate = (
        params.eta**2
        + params.lambda_plus * params.eps_plus**2
        + params.lambda_minus * params.eps_minus**2
    )
    return math.sqrt(var_rate / (2.0 * params.zeta))


class ConfigParseError(ValueError):
    """Raised for malformed or unknown configuration entries."""


class ValidationError(ValueError):
    """Raised when a parameter set violates its invariants."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# Ladder spacing per contract, in ticks, for the static posting experiment,
# and each contract's published minimum tick.
OFFSET_TICKS_PRESETS = {"ES": 4, "CL": 4, "NQ": 16, "ZN": 1}
TICK_PRESETS = {"ES": 0.25, "CL": 0.01, "NQ": 0.25, "ZN": 1 / 64}


def validate(params: MarketParams, grid: SolverGrid) -> list[str]:
    """Check every invariant; return a list of problems (empty means valid).

    The one config gate: ``load_config`` and the solver's march both run it.
    Never raises: any violation, including nonsensical field contents, is
    reported as an entry in the returned list.
    """
    problems: list[str] = []

    def check(code: str, name: str, value, in_range, requirement: str,
              integer: bool = False) -> bool:
        """Record a problem unless the value is finite (an integer when
        ``integer``) and in range; say which."""
        if integer and not isinstance(value, numbers.Integral):
            problems.append(f"{code}: {name} = {value!r} must be an integer")
        elif not (integer or _finite(value)):
            problems.append(f"{code}: {name} = {value!r} must be finite")
        elif not in_range(value):
            problems.append(f"{code}: {name} = {value!r} must {requirement}")
        else:
            return True
        return False

    non_negative = {
        name: check("NegativeParameter", name, getattr(params, name), lambda v: v >= 0, "be >= 0")
        for name in ("sigma", "zeta", "eta", "eps_plus", "eps_minus",
                     "lambda_plus", "lambda_minus", "phi", "varphi")
    }
    if not _finite(params.nu):
        problems.append(f"NegativeParameter: nu = {params.nu!r} must be finite")
    check("SpreadNonPositive", "delta", params.delta, lambda v: v > 0, "be > 0")
    check("RhoOutOfRange", "rho", params.rho, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
    check("NegativeParameter", "q_max", params.q_max, lambda v: v >= 1, "be >= 1", integer=True)
    dt_ok = check("NegativeParameter", "dt", params.dt, lambda v: v > 0, "be > 0")
    check("NegativeParameter", "horizon", params.horizon, lambda v: v > 0, "be > 0")
    if (check("NegativeParameter", "n_dt", params.n_dt, lambda v: v >= 1, "be >= 1", integer=True)
            and _finite(params.dt) and params.dt > 0 and _finite(params.horizon)):
        try:
            span = params.n_dt * params.dt
        except OverflowError:  # an n_dt past the float range
            span = math.inf
        if not abs(span - params.horizon) <= 1e-9 * max(1.0, params.horizon):
            problems.append(
                "InconsistentHorizon: n_dt * dt = "
                f"{span!r} does not equal horizon = {params.horizon!r}"
            )

    alpha_max_ok = check("GridAsymmetric", "alpha_max", grid.alpha_max, lambda v: v > 0, "be > 0")
    n_alpha_ok = check("GridTooCoarse", "n_alpha", grid.n_alpha, lambda v: v >= 11 and v % 2,
                       "be odd and >= 11", integer=True)
    substeps_ok = check("GridTooCoarse", "substeps", grid.substeps, lambda v: v >= 1, "be >= 1",
                        integer=True)
    if alpha_max_ok and n_alpha_ok:
        try:
            cell = grid.cell
        except OverflowError:  # an n_alpha past the float range
            cell = 0.0
        # past one cell beyond a grid end the clamped shift stops resembling the jump
        if (non_negative["eps_plus"] and non_negative["eps_minus"]
                and (jump := max(params.eps_plus, params.eps_minus)) > grid.alpha_max + cell):
            problems.append(f"GridTooCoarse: drift jump {jump!r} exceeds the grid half-width "
                            f"{grid.alpha_max!r} by more than one cell ({cell!r})")
        # r = (dt/substeps)(eta^2/cell^2 + lambda_plus + lambda_minus), a substep's
        # weight off the centre node: every grid tried with r <= 1 stayed bounded
        # and every blow-up had r > 1 (measured, not proven)
        if dt_ok and substeps_ok and all(non_negative[name] for name in
                                         ("eta", "lambda_plus", "lambda_minus")):
            try:
                need = math.ceil(params.dt * (params.eta**2 / cell**2
                                              + params.lambda_plus + params.lambda_minus))
            except (OverflowError, ZeroDivisionError):  # a cell or rate past the float range
                need = math.inf
            if need > grid.substeps:  # r > 1 exactly, substeps being an integer
                problems.append(
                    f"GridTooCoarse: substeps = {grid.substeps!r} puts the explicit step's weight "
                    "r = (dt/substeps)(eta^2/cell^2 + lambda_plus + lambda_minus) above 1; take "
                    f"substeps = ceil(dt (eta^2/cell^2 + lambda_plus + lambda_minus)) = {need!r}")

    return problems


def _finite(value: float) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


_PARAM_FIELDS = {f.name for f in fields(MarketParams)}
_GRID_FIELDS = {f.name for f in fields(SolverGrid)}
_INT_KEYS = {"q_max", "n_dt", "n_alpha", "substeps"}


def load_config(text: str) -> tuple[MarketParams, SolverGrid]:
    """Parse a key=value document; missing keys fall back to the defaults.

    ``n_dt`` is derived from horizon/dt when not given explicitly, so that a
    dt or horizon override alone keeps the parameter set consistent.  The
    result is validated and a :class:`ValidationError` raised on failure.
    """
    overrides: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARAM_FIELDS and key not in _GRID_FIELDS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc

    param_kwargs = {k: v for k, v in overrides.items() if k in _PARAM_FIELDS}
    grid_kwargs = {k: v for k, v in overrides.items() if k in _GRID_FIELDS}

    if "n_dt" not in param_kwargs and ("dt" in param_kwargs or "horizon" in param_kwargs):
        defaults = default_params()
        dt = param_kwargs.get("dt", defaults.dt)
        horizon = param_kwargs.get("horizon", defaults.horizon)
        # an overflowing ratio is left to validate, which reports it
        if dt > 0 and horizon > 0 and math.isfinite(horizon / dt):
            param_kwargs["n_dt"] = round(horizon / dt)

    params = MarketParams(**param_kwargs)
    grid = SolverGrid(**grid_kwargs)
    problems = validate(params, grid)
    if problems:
        raise ValidationError(problems)
    return params, grid


def render_config(params: MarketParams, grid: SolverGrid) -> str:
    """Serialize a parameter set and grid in the config-file format (round-trips)."""
    lines = [f"{f.name} = {getattr(obj, f.name)!r}"
             for obj in (params, grid) for f in fields(obj)]
    return "\n".join(lines) + "\n"
