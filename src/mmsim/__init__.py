"""Market-making posting optimizer with fill-realistic backtesting.

Solves the reduced dynamic-programming equation for binary best-bid/ask
posting under a non-adverse fill probability, then backtests the policy in
two environments: a benchmark that fills every matched order and ignores
adverse selection, and an improved one that forces a fill whenever the
quote trades through a posted order and thins the rest by the fill
probability.

Importing the package loads none of its modules: each exported name, and
each module, is imported on first access (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "run_basic_posting": "basic_poster",
    "run_example1": "basic_poster",
    "BatchWindow": "dynamics",
    "RngStream": "dynamics",
    "EnvMode": "fills",
    "parse_lob_csv": "market_data",
    "resample_forward_fill": "market_data",
    "synthetic_quotes": "market_data",
    "default_grid": "params",
    "default_params": "params",
    "summarize_fills": "reporting",
    "terminal_cash_histogram": "reporting",
    "run_batch": "simulator",
    "run_simulation": "simulator",
    "evaluate_policy": "solver",
    "extract_policy": "solver",
    "solve_dpe": "solver",
}
_MODULES = ("basic_poster", "cli", "dynamics", "fills", "market_data", "params",
            "reporting", "simulator", "solver", "table")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        # the import binds the module as an attribute of the package
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULES})
