"""Market-making posting optimizer with fill-realistic backtesting.

Solves the reduced dynamic-programming equation for binary best-bid/ask
posting under a non-adverse fill probability, then backtests the policy in
two environments: a benchmark that fills every matched order and ignores
adverse selection, and an improved one that forces a fill whenever the
quote trades through a posted order and thins the rest by the fill
probability.
"""

from .basic_poster import run_basic_posting, run_example1
from .dynamics import RngStream
from .fills import EnvMode
from .market_data import parse_lob_csv, resample_forward_fill, synthetic_quotes, trade_size_stats
from .params import default_grid, default_params
from .reporting import summarize_fills, terminal_cash_histogram
from .simulator import run_batch, run_simulation
from .solver import extract_policy, solve_dpe

__version__ = "0.1.0"
