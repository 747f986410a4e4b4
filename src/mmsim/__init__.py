"""Market-making posting optimizer with fill-realistic backtesting.

Solves the reduced dynamic-programming equation for binary best-bid/ask
posting under a non-adverse fill probability, then backtests the policy in
two environments: a benchmark that fills every matched order and ignores
adverse selection, and an improved one that forces a fill whenever the
quote trades through a posted order and thins the rest by the fill
probability.
"""

from .basic_poster import (
    FillLog,
    FillTypeSummary,
    OFFSET_TICKS_PRESETS,
    RestingOrder,
    fill_type_table,
    queue_fill_check,
    run_basic_posting,
    run_example1,
)
from .dynamics import (
    MOArrivals,
    PathState,
    RngStream,
    SyntheticPath,
    round_to_tick,
    sample_mo_arrivals,
    simulate_synthetic_path,
    step_alpha,
    step_midprice,
)
from .fills import (
    EnvMode,
    EnvVariant,
    FillCounters,
    FillEvent,
    FillKind,
    Side,
    accumulate,
    classify_fill,
    detect_adverse_fills,
    sample_nonadverse_fill,
    step_fills,
)
from .market_data import (
    LOBBook,
    PriceSeries,
    TradeStats,
    parse_lob_csv,
    render_lob_csv,
    resample_forward_fill,
    synthetic_quotes,
    trade_size_stats,
)
from .params import (
    MarketParams,
    SolverGrid,
    default_grid,
    default_params,
    load_config,
    render_config,
    validate,
)
from .reporting import Histogram, summarize_fills, terminal_cash_histogram
from .simulator import (
    BatchResult,
    SimResult,
    run_batch,
    run_simulation,
    terminal_wealth,
    update_cash,
    update_inventory,
)
from .solver import (
    PostingPolicy,
    ValueSurface,
    extract_policy,
    interp_alpha,
    reconstruct_value,
    solve_dpe,
    terminal_condition,
)

__version__ = "0.1.0"
