"""Evaluation harness: regenerates every table and figure of paper §5.

(The package is named ``evalx`` to avoid shadowing the builtin ``eval``.)
"""

from .casestudy import (
    figure1_chain,
    figure3,
    figure8,
    render_table4,
    render_table5,
    render_table6,
    table3,
    table4,
    table5,
    table6,
)
from .drift import DriftRow, drift_rows, render_drift_table
from .figures import figure6, figure7, render_figures
from .paperdata import (FIGURE6, FIGURE7, PAPER_TOTAL_PAIRS, TABLE1,
                        TABLE2, TIMING, row_for)
from .runner import (
    AppEvaluation,
    clear_cache,
    evaluate_app,
    render_phase_table,
)
from .syntheval import (
    SynthAppScore,
    SynthFamilyScore,
    render_synth_table,
    score_app,
    score_population,
)
from .table1 import generate_table1, render_table1, row_for_app, total_pairs
from .table2 import render_table2, table2
from .traces import count_trace, summarize_trace

__all__ = [name for name in dir() if not name.startswith("_")]
