"""Exact simulator and numerical toolkit for spatial multiple-merger
coalescents on finite graphs and d-dimensional tori.

Modules:
    measure     -- finite measures on [0,1] and integration against them
    rates       -- coalescence rate tables, inequalities, classification
    geometry    -- graphs, tori, random-walk Green function, limit constant
    engine      -- event-driven simulation of the labeled partition chain
    experiments -- Monte Carlo experiments and statistical comparisons
    cli         -- config ingestion, dispatch, manifests
"""

__version__ = "0.2.0"
