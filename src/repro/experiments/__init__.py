"""Programmatic experiment runners for the paper's studies.

The ``benchmarks/`` suite prints the paper's tables under pytest; this
package exposes the same studies as plain library calls returning typed
results, so downstream users can re-run them at any scale, on their own
traces, from scripts or the CLI (``python -m repro experiment ...``).

* :func:`run_tradeoff` — Fig. 2 (efficiency vs renegotiation interval);
* :func:`run_sigma_rho` — Fig. 5 (the (sigma, rho) curve);
* :func:`run_smg` — Fig. 6 (per-stream capacity under the three scenarios);
* :func:`run_mbac_comparison` — Figs. 7-8 + the memory fix (Section VI).
"""

from repro.experiments.runners import (
    TradeoffPoint,
    TradeoffResult,
    run_tradeoff,
    SigmaRhoResult,
    run_sigma_rho,
    SmgPoint,
    SmgResult,
    run_smg,
    MbacPoint,
    MbacResult,
    run_mbac_comparison,
)

__all__ = [
    "TradeoffPoint",
    "TradeoffResult",
    "run_tradeoff",
    "SigmaRhoResult",
    "run_sigma_rho",
    "SmgPoint",
    "SmgResult",
    "run_smg",
    "MbacPoint",
    "MbacResult",
    "run_mbac_comparison",
]
