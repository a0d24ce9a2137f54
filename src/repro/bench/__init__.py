"""Benchmark harness helpers.

``benchmarks/figures.py`` is the paper-vs-measured table of the evaluation
(run by ``repro figures``); this package holds what its ``bench_*`` modules
share:

* :mod:`repro.bench.harness` — the trimean Fig. 7 reports, microsecond
  formatting and the fixed-width tables the runner prints;
* :mod:`repro.bench.workloads` — the exact datatype configurations the
  figures sweep (the 15 commit configurations of Fig. 7, the 2-D objects of
  Figs. 8/10/11).
"""

from repro.bench.harness import format_table, format_us, trimean
from repro.bench.workloads import (
    Fig7Config,
    Fig8Config,
    Fig11Config,
    fig7_configurations,
    fig8_configurations,
    fig11_configurations,
)

__all__ = [
    "Fig11Config",
    "Fig7Config",
    "Fig8Config",
    "fig11_configurations",
    "fig7_configurations",
    "fig8_configurations",
    "format_table",
    "format_us",
    "trimean",
]
