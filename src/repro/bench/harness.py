"""Measurement and formatting helpers shared by the benchmarks."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def trimean(values: Sequence[float]) -> float:
    """Tukey's trimean, the statistic Fig. 7 reports: (Q1 + 2·median + Q3) / 4."""
    if not len(values):
        raise ValueError("trimean of an empty sequence")
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float((q1 + 2.0 * median + q3) / 4.0)


def format_us(seconds: float) -> str:
    """Seconds rendered as microseconds with thousands separators."""
    return f"{seconds * 1e6:,.1f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table (what the benchmark harness prints).

    Every cell is rendered with ``str``; numeric alignment is the caller's
    responsibility (pre-format floats).
    """
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rendered
    ]
    return "\n".join([line, separator, *body])

