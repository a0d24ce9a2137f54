"""Paper-vs-measured reporting.

Each benchmark records the quantities the paper reports (speedups, latencies,
crossovers) as :class:`ExperimentRecord` rows in a :class:`ReportCollector`;
the collector can render them as the tables that populate ``EXPERIMENTS.md``.
Records are also written to a JSON file so a benchmark session can be
post-processed without re-running it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.bench.harness import format_table


@dataclass
class ExperimentRecord:
    """One paper-vs-measured comparison row."""

    experiment: str
    quantity: str
    paper_value: str
    measured_value: str
    matches_shape: bool
    note: str = ""


@dataclass
class ReportCollector:
    """Accumulates experiment records for one benchmark session."""

    records: list[ExperimentRecord] = field(default_factory=list)

    def add(
        self,
        experiment: str,
        quantity: str,
        paper_value: str,
        measured_value: str,
        *,
        matches_shape: bool,
        note: str = "",
    ) -> ExperimentRecord:
        record = ExperimentRecord(
            experiment=experiment,
            quantity=quantity,
            paper_value=paper_value,
            measured_value=measured_value,
            matches_shape=matches_shape,
            note=note,
        )
        self.records.append(record)
        return record

    def for_experiment(self, experiment: str) -> list[ExperimentRecord]:
        return [r for r in self.records if r.experiment == experiment]

    # ------------------------------------------------------------- rendering
    def to_markdown(self) -> str:
        """Render all records as a GitHub-flavoured markdown table."""
        lines = [
            "| Experiment | Quantity | Paper | Measured (simulated) | Shape holds | Note |",
            "|---|---|---|---|---|---|",
        ]
        for record in self.records:
            lines.append(
                f"| {record.experiment} | {record.quantity} | {record.paper_value} | "
                f"{record.measured_value} | {'yes' if record.matches_shape else 'NO'} | "
                f"{record.note} |"
            )
        return "\n".join(lines)

    def to_text(self) -> str:
        """Render all records as a fixed-width text table (printed by benches)."""
        return format_table(
            ["experiment", "quantity", "paper", "measured", "shape"],
            [
                (
                    record.experiment,
                    record.quantity,
                    record.paper_value,
                    record.measured_value,
                    "yes" if record.matches_shape else "NO",
                )
                for record in self.records
            ],
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(record) for record in self.records], indent=2))
        return path

    @classmethod
    def load(cls, path: Path | str) -> "ReportCollector":
        records = [ExperimentRecord(**item) for item in json.loads(Path(path).read_text())]
        return cls(records=records)

    def merge(self, others: Iterable["ReportCollector"]) -> "ReportCollector":
        for other in others:
            self.records.extend(other.records)
        return self

    @property
    def all_shapes_hold(self) -> bool:
        """True when every recorded comparison preserved the paper's shape."""
        return all(record.matches_shape for record in self.records)


#: Module-level collector the benchmark modules share within one pytest run.
GLOBAL_REPORT = ReportCollector()


def global_report() -> ReportCollector:
    """The shared collector (one per pytest session)."""
    return GLOBAL_REPORT
