"""Experiment result container and shared conventions.

Every paper artefact (figure or table) has a module exposing
``run(context) -> ExperimentResult``.  Results carry the regenerated data
(series and/or table rows), the paper's reported values for side-by-side
comparison, and a plain-text rendering.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Dict, List, Sequence, Union

from ..errors import AnalysisError
from .render import format_table

__all__ = ["ExperimentResult"]


class ExperimentResult:
    """The reproduced artefact for one figure or table."""

    def __init__(
        self,
        experiment_id: str,
        title: str,
        paper_reference: str,
    ) -> None:
        self.experiment_id = experiment_id
        self.title = title
        #: Where in the paper the artefact lives (e.g. "Figure 1, §3.1").
        self.paper_reference = paper_reference
        #: Columnar series: name -> list of values (all the same length).
        self.series: Dict[str, List] = {}
        #: Table rows (ordered dicts of column -> value).
        self.rows: List[Dict[str, object]] = []
        #: Headline scalar observations from this run.
        self.measured: Dict[str, object] = {}
        #: The paper's reported values for the same quantities.
        self.paper: Dict[str, object] = {}
        #: Free-form rendering sections appended by the experiment.
        self.sections: List[str] = []

    def add_series(self, name: str, values: Sequence) -> None:
        """Attach one named series; lengths must agree across series."""
        values = list(values)
        for existing in self.series.values():
            if len(existing) != len(values):
                raise AnalysisError(
                    f"series {name!r} length {len(values)} != {len(existing)}"
                )
        self.series[name] = values

    def add_row(self, **columns: object) -> None:
        """Append one table row."""
        self.rows.append(dict(columns))

    def comparison_rows(self) -> List[Dict[str, object]]:
        """measured-vs-paper rows for every shared scalar key.

        Structured entries (dicts, e.g. ``table2``'s per-issuer ``rates``)
        are not comparable against paper scalars and are skipped here;
        :meth:`render` prints them as their own section.
        """
        rows = []
        for key in self.measured:
            if isinstance(self.measured[key], dict):
                continue
            rows.append(
                {
                    "metric": key,
                    "measured": self.measured[key],
                    "paper": self.paper.get(key, "—"),
                }
            )
        return rows

    def as_payload(self) -> Dict[str, object]:
        """The machine-readable payload.

        This is the stable per-experiment shape inside the versioned
        :class:`~repro.api.spec.QueryResult` envelope: identity fields
        plus every series column, table row, and measured/paper scalar.
        """
        from ..api.spec import jsonify

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "series": jsonify(self.series),
            "rows": jsonify(self.rows),
            "measured": jsonify(self.measured),
            "paper": jsonify(self.paper),
            "sections": list(self.sections),
        }

    def write_csv(self, directory: Union[str, pathlib.Path]) -> List[pathlib.Path]:
        """Export the result as CSV files for downstream plotting.

        Writes ``<id>_series.csv`` (one column per series) and/or
        ``<id>_rows.csv`` (the table rows), plus ``<id>_comparison.csv``
        with the paper-vs-measured scalars.  Returns the written paths.
        """
        target = pathlib.Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: List[pathlib.Path] = []

        if self.series:
            path = target / f"{self.experiment_id}_series.csv"
            columns = list(self.series)
            length = len(next(iter(self.series.values())))
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns)
                for row_index in range(length):
                    writer.writerow(
                        [self.series[column][row_index] for column in columns]
                    )
            written.append(path)

        if self.rows:
            path = target / f"{self.experiment_id}_rows.csv"
            columns = list(self.rows[0])
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.DictWriter(handle, fieldnames=columns)
                writer.writeheader()
                writer.writerows(self.rows)
            written.append(path)

        if self.measured:
            path = target / f"{self.experiment_id}_comparison.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["metric", "measured", "paper"])
                for row in self.comparison_rows():
                    writer.writerow([row["metric"], row["measured"], row["paper"]])
            written.append(path)

        return written

    def render(self) -> str:
        """Human-readable text output (what the benches print)."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"   ({self.paper_reference})",
            "",
        ]
        if self.rows:
            headers = list(self.rows[0])
            lines.append(
                format_table(headers, [[row.get(h, "") for h in headers] for row in self.rows])
            )
            lines.append("")
        if self.measured:
            comparison = self.comparison_rows()
            if comparison:
                lines.append("paper vs measured:")
                lines.append(
                    format_table(
                        ["metric", "measured", "paper"],
                        [
                            [row["metric"], row["measured"], row["paper"]]
                            for row in comparison
                        ],
                    )
                )
                lines.append("")
            for key, value in self.measured.items():
                if isinstance(value, dict):
                    lines.append(f"{key}:")
                    lines.extend(
                        f"  {subkey}: {subvalue}"
                        for subkey, subvalue in value.items()
                    )
                    lines.append("")
        lines.extend(self.sections)
        return "\n".join(lines)
