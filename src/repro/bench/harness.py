"""Experiment harness: result containers, table formatting, shape checks.

Every experiment module produces an :class:`ExperimentResult` whose rows
mirror a table or figure of the paper.  Absolute numbers live in virtual
seconds on a simulated cluster and are not expected to match the paper;
the *shape checks* assert the relationships that should reproduce (who
wins, what grows, where it flattens).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

#: Top-level sections of ``BENCH_perf.json``, one per bench writer.
BENCH_SECTIONS = ("live",)


def merge_bench_json(json_path: str,
                     updates: dict[str, Any]) -> dict[str, Any]:
    """Read-modify-write merge of ``updates`` into the shared benchmark
    JSON file — the one place every bench writer goes through, so no
    writer can clobber a sibling's section again.

    Section writers (``merge_bench_json(path, {"live": report})``) keep
    every previous top-level key that ``updates`` does not name.  A
    missing or unparsable file merges as empty.

    The written file always carries a *neutral* root: ``"bench":
    "merged"`` with per-writer provenance under ``"sections"`` (each
    known section's own ``bench`` id is indexed by its section name) —
    the merged artifact never masquerades as one writer's report.
    Returns the merged payload as written.
    """
    try:
        with open(json_path, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, json.JSONDecodeError):
        previous = {}
    prev_sections = previous.get("sections")
    sections = dict(prev_sections) if isinstance(prev_sections, dict) \
        else {}
    payload = dict(previous)
    payload.update(updates)
    payload.pop("sections", None)
    for name in BENCH_SECTIONS:
        entry = payload.get(name)
        if isinstance(entry, dict) and entry.get("bench"):
            sections[name] = entry["bench"]
    payload["bench"] = "merged"
    if sections:
        payload["sections"] = sections
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


@dataclass
class ShapeCheck:
    """One qualitative assertion about an experiment's outcome."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - formatting
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}"
                                          if self.detail else "")


@dataclass
class ExperimentResult:
    """Rows reproducing one table/figure, plus its shape checks."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: str = ""
    #: Raw side data (e.g. time series) for downstream experiments.
    extras: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(name, bool(passed), detail))

    @property
    def all_checks_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def table(self) -> str:
        """Plain-text aligned table of the rows."""
        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        header = [str(c) for c in self.columns]
        body = [[fmt(row.get(c)) for c in self.columns]
                for row in self.rows]
        widths = [max(len(header[i]),
                      *(len(line[i]) for line in body)) if body
                  else len(header[i])
                  for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for line in body:
            lines.append("  ".join(cell.ljust(w)
                                   for cell, w in zip(line, widths)))
        return "\n".join(lines)

    def report(self) -> str:
        parts = [f"== {self.experiment}: {self.title} ==", self.table()]
        if self.notes:
            parts.append(f"note: {self.notes}")
        for check in self.checks:
            parts.append(str(check))
        return "\n".join(parts)


def percentile(values: Iterable[float], q: float = 99.0) -> float:
    data = list(values)
    if not data:
        return 0.0
    return float(np.percentile(data, q))


def flattens(values: list[float], knee: int,
             early_factor: float = 2.0) -> bool:
    """True if the improvement before ``knee`` dwarfs the one after it."""
    if knee <= 0 or knee >= len(values) - 1:
        return False
    early_gain = values[0] - values[knee]
    late_gain = values[knee] - values[-1]
    return early_gain > early_factor * max(late_gain, 0.0)
