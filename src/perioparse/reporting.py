"""Report and chart-data emitters for evaluation results.

The text table mirrors the familiar grid: dimensions as rows with
macro/weighted sub-rows, sites as columns under each metric, two-decimal
rounding. CSV and JSON carry full precision. Chart payloads are plain JSON
arrays any plotting tool can consume. The text table, the CSV, the bar chart
and the CLI summary read one walk over the averages, `average_rows`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from .evaluation import ConfusionMatrix, LearningCurve, MetricsTable
from .model import REPORT_FORMATS, Dimension

DIMENSION_TITLES = {dim: dim.value for dim in Dimension} | {Dimension.STATUS: "Periodontal status"}

_METRIC_ATTRS = (("Precision", "precision"), ("Recall", "recall"), ("F1-score", "f1"))


def json_text(obj) -> str:
    """The JSON text every emitter writes: two-space indent, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def average_rows(tables: list[MetricsTable]):
    """(site, dimension title, average name, PRF or None) in report order."""
    for table in tables:
        for dm in table.dimensions:
            for avg_name, prf in (("macro", dm.macro), ("weighted", dm.weighted)):
                yield table.site, DIMENSION_TITLES[dm.dimension], avg_name, prf


def _fmt(value: float | None) -> str:
    return f"{value:.2f}" if value is not None else "-"


def render_text_table(tables: list[MetricsTable]) -> str:
    label_width = max(map(len, ["  Weighted", *DIMENSION_TITLES.values()]))
    col = max([8] + [len(t.site) + 2 for t in tables])
    group_width = col * len(tables)
    header1 = " " * label_width + "".join(name.center(group_width) for name, _ in _METRIC_ATTRS)
    header2 = " " * label_width + "".join(t.site.rjust(col) for _ in _METRIC_ATTRS for t in tables)
    lines = [header1.rstrip(), header2.rstrip()]

    # (title, average) -> {table position: PRF or None}, rows in the order first met
    rows: dict[tuple[str, str], dict] = {}
    for position, table in enumerate(tables):
        for _, title, avg_name, prf in average_rows([table]):
            rows.setdefault((title, avg_name), {})[position] = prf
    for (title, avg_name), prfs in rows.items():
        if avg_name == "macro":
            lines.append(title)
        cells = [
            _fmt(None if prfs[i] is None else getattr(prfs[i], attr)).rjust(col)
            for _, attr in _METRIC_ATTRS
            for i in range(len(tables))
        ]
        lines.append(f"  {avg_name.capitalize()}".ljust(label_width) + "".join(cells))
    return "\n".join(lines) + "\n"


def render_csv(tables: list[MetricsTable]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["site", "dimension", "average", "precision", "recall", "f1"])
    for site, title, avg_name, prf in average_rows(tables):
        values = ["", "", ""] if prf is None else [repr(getattr(prf, a)) for _, a in _METRIC_ATTRS]
        writer.writerow([site, title, avg_name, *values])
    return buffer.getvalue()


def _prf_obj(prf) -> dict | None:
    return None if prf is None else {"p": prf.precision, "r": prf.recall, "f1": prf.f1}


def tables_to_obj(tables: list[MetricsTable]) -> list[dict]:
    return [
        {
            "site": table.site,
            "dimension": DIMENSION_TITLES[dm.dimension],
            "classes": [dataclasses.asdict(m) for m in dm.classes],
            "macro": _prf_obj(dm.macro),
            "weighted": _prf_obj(dm.weighted),
        }
        for table in tables
        for dm in table.dimensions
    ]


def bar_chart_data(tables: list[MetricsTable]) -> dict:
    """Grouped-bar payload: one bar per (dimension, site, metric, average)."""
    bars = [
        {"dimension": title, "site": site, "average": avg_name, "metric": attr,
         "value": getattr(prf, attr)}
        for site, title, avg_name, prf in average_rows(tables)
        if prf is not None
        for _, attr in _METRIC_ATTRS
    ]
    return {"chart": "grouped_bar", "bars": bars}


def confusion_chart_data(matrices_by_site: dict[str, dict[Dimension, ConfusionMatrix]]) -> dict:
    """Matrix-grid payload: classes and integer cell grid per site and dimension."""
    out = []
    for site, matrices in sorted(matrices_by_site.items()):
        for dim, matrix in matrices.items():
            out.append(
                {
                    "site": site,
                    "dimension": DIMENSION_TITLES[dim],
                    "classes": list(matrix.classes),
                    "cells": matrix.grid(),
                }
            )
    return {"chart": "confusion_matrices", "matrices": out}


def learning_curve_to_obj(curve: LearningCurve) -> dict:
    return {
        "step": curve.step,
        "dimension": DIMENSION_TITLES[curve.dimension],
        "stabilization_size": curve.stabilization_size,
        "points": [
            {
                "size": size,
                "weighted_f1": {
                    DIMENSION_TITLES[dim]: value for dim, value in f1s.items()
                },
            }
            for size, f1s in curve.points
        ],
    }


# The renderer of each report file, by the extension `REPORT_FORMATS` gives its format.
_RENDERERS = {
    "txt": render_text_table,
    "csv": render_csv,
    "json": lambda tables: json_text(tables_to_obj(tables)),
}


def render_report(tables: list[MetricsTable], format: str = "text-table") -> str:
    """The metrics grid in the requested format; unknown names raise."""
    if format not in REPORT_FORMATS:
        raise ValueError(
            f"unsupported report format {format!r}; expected one of {tuple(REPORT_FORMATS)}"
        )
    return _RENDERERS[REPORT_FORMATS[format]](tables)
