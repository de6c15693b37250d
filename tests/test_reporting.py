import csv
import hashlib
import io
import json

import pytest
from test_evaluation import evaluate_site

from perioparse.evaluation import (
    DimensionMetrics,
    MetricsTable,
    PRF,
    build_confusion,
)
from perioparse.model import (
    DIMENSIONS,
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Subtype,
)
from perioparse.reporting import (
    bar_chart_data,
    confusion_chart_data,
    learning_curve_to_obj,
    render_report,
)

P = PeriodontalStatus.PERIODONTITIS


def paper_style_tables():
    """Fixture tables carrying published-style numbers for render checks."""

    def dim(dimension, macro, weighted):
        return DimensionMetrics(dimension, (), PRF(*macro), PRF(*weighted))

    site1 = MetricsTable(
        "Site 1",
        (
            dim(Dimension.STATUS, (0.96, 0.96, 0.96), (0.97, 0.96, 0.96)),
            dim(Dimension.STAGE, (0.99, 0.97, 0.98), (0.98, 0.98, 0.98)),
            dim(Dimension.GRADE, (0.99, 0.96, 0.97), (0.98, 0.98, 0.98)),
            dim(Dimension.EXTENT, (0.93, 0.91, 0.92), (0.93, 0.92, 0.92)),
            dim(Dimension.SUBTYPE, (0.96, 0.84, 0.88), (0.95, 0.95, 0.95)),
        ),
    )
    site2 = MetricsTable(
        "Site 2",
        (
            dim(Dimension.STATUS, (0.92, 0.96, 0.94), (0.96, 0.95, 0.95)),
            dim(Dimension.STAGE, (0.99, 0.95, 0.97), (0.98, 0.97, 0.97)),
            dim(Dimension.GRADE, (0.99, 0.95, 0.97), (0.98, 0.98, 0.98)),
            dim(Dimension.EXTENT, (0.87, 0.79, 0.81), (0.86, 0.85, 0.84)),
            dim(Dimension.SUBTYPE, (0.98, 0.99, 0.98), (0.99, 0.99, 0.99)),
        ),
    )
    return [site1, site2]


def test_text_table_grid_layout_and_rounding():
    text = render_report(paper_style_tables(), "text-table")
    lines = text.splitlines()
    assert "Precision" in lines[0] and "Recall" in lines[0] and "F1-score" in lines[0]
    assert lines[1].count("Site 1") == 3 and lines[1].count("Site 2") == 3
    assert "Periodontal status" in text
    status_macro = next(l for i, l in enumerate(lines) if l.startswith("  Macro"))
    status_weighted = next(l for l in lines if l.startswith("  Weighted"))
    assert "0.96" in status_macro
    assert "0.97" in status_weighted  # Site 1 weighted precision
    for dim_name in ("Stage", "Grade", "Extent", "Subtype"):
        assert any(l.startswith(dim_name) for l in lines)


def _uniform_table(site, score):
    prf = PRF(score, score, score)
    return MetricsTable(site, tuple(DimensionMetrics(d, (), prf, prf) for d in DIMENSIONS))


def test_text_table_gives_each_table_its_own_column_under_one_site_name():
    text = render_report([_uniform_table("Site 1", 0.1), _uniform_table("Site 1", 0.9)], "text-table")
    rows = [line.split()[1:] for line in text.splitlines()[2:] if line.startswith("  ")]
    assert rows == [["0.10", "0.90"] * 3] * 10


def test_text_table_matches_rows_by_dimension_not_position():
    site1, site2 = paper_style_tables()
    reordered = MetricsTable(site2.site, site2.dimensions[::-1])
    expected = render_report([site1, site2], "text-table")
    assert render_report([site1, reordered], "text-table") == expected
    with pytest.raises(KeyError):
        render_report([site1, MetricsTable(site2.site, site2.dimensions[1:])], "text-table")


def test_empty_tables_render_header_only():
    text = render_report([], "text-table")
    assert "Precision" in text
    assert "Macro" not in text


def test_unsupported_format_rejected():
    with pytest.raises(ValueError, match="markdown"):
        render_report([], "markdown")


def test_csv_is_rfc4180_and_full_precision():
    text = render_report(paper_style_tables(), "csv")
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["site", "dimension", "average", "precision", "recall", "f1"]
    assert len(rows) == 1 + 2 * 5 * 2  # header + sites x dimensions x (macro, weighted)
    assert ["Site 1", "Periodontal status", "weighted", "0.97", "0.96", "0.96"] == rows[2]


def test_json_report_shape_and_cross_format_consistency():
    tables = paper_style_tables()
    payload = json.loads(render_report(tables, "json"))
    assert len(payload) == 10
    first = payload[0]
    assert set(first) == {"site", "dimension", "classes", "macro", "weighted"}
    assert set(first["macro"]) == {"p", "r", "f1"}
    text = render_report(tables, "text-table")
    for entry in payload:
        assert f"{entry['weighted']['f1']:.2f}" in text


def test_json_includes_class_rows_from_real_evaluation():
    gold = {f"n-{i}": DiagnosisRecord(P, Stage.II, Grade.A) for i in range(4)}
    _, table = evaluate_site(gold, dict(gold), site="s")
    payload = json.loads(render_report([table], "json"))
    stage_entry = next(e for e in payload if e["dimension"] == "Stage")
    ii = next(c for c in stage_entry["classes"] if c["value"] == "II")
    assert ii["support"] == 4 and ii["f1"] == 1.0


def test_bar_chart_data():
    data = bar_chart_data(paper_style_tables())
    assert data["chart"] == "grouped_bar"
    assert len(data["bars"]) == 2 * 5 * 2 * 3  # sites x dims x averages x metrics
    sample = data["bars"][0]
    assert set(sample) == {"dimension", "site", "average", "metric", "value"}


def test_confusion_chart_data():
    matrix = build_confusion([("II", "II"), ("II", "III")], Dimension.STAGE)
    data = confusion_chart_data({"Site 1": {Dimension.STAGE: matrix}})
    (entry,) = data["matrices"]
    assert entry["site"] == "Site 1"
    assert entry["classes"] == ["I", "II", "III", "IV", "N/A"]
    assert entry["cells"][1][1] == 1 and entry["cells"][1][2] == 1


def test_learning_curve_serialization():
    from perioparse.evaluation import LearningCurve

    curve = LearningCurve(
        step=30,
        dimension=Dimension.STATUS,
        points=((30, {Dimension.STATUS: 0.9}), (60, {Dimension.STATUS: 0.95})),
        stabilization_size=None,
    )
    obj = learning_curve_to_obj(curve)
    assert obj["step"] == 30
    assert obj["stabilization_size"] is None
    assert obj["points"][0] == {"size": 30, "weighted_f1": {"Periodontal status": 0.9}}


def scored_tables():
    """Three sites scored by `evaluate_corpus`, so the JSON report carries class rows."""
    G = PeriodontalStatus.GINGIVITIS
    gold = {
        "a": DiagnosisRecord(P, Stage.III, Grade.B, Extent.GENERALIZED),
        "b": DiagnosisRecord(P, Stage.II, Grade.A, Extent.LOCALIZED),
        "c": DiagnosisRecord(G, subtype=Subtype.INTACT_PERIODONTIUM),
        "d": DiagnosisRecord(P, Stage.IV, Grade.C),
    }
    pred = {
        "a": DiagnosisRecord(P, Stage.III, Grade.B, Extent.LOCALIZED),
        "b": DiagnosisRecord(P, Stage.III, Grade.A, Extent.LOCALIZED),
        "c": DiagnosisRecord(G),
        "d": None,
    }
    _, site1 = evaluate_site(gold, pred, site="Site 1")
    _, site2 = evaluate_site(gold, gold, site="Site 2")
    # no gold stage, grade, extent or subtype: those averages are absent
    _, site3 = evaluate_site({"e": DiagnosisRecord(G)}, {"e": gold["a"]}, site="Site 3")
    return [site1, site2, site3]


# sha256 of each rendered report; a change to these bytes is a change of output.
_REPORT_SHA256 = {
    ("paper", "text-table"): "ea639417a908f6504ce1a5ba878d9b15b2c900e46a88563ab002cc328107c005",
    ("paper", "csv"): "d750976437d4d806ea36d6c046d347bd921c997a7921a2eeada7a26804a093f6",
    ("paper", "json"): "f7a89fb6fa0fbdcbed4e1f98a48bcd0a3c13f8b0d683517941150ec132c72617",
    ("scored", "text-table"): "62996740efeddf51e0bb0f80b2d241acbfb983c14b76ab982dac2522fb8a01ae",
    ("scored", "csv"): "2f459f7dc241881833c62033a85f961263014a34dcb5ca4de5c43077deebb734",
    ("scored", "json"): "e6eec028f8a492436f1b6220f040fea354d9841ba7b5088e46adbb7825ea27dd",
}


@pytest.mark.parametrize("fixture, fmt", sorted(_REPORT_SHA256))
def test_report_bytes_are_pinned(fixture, fmt):
    tables = {"paper": paper_style_tables, "scored": scored_tables}[fixture]()
    text = render_report(tables, fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _REPORT_SHA256[fixture, fmt]


_BAR_CHART_SHA256 = {
    "paper": "2352049bfb009b6c60d0e09d0b8b7893999078a388d68fb580df6d4ef8e4bed5",
    "scored": "07507fd8983c75f325756d0ee8f08ddc5793ddae0b8d623cc7de9c20615eb16f",
}


@pytest.mark.parametrize("fixture", sorted(_BAR_CHART_SHA256))
def test_bar_chart_bytes_are_pinned(fixture):
    tables = {"paper": paper_style_tables, "scored": scored_tables}[fixture]()
    text = json.dumps(bar_chart_data(tables), indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _BAR_CHART_SHA256[fixture]
