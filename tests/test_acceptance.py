"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them inline).
"""

import itertools
import random
import time

from oracles import (
    expand_cells_to_pairs,
    legal_records,
    oracle_adjudicate,
    oracle_metrics_from_pairs,
)
from test_llm import MockEndpoint, config_for

from perioparse.corpus import AnnotationSource
from perioparse.demo import demo_seed_templates
from perioparse.evaluation import (
    NA,
    ConfusionMatrix,
    all_class_metrics,
    averages,
    detect_stabilization,
    evaluate_corpus,
)
from perioparse.extraction import (
    extract_entities,
    extract_statements,
    reconstruct,
    tokenize,
)
from perioparse.llm import GenerationError, generate_llm
from perioparse.model import (
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    GuidelineVersion,
    PeriodontalStatus,
    Stage,
)
from perioparse.normalization import (
    adjudicate,
    classify_guideline_version,
    infer_status_context,
)
from perioparse.reporting import render_report
from perioparse.synthesis import PerturbationSpec, generate_offline
from perioparse.corpus import split_corpus

P = PeriodontalStatus.PERIODONTITIS


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _extract_predictions(notes, mode):
    predicted = []
    for n in notes:
        record = adjudicate(
            infer_status_context(extract_statements(n.note.text, mode))
        )
        predicted.append(
            n.with_(record=record, annotation_source=AnnotationSource.PREDICTED)
        )
    return predicted


def test_criterion_1_table_fixture_rendering():
    # Paper-scale metrics are not reproducible (source notes carry PHI);
    # published values serve only as report-rendering fixtures.
    def check():
        from test_reporting import paper_style_tables

        text = render_report(paper_style_tables(), "text-table")
        lines = text.splitlines()
        status_macro = next(l for l in lines if l.startswith("  Macro"))
        status_weighted = next(l for l in lines if l.startswith("  Weighted"))
        assert status_macro.split()[1] == "0.96"
        assert status_weighted.split()[1] == "0.97"

    _report(1, "published metrics used only as report-rendering fixtures", check)


def test_criterion_2_synthesis_count_invariant():
    def check():
        start = time.monotonic()
        templates = demo_seed_templates(15)
        assert len(templates) == 45
        notes = generate_offline(templates, variants_per_template=10)
        assert len(notes) == 450
        manifest = split_corpus(notes, ratios=(0.8, 0.1, 0.1), seed=7)
        assert manifest.sizes() == (360, 45, 45)
        assert time.monotonic() - start < 5.0

    _report(2, "45 templates x 10 variants -> 450 notes split 360/45/45", check)


def test_criterion_3_clean_corpus_exactness():
    def check():
        start = time.monotonic()
        notes = generate_offline(demo_seed_templates(15), 10)
        assert len(notes) >= 450
        predicted = _extract_predictions(notes, "strict")
        ((_, table),) = evaluate_corpus(notes, predicted).values()
        for dm in table.dimensions:
            assert dm.weighted is not None, dm.dimension
            assert dm.weighted.f1 == 1.0, dm.dimension
        assert time.monotonic() - start < 10.0

    _report(3, "clean corpus: weighted F1 = 1.00 on all five dimensions", check)


def test_criterion_4_perturbed_corpus_robustness():
    def check():
        spec = PerturbationSpec(
            typo_rate=0.15,
            informal_format_rate=0.15,
            anchor_variation_rate=0.15,
            multi_diagnosis_rate=0.15,
            distractor_extent_rate=0.15,
            rng_seed=42,
        )
        notes = generate_offline(demo_seed_templates(15), 10, spec)
        predicted = _extract_predictions(notes, "informal")
        ((_, table),) = evaluate_corpus(notes, predicted).values()
        f1 = {
            dm.dimension: dm.weighted.f1 if dm.weighted else 0.0
            for dm in table.dimensions
        }
        assert f1[Dimension.STATUS] >= 0.95, f1
        assert f1[Dimension.STAGE] >= 0.95, f1
        assert f1[Dimension.GRADE] >= 0.95, f1
        assert f1[Dimension.EXTENT] >= 0.85, f1

    _report(4, "perturbed corpus: F1 >= 0.95 status/stage/grade, >= 0.85 extent", check)


def test_criterion_5_discussion_fixture_suite():
    def check():
        spans = [
            (s.dimension, s.value, s.raw_text)
            for s in extract_entities(
                "D: Localized Periodontitis Stage I Grade A with Generalized Recession"
            )
        ]
        assert spans == [
            (Dimension.EXTENT, Extent.LOCALIZED, "Localized"),
            (Dimension.STATUS, P, "Periodontitis"),
            (Dimension.STAGE, Stage.I, "I"),
            (Dimension.GRADE, Grade.A, "A"),
        ]

        def record_of(text, mode="strict"):
            return adjudicate(infer_status_context(extract_statements(text, mode)))

        multi = "D: Localized Periodontitis Stage I Grade A and Generalized Periodontitis Stage II Grade B"
        assert record_of(multi) == DiagnosisRecord(
            P, Stage.II, Grade.B, Extent.GENERALIZED
        )

        mixed = "D- Localized Periodontitis Stage I Grade A and Generalized Gingivitis"
        assert record_of(mixed) == DiagnosisRecord(P, Stage.I, Grade.A, Extent.LOCALIZED)

        initial = "Generalized Stage 3 Grade B"
        assert record_of(initial) == DiagnosisRecord(
            P, Stage.III, Grade.B, Extent.GENERALIZED
        )

        informal = "Generalized III B"
        assert record_of(informal, "strict") is None
        assert record_of(informal, "informal") == DiagnosisRecord(
            P, Stage.III, Grade.B, Extent.GENERALIZED
        )

    _report(5, "discussion fixtures produce exactly the specified outputs", check)


def test_criterion_6_metrics_oracle_equivalence():
    def check():
        start = time.monotonic()
        rng = random.Random(4242)
        for trial in range(1000):
            n_classes = rng.randint(2, 6)
            classes = tuple(f"c{i}" for i in range(n_classes - 1)) + (NA,)
            matrix = ConfusionMatrix(Dimension.STAGE, classes)
            cells = {}
            big = trial % 2 == 0
            for g in classes:
                for p in classes:
                    if rng.random() < 0.5:
                        continue
                    count = rng.randint(0, 10_000 if big else 40)
                    cells[(g, p)] = count
                    matrix.add(g, p, count)
            metrics = all_class_metrics(matrix)
            macro, weighted = averages(metrics)
            if big:
                # recompute straight from the cells with independent loops
                pairs = None
                oracle, o_macro, o_weighted = _oracle_from_cells(cells, classes)
            else:
                pairs = expand_cells_to_pairs(classes, cells)
                oracle, o_macro, o_weighted = oracle_metrics_from_pairs(pairs, classes)
            for m in metrics:
                o = oracle[m.value]
                assert (m.tp, m.fp, m.fn, m.support) == (
                    o["tp"], o["fp"], o["fn"], o["support"],
                )
                assert abs(m.precision - o["precision"]) <= 1e-12
                assert abs(m.recall - o["recall"]) <= 1e-12
                assert abs(m.f1 - o["f1"]) <= 1e-12
            if o_macro is None:
                assert macro is None and weighted is None
            else:
                for got, expected in zip(
                    (macro.precision, macro.recall, macro.f1), o_macro
                ):
                    assert abs(got - expected) <= 1e-12
                for got, expected in zip(
                    (weighted.precision, weighted.recall, weighted.f1), o_weighted
                ):
                    assert abs(got - expected) <= 1e-12
        assert time.monotonic() - start < 5.0

    _report(6, "metrics match brute-force oracle within 1e-12 on 1000 matrices", check)


def _oracle_from_cells(cells, classes):
    per_class = {}
    for c in classes:
        if c == NA:
            continue
        tp = cells.get((c, c), 0)
        fp = sum(cells.get((g, c), 0) for g in classes if g != c)
        fn = sum(cells.get((c, p), 0) for p in classes if p != c)
        support = sum(cells.get((c, p), 0) for p in classes)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[c] = {
            "tp": tp, "fp": fp, "fn": fn, "support": support,
            "precision": precision, "recall": recall, "f1": f1,
        }
    scored = [c for c in per_class if per_class[c]["support"] > 0]
    if not scored:
        return per_class, None, None
    macro = tuple(
        sum(per_class[c][k] for c in scored) / len(scored)
        for k in ("precision", "recall", "f1")
    )
    total = sum(per_class[c]["support"] for c in scored)
    weighted = tuple(
        sum(per_class[c][k] * per_class[c]["support"] for c in scored) / total
        for k in ("precision", "recall", "f1")
    )
    return per_class, macro, weighted


def test_criterion_7_adjudication_oracle_equivalence():
    def check():
        start = time.monotonic()
        records = legal_records()
        assert len(records) == 76
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(records, size):
                expected = oracle_adjudicate(list(combo))
                assert adjudicate(list(combo)) == expected
                if size > 1:
                    for perm in itertools.permutations(combo):
                        assert adjudicate(list(perm)) == expected
        assert time.monotonic() - start < 30.0

    _report(7, "adjudication matches lattice-max oracle on all multisets <= 3", check)


def test_criterion_8_learning_curve_harness():
    def check():
        sizes = list(range(30, 451, 30))
        values = [1 - 6 / n for n in sizes]
        # independent oracle: closed-form deltas, first index with two small ones
        deltas = [6 / n - 6 / (n + 30) for n in sizes[:-1]]
        analytic = next(
            sizes[k]
            for k in range(len(deltas) - 1)
            if deltas[k] < 0.01 and deltas[k + 1] < 0.01
        )
        assert detect_stabilization(sizes, values, epsilon=0.01, window=2) == analytic
        assert analytic == 150

        constant = [0.9] * len(sizes)
        assert detect_stabilization(sizes, constant, epsilon=0.01, window=2) == sizes[0]

    _report(8, "stabilization detector matches analytic curve and constant curve", check)


def test_criterion_9_tokenizer_round_trip_bulk():
    def check():
        rng = random.Random(99)
        pools = (
            "abcdefgh XYZ 0123",
            " \t\n\r ",
            ".,;:!?-()[]{}/\\\"'",
            "périodôntite çédille ñ ü ß",
            "歯周病の検査を行った",
            "🦷😀🪥",
            "áë",  # combining marks
        )
        for _ in range(100_000):
            pool = rng.choice(pools)
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 24)))
            tokens = tokenize(text)
            assert reconstruct(text, tokens) == text

    _report(9, "tokenizer reconstructs 100k random unicode strings byte-exactly", check)


def test_criterion_10_llm_client_conformance(monkeypatch):
    def check():
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        templates = demo_seed_templates(2)  # 6 templates
        endpoint = MockEndpoint()
        try:
            notes = generate_llm(templates, config_for(endpoint, variants_per_template=10))
            assert len(notes) == 60
            assert len(endpoint.bodies) == 60
            per_template = {}
            for body in endpoint.bodies:
                prompt = body["messages"][0]["content"]
                per_template[prompt] = per_template.get(prompt, 0) + 1
                assert body["temperature"] == 1.0
                assert body["top_p"] == 1.0
            assert set(per_template.values()) == {10}
        finally:
            endpoint.close()

        failing = MockEndpoint(fail_with=500)
        try:
            config = config_for(
                failing, variants_per_template=1, retry_limit=3, max_concurrent_requests=1
            )
            try:
                generate_llm(templates[:1], config)
                raise AssertionError("expected GenerationError")
            except GenerationError:
                pass
            assert len(failing.bodies) == 4  # initial + 3 retries
        finally:
            failing.close()

    _report(10, "mock endpoint sees 10 requests/template with temperature=top_p=1", check)


def test_criterion_11_guideline_classifier_exhaustive():
    def check():
        for record in legal_records():
            got = classify_guideline_version(record)
            if record.status is not P:
                assert got is GuidelineVersion.NOT_APPLICABLE
            elif record.stage is not None and record.grade is not None:
                assert got is GuidelineVersion.CURRENT_2018
            else:
                assert got is GuidelineVersion.LEGACY

    _report(11, "guideline version classifier exhaustive over legal records", check)
