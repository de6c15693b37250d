import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _field_label, legal_records, oracle_learning_curve, oracle_metrics_from_pairs
from perioparse import evaluation
from perioparse.corpus import AnnotatedNote, Note
from perioparse.evaluation import (
    NA,
    all_class_metrics,
    averages,
    build_confusion,
    class_metrics,
    detect_stabilization,
    dimension_classes,
    evaluate_corpus,
    learning_curve,
)
from perioparse.model import (
    DIMENSIONS,
    FIELD_NAMES,
    LEGAL_RECORDS,
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
)

P = PeriodontalStatus.PERIODONTITIS
FULL = DiagnosisRecord(P, Stage.III, Grade.B, Extent.GENERALIZED)


def _corpus(records, site):
    return [AnnotatedNote(note=Note(nid, site, "x"), record=r) for nid, r in records.items()]


def evaluate_site(gold, pred, site="site1"):
    """`evaluate_corpus` on one site's gold and predicted records, keyed by note id."""
    [(matrices, table)] = evaluate_corpus(_corpus(gold, site), _corpus(pred, site)).values()
    return matrices, table


# --------------------------------------------------------------------------
# one note's label pairs

def _label_pairs(gold, pred):
    """Each dimension's one (gold, predicted) label pair, read from a one-note corpus's matrices."""
    matrices, _ = evaluate_site({"n-0": gold}, {"n-0": pred})
    pairs = {}
    for dimension, matrix in matrices.items():
        [(pair, count)] = matrix.counts.items()
        assert count == 1
        pairs[dimension] = pair
    return pairs


def test_identical_records_match_on_all_dimensions():
    pairs = _label_pairs(FULL, FULL)
    assert len(pairs) == 5
    assert all(g == p for g, p in pairs.values())


def test_extent_confusion_pair():
    gold = DiagnosisRecord(P, extent=Extent.LOCALIZED)
    pred = DiagnosisRecord(P, extent=Extent.GENERALIZED)
    assert _label_pairs(gold, pred)[Dimension.EXTENT] == ("Localized", "Generalized")


def test_false_positive_pair_uses_na():
    gold = DiagnosisRecord(P)
    pred = DiagnosisRecord(P, grade=Grade.B)
    assert _label_pairs(gold, pred)[Dimension.GRADE] == (NA, "B")


def test_an_illegal_record_is_labelled_by_its_fields():
    bad = DiagnosisRecord(PeriodontalStatus.GINGIVITIS, stage=Stage.I)  # gingivitis has no stage
    assert evaluation._labels(bad)[DIMENSIONS.index(Dimension.STAGE)] == "I"
    assert _label_pairs(bad, None)[Dimension.STAGE] == ("I", NA)
    matrices, _ = evaluate_site({"a": bad}, {"a": bad})
    assert matrices[Dimension.STAGE].counts == {("I", "I"): 1}


def test_absent_records_are_na_everywhere():
    assert evaluation._labels(None) == (NA,) * 5
    pairs = _label_pairs(None, None)
    assert all(pair == (NA, NA) for pair in pairs.values())


# --------------------------------------------------------------------------
# confusion matrices

def test_diagonal_matrix():
    matrix = build_confusion([("III", "III")] * 10, Dimension.STAGE)
    assert matrix.cell("III", "III") == 10
    assert sum(map(sum, matrix.grid())) == 10
    for g in matrix.classes:
        for p in matrix.classes:
            if (g, p) != ("III", "III"):
                assert matrix.cell(g, p) == 0


def test_hand_tallied_matrix():
    pairs = [("Localized", "Generalized")] * 2 + [("Generalized", "Generalized")] * 3 + [
        (NA, NA)
    ] * 5
    matrix = build_confusion(pairs, Dimension.EXTENT)
    assert matrix.cell("Localized", "Generalized") == 2
    assert matrix.cell("Generalized", "Generalized") == 3
    assert matrix.cell(NA, NA) == 5
    gold_support = dict(zip(matrix.classes, map(sum, matrix.grid())))  # row sums
    assert gold_support == {"Localized": 2, "Generalized": 3, NA: 5}


def test_empty_matrix():
    matrix = build_confusion([], Dimension.GRADE)
    assert sum(map(sum, matrix.grid())) == 0
    assert all(matrix.cell(g, p) == 0 for g in matrix.classes for p in matrix.classes)


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        build_confusion([("V", "I")], Dimension.STAGE)


def test_classes_include_na_last():
    assert dimension_classes(Dimension.STATUS) == (
        "Periodontitis",
        "Gingivitis",
        "Health",
        NA,
    )
    assert dimension_classes(Dimension.STAGE) == ("I", "II", "III", "IV", NA)
    assert dimension_classes(Dimension.GRADE) == ("A", "B", "C", NA)
    assert dimension_classes(Dimension.EXTENT) == ("Localized", "Generalized", NA)
    assert dimension_classes(Dimension.SUBTYPE) == (
        "Intact Periodontium",
        "Reduced Periodontium, Stable Periodontitis",
        "Reduced Periodontium, Non-Periodontitis",
        NA,
    )


# --------------------------------------------------------------------------
# class metrics and averages

def test_perfect_class():
    matrix = build_confusion([("I", "I")] * 5, Dimension.STAGE)
    m = class_metrics(matrix, "I")
    assert (m.tp, m.fp, m.fn) == (5, 0, 0)
    assert m.precision == m.recall == m.f1 == 1.0


def test_arithmetic_example():
    # TP=8, FP=2, FN=1
    pairs = [("I", "I")] * 8 + [("II", "I")] * 2 + [("I", "II")]
    matrix = build_confusion(pairs, Dimension.STAGE)
    m = class_metrics(matrix, "I")
    assert (m.tp, m.fp, m.fn) == (8, 2, 1)
    assert m.precision == pytest.approx(0.800, abs=5e-4)
    assert m.recall == pytest.approx(0.889, abs=5e-4)
    assert m.f1 == pytest.approx(0.842, abs=5e-4)


def test_empty_class_scores_zero():
    matrix = build_confusion([], Dimension.STAGE)
    m = class_metrics(matrix, "I")
    assert (m.precision, m.recall, m.f1, m.support) == (0.0, 0.0, 0.0, 0)


def test_na_is_not_scoreable():
    matrix = build_confusion([], Dimension.STAGE)
    with pytest.raises(ValueError):
        class_metrics(matrix, NA)


def test_averages_worked_example():
    pairs = [("I", "I")] * 3 + [("II", "II")] + [("II", "I")]
    # class I: P=3/4, R=1; class II: P=1, R=1/2
    matrix = build_confusion(pairs, Dimension.STAGE)
    metrics = all_class_metrics(matrix)
    macro, weighted = averages(metrics)
    f1_i = 2 * 0.75 * 1.0 / 1.75
    f1_ii = 2 * 1.0 * 0.5 / 1.5
    assert macro.f1 == pytest.approx((f1_i + f1_ii) / 2, abs=1e-12)
    assert weighted.f1 == pytest.approx((3 * f1_i + 2 * f1_ii) / 5, abs=1e-12)


def test_averages_simple_f1_fixture():
    # F1 1.0 with support 3 and F1 0.5 with support 1
    pairs = [("A", "A")] * 3 + [("B", "C"), (NA, "B")]
    matrix = build_confusion(pairs, Dimension.GRADE)
    metrics = all_class_metrics(matrix)
    by_class = {m.value: m for m in metrics}
    assert by_class["A"].f1 == 1.0 and by_class["A"].support == 3
    assert by_class["B"].f1 == 0.0
    macro, weighted = averages([by_class["A"], by_class["B"]])
    assert macro.f1 == pytest.approx(0.5)
    assert weighted.f1 == pytest.approx(0.75)


def test_single_class_macro_equals_weighted():
    matrix = build_confusion([("I", "I"), ("I", "II")], Dimension.STAGE)
    metrics = [class_metrics(matrix, "I")]
    macro, weighted = averages(metrics)
    assert macro == weighted


def test_empty_class_list_yields_absent_averages():
    assert averages([]) == (None, None)
    matrix = build_confusion([(NA, NA)] * 4, Dimension.STAGE)
    assert averages(all_class_metrics(matrix)) == (None, None)


def random_pairs(rng, n_classes, n_pairs):
    classes = list(dimension_classes(Dimension.STAGE))[: n_classes - 1] + [NA]
    return [(rng.choice(classes), rng.choice(classes)) for _ in range(n_pairs)], classes


def test_metrics_match_pairwise_oracle_on_random_inputs():
    rng = random.Random(77)
    for _ in range(300):
        pairs, _ = random_pairs(rng, rng.randint(2, 5), rng.randint(0, 60))
        matrix = build_confusion(pairs, Dimension.STAGE)
        metrics = all_class_metrics(matrix)
        oracle, o_macro, o_weighted = oracle_metrics_from_pairs(
            pairs, matrix.classes
        )
        for m in metrics:
            o = oracle[m.value]
            assert (m.tp, m.fp, m.fn, m.support) == (
                o["tp"],
                o["fp"],
                o["fn"],
                o["support"],
            )
            assert math.isclose(m.f1, o["f1"], abs_tol=1e-12)
        macro, weighted = averages(metrics)
        if o_macro is None:
            assert macro is None and weighted is None
        else:
            assert math.isclose(macro.f1, o_macro[2], abs_tol=1e-12)
            assert math.isclose(weighted.precision, o_weighted[0], abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    supports=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    equal_support=st.integers(min_value=1, max_value=30),
)
def test_equal_supports_make_macro_equal_weighted(supports, equal_support):
    stages = ["I", "II", "III", "IV"]
    pairs = []
    rng = random.Random(equal_support)
    for c in stages[: len(supports)]:
        for _ in range(equal_support):
            pairs.append((c, rng.choice(stages)))
    matrix = build_confusion(pairs, Dimension.STAGE)
    macro, weighted = averages(all_class_metrics(matrix))
    assert math.isclose(macro.f1, weighted.f1, abs_tol=1e-12)
    assert math.isclose(macro.precision, weighted.precision, abs_tol=1e-12)


def test_harmonic_mean_bounds():
    rng = random.Random(101)
    for _ in range(200):
        pairs, _ = random_pairs(rng, 4, rng.randint(1, 50))
        matrix = build_confusion(pairs, Dimension.STAGE)
        for m in all_class_metrics(matrix):
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.recall <= 1.0
            assert 0.0 <= m.f1 <= 1.0
            if m.precision > 0 and m.recall > 0:
                assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


def test_note_order_does_not_change_metrics():
    rng = random.Random(3)
    gold = {}
    pred = {}
    for i in range(40):
        gold[f"n-{i}"] = rng.choice([FULL, DiagnosisRecord(P, Stage.I), None])
        pred[f"n-{i}"] = rng.choice([FULL, DiagnosisRecord(P, Stage.I), None])
    _, table1 = evaluate_site(gold, pred)
    shuffled_ids = list(gold)
    rng.shuffle(shuffled_ids)
    _, table2 = evaluate_site(
        {k: gold[k] for k in shuffled_ids}, {k: pred[k] for k in shuffled_ids}
    )
    assert table1 == table2


def test_mismatched_id_sets_rejected():
    with pytest.raises(ValueError, match="n-2"):
        evaluate_site({"n-1": FULL, "n-2": FULL}, {"n-1": FULL})


def test_perfect_predictions_score_one_everywhere():
    gold = {f"n-{i}": FULL for i in range(10)}
    matrices, table = evaluate_site(gold, dict(gold))
    for dm in table.dimensions:
        if dm.weighted is None:
            continue
        assert dm.weighted.f1 == 1.0 and dm.macro.f1 == 1.0
    for matrix in matrices.values():
        for g in matrix.classes:
            for p in matrix.classes:
                if g != p:
                    assert matrix.cell(g, p) == 0


# --------------------------------------------------------------------------
# learning curve

def test_constant_curve_stabilizes_at_first_point():
    sizes = [30, 60, 90, 120]
    assert detect_stabilization(sizes, [0.9, 0.9, 0.9, 0.9], 0.01, 2) == 30


def test_synthetic_inverse_curve_stabilization():
    sizes = list(range(30, 451, 30))
    values = [1 - 6 / n for n in sizes]
    # analytic deltas: 180 / (n * (n + 30)) < 0.01 first holds at n=150
    deltas = [180 / (n * (n + 30)) for n in sizes[:-1]]
    analytic = next(
        sizes[k]
        for k in range(len(deltas) - 1)
        if deltas[k] < 0.01 and deltas[k + 1] < 0.01
    )
    assert analytic == 150
    assert detect_stabilization(sizes, values, 0.01, 2) == 150


def test_never_stabilizing_curve():
    sizes = [30, 60, 90, 120]
    values = [0.1, 0.5, 0.1, 0.5]
    assert detect_stabilization(sizes, values, 0.01, 2) is None


@pytest.mark.parametrize("window", [0, -2])
def test_window_below_one_rejected(window):
    # with no window check these returned 30 and 90, though no delta is below epsilon
    with pytest.raises(ValueError, match="window"):
        detect_stabilization([30, 60, 90, 120], [0.1, 0.5, 0.9, 0.2], 0.01, window)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_epsilon_not_finite_and_positive_rejected(epsilon):
    # before this check 0, -1 and nan never stabilized and inf stabilized at once
    with pytest.raises(ValueError, match="epsilon"):
        detect_stabilization([30, 60, 90], [0.9, 0.9, 0.9], epsilon, 1)
    notes = _pool([FULL] * 4)
    with pytest.raises(ValueError, match="epsilon"):
        learning_curve(notes, {n.note.note_id: FULL for n in notes}, 2, epsilon)


def test_learning_curve_sizes_and_prefix_determinism():
    from perioparse.corpus import AnnotatedNote, Note

    notes = [
        AnnotatedNote(note=Note(f"n-{i}", "site1", "x"), record=FULL) for i in range(450)
    ]
    preds = {n.note.note_id: FULL for n in notes}
    curve = learning_curve(notes, preds, step=30, seed=5)
    assert [size for size, _ in curve.points] == list(range(30, 451, 30))
    assert curve.stabilization_size == 30  # constant perfect curve
    again = learning_curve(notes, preds, step=30, seed=5)
    assert curve == again


def test_learning_curve_pool_smaller_than_step():
    from perioparse.corpus import AnnotatedNote, Note

    notes = [AnnotatedNote(note=Note("n-1", "site1", "x"), record=FULL)]
    with pytest.raises(ValueError):
        learning_curve(notes, {"n-1": FULL}, step=30)


def _pool(records):
    return [AnnotatedNote(note=Note(f"n-{i}", "site1", "x"), record=r) for i, r in enumerate(records)]


def _count_record_labels(monkeypatch):
    calls = []
    real = evaluation._labels
    monkeypatch.setattr(evaluation, "_labels", lambda r: calls.append(r) or real(r))
    return calls


def test_learning_curve_checks_window_before_scoring(monkeypatch):
    calls = _count_record_labels(monkeypatch)
    notes = _pool([FULL] * 90)
    preds = {n.note.note_id: FULL for n in notes}
    with pytest.raises(ValueError, match="window must be at least 1, got 0"):
        learning_curve(notes, preds, step=30, window=0)
    with pytest.raises(ValueError, match="epsilon must be finite and above 0, got 0.0"):
        learning_curve(notes, preds, step=30, epsilon=0.0)
    assert calls == []


@pytest.mark.parametrize("step", [1, 7, 30, 450])
def test_learning_curve_labels_each_steps_distinct_pairs_once(monkeypatch, step):
    # Re-scoring every prefix labelled about N * N / step notes, and labelling note by
    # note N. Each step's distinct (gold, predicted) record pairs are labelled once: N at
    # step 1, at most 6 per step here. Notes past the last full step are in no point, so
    # they are not labelled and need no prediction.
    calls = _count_record_labels(monkeypatch)
    notes = _pool([FULL, DiagnosisRecord(P, Stage.I), None] * 150)
    shuffled = list(notes)
    random.Random(0).shuffle(shuffled)
    scored = shuffled[: 450 // step * step]
    preds = {n.note.note_id: (FULL, None)[i % 2] for i, n in enumerate(scored)}
    curve = learning_curve(notes, preds, step=step)
    assert len(curve.points) == 450 // step
    distinct = sum(
        len({(n.record, preds[n.note.note_id]) for n in scored[start : start + step]})
        for start in range(0, len(scored), step)
    )
    assert len(calls) == 2 * distinct
    if step == 1:
        assert distinct == len(scored)


def test_learning_curve_names_a_note_with_no_prediction():
    notes = _pool([FULL] * 45)
    shuffled = list(notes)
    random.Random(0).shuffle(shuffled)
    preds = {n.note.note_id: FULL for n in shuffled[:30]}
    learning_curve(notes, preds, step=30)  # the 15 notes past the last full step need none
    missing = shuffled[29].note.note_id
    del preds[missing]
    with pytest.raises(ValueError, match=f"^no prediction for note '{missing}'$"):
        learning_curve(notes, preds, step=30)


def test_learning_curve_rejects_duplicate_note_ids():
    notes = _pool([FULL] * 30)
    preds = {n.note.note_id: FULL for n in notes}
    with pytest.raises(ValueError, match="duplicate note_id 'n-0' in gold pool"):
        learning_curve(notes + notes, preds, step=30)


@pytest.mark.parametrize("side", ["gold", "predictions"])
def test_evaluate_corpus_rejects_duplicate_note_ids(side):
    # Keyed by id, the repeat was silently scored once (for predictions, the last one won).
    notes = _pool([FULL, None, FULL])
    repeated = [notes[0], notes[1], notes[2], notes[1]]
    gold, pred = (repeated, notes) if side == "gold" else (notes, repeated)
    with pytest.raises(ValueError, match=f"duplicate note_id 'n-1' in {side}"):
        evaluate_corpus(gold, pred)


_LEGAL = legal_records()


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(_LEGAL)),
            st.one_of(st.none(), st.sampled_from(_LEGAL)),
        ),
        min_size=1,
        max_size=80,
    ),
    step=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31),
    epsilon=st.sampled_from([1e-9, 0.01, 0.2, 1.0]),
    window=st.integers(min_value=1, max_value=3),
    dimension=st.sampled_from(DIMENSIONS),
)
def test_learning_curve_matches_per_prefix_oracle(records, step, seed, epsilon, window, dimension):
    if step > len(records):
        step = len(records)
    notes = _pool([gold for gold, _ in records])
    preds = {n.note.note_id: pred for n, (_, pred) in zip(notes, records)}
    curve = learning_curve(notes, preds, step, epsilon, window, seed, dimension)
    points, stabilization = oracle_learning_curve(
        notes, preds, step, epsilon, window, seed, FIELD_NAMES[dimension]
    )
    named = [(size, {FIELD_NAMES[d]: f1 for d, f1 in f1s.items()}) for size, f1s in curve.points]
    assert named == points
    assert curve.stabilization_size == stabilization


_ILLEGAL = DiagnosisRecord(PeriodontalStatus.GINGIVITIS, stage=Stage.I)  # gingivitis has no stage
_ANY_RECORD = st.one_of(st.none(), st.just(_ILLEGAL), st.sampled_from(LEGAL_RECORDS))


@settings(max_examples=100, deadline=None)
@given(
    notes=st.lists(
        st.tuples(st.sampled_from(["site1", "site2", "site3"]), _ANY_RECORD, _ANY_RECORD),
        min_size=1,
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_evaluate_corpus_scores_each_site_like_evaluate_records(notes, seed):
    gold = [
        AnnotatedNote(note=Note(f"n-{i}", site, "x"), record=record)
        for i, (site, record, _) in enumerate(notes)
    ]
    pred = [n.with_(record=record) for n, (_, _, record) in zip(gold, notes)]
    random.Random(seed).shuffle(pred)
    results = evaluate_corpus(gold, pred)
    assert list(results) == sorted({site for site, _, _ in notes})
    pred_records = {n.note.note_id: n.record for n in pred}
    for site, (matrices, table) in results.items():
        site_gold = {n.note.note_id: n.record for n in gold if n.note.site_id == site}
        want_matrices, want_table = evaluate_site(
            site_gold, {nid: pred_records[nid] for nid in site_gold}, site
        )
        assert table.site == site
        for i, dimension in enumerate(DIMENSIONS):
            assert matrices[dimension] == want_matrices[dimension]
            assert table.dimensions[i] == want_table.dimensions[i]
            name = FIELD_NAMES[dimension]
            pairs = [
                (_field_label(record, name), _field_label(pred_records[nid], name))
                for nid, record in site_gold.items()
            ]
            assert matrices[dimension] == build_confusion(pairs, dimension)
