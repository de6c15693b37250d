import dataclasses
import itertools
import operator

import pytest

from oracles import legal_records
from perioparse.model import (
    LEGAL_RECORDS,
    VALUE_CLASSES,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
    join,
    legalized,
    span_violations,
    validate_record,
)

P, G, H = (
    PeriodontalStatus.PERIODONTITIS,
    PeriodontalStatus.GINGIVITIS,
    PeriodontalStatus.HEALTH,
)


def test_severity_order():
    assert P > G > H
    assert join(P, G) is P
    assert join(H, H) is H
    assert join(G, H) is G


def test_rank_is_definition_index():
    for cls in (PeriodontalStatus, Stage, Grade, Extent):
        assert [m.rank for m in cls] == list(range(len(cls)))
        for a, b in itertools.product(cls, repeat=2):
            assert (a < b, a <= b, a > b, a >= b) == (
                a.rank < b.rank, a.rank <= b.rank, a.rank > b.rank, a.rank >= b.rank
            )
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(Stage.I, Grade.A)


def test_max_severity_exhaustive_matches_stated_order():
    rank = {H: 0, G: 1, P: 2}
    for a, b in itertools.product(PeriodontalStatus, repeat=2):
        expected = a if rank[a] >= rank[b] else b
        assert join(a, b) is expected
        assert join(a, b) is join(b, a)


@pytest.mark.parametrize(
    "join,values",
    [
        (join, list(Stage)),
        (join, list(Grade)),
        (join, list(Extent)),
        (join, list(PeriodontalStatus)),
    ],
)
def test_optional_joins_are_bounded_semilattices(join, values):
    space = [None, *values]
    for a, b in itertools.product(space, repeat=2):
        assert join(a, b) == join(b, a)
    for a, b, c in itertools.product(space, repeat=3):
        assert join(a, join(b, c)) == join(join(a, b), c)
    for a in space:
        assert join(a, a) == a
        assert join(a, None) == a  # absent is the bottom element


def test_join_examples():
    assert join(Stage.II, Stage.III) is Stage.III
    assert join(None, Stage.IV) is Stage.IV
    assert join(Stage.I, Stage.I) is Stage.I
    assert join(Extent.LOCALIZED, Extent.GENERALIZED) is Extent.GENERALIZED


def test_validate_record_examples():
    ok = DiagnosisRecord(P, stage=Stage.III, grade=Grade.B, extent=Extent.GENERALIZED)
    assert validate_record(ok) == []
    assert validate_record(DiagnosisRecord(H)) == []
    bad = DiagnosisRecord(G, stage=Stage.II)
    assert any("stage not permitted for gingivitis" in v for v in validate_record(bad))
    every = dict(stage=Stage.I, grade=Grade.A, extent=Extent.LOCALIZED,
                 subtype=Subtype.INTACT_PERIODONTIUM)
    assert validate_record(DiagnosisRecord(P, **every)) == [
        "subtype not permitted for periodontitis",
    ]
    assert validate_record(DiagnosisRecord(G, **every)) == [
        "stage not permitted for gingivitis",
        "grade not permitted for gingivitis",
    ]
    assert validate_record(DiagnosisRecord(H, **every)) == [
        "stage not permitted for health",
        "grade not permitted for health",
        "extent not permitted for health",
    ]


def test_validate_record_full_product_against_legality_predicate():
    # Independent statement of field legality per status.
    def legal(status, stage, grade, extent, subtype):
        if status is P:
            return subtype is None
        if status is G:
            return stage is None and grade is None
        return stage is None and grade is None and extent is None

    # The fields `legal` forbids each status: setting one alone breaks it.
    every = dict(stage=Stage.I, grade=Grade.A, extent=Extent.LOCALIZED,
                 subtype=Subtype.INTACT_PERIODONTIUM)
    forbidden = {
        status: [name for name in every if not legal(status, **{
            **dict.fromkeys(every), name: every[name]})]
        for status in PeriodontalStatus
    }
    shared = {id(record) for record in LEGAL_RECORDS}
    inputs = 0
    for status in PeriodontalStatus:
        for stage in (None, *Stage):
            for grade in (None, *Grade):
                for extent in (None, *Extent):
                    for subtype in (None, *Subtype):
                        record = DiagnosisRecord(status, stage, grade, extent, subtype)
                        assert (validate_record(record) == []) == legal(
                            status, stage, grade, extent, subtype
                        )
                        set_fields = dict(stage=stage, grade=grade, extent=extent,
                                          subtype=subtype)
                        assert validate_record(record) == [
                            f"{name} not permitted for {status.value.lower()}"
                            for name in forbidden[status] if set_fields[name] is not None
                        ]
                        kept = legalized(status, stage, grade, extent, subtype)
                        inputs += 1
                        assert id(kept) in shared  # one shared instance per legal record
                        assert not validate_record(kept)
                        assert kept == DiagnosisRecord(
                            status,
                            stage if status is P else None,
                            grade if status is P else None,
                            extent if status is not H else None,
                            subtype if status is not P else None,
                        )
    assert inputs == 720
    assert len(set(LEGAL_RECORDS)) == len(LEGAL_RECORDS) == 76
    assert set(LEGAL_RECORDS) == set(legal_records())


def test_entity_span_rejects_bad_offsets():
    with pytest.raises(ValueError, match=r"^bad span offsets \[5,5\)$"):
        EntitySpan(Dimension.STAGE, Stage.I, 5, 5, "")
    with pytest.raises(ValueError, match=r"^bad span offsets \[-1,2\)$"):
        EntitySpan(Dimension.STAGE, Stage.I, -1, 2, "ab")
    with pytest.raises(ValueError, match=r"^bad span offsets \[3,2\)$"):
        dataclasses.replace(EntitySpan(Dimension.STAGE, Stage.I, 1, 2, "a"), start=3)


def test_entity_span_value_must_belong_to_its_dimension():
    for dimension, cls in VALUE_CLASSES.items():
        for value in (*itertools.chain.from_iterable(VALUE_CLASSES.values()), None, "II"):
            if type(value) is cls:
                assert EntitySpan(dimension, value, 0, 2, "xx").value is value
            else:
                with pytest.raises(ValueError, match=f"^{dimension.value} span value "):
                    EntitySpan(dimension, value, 0, 2, "xx")
    span = EntitySpan(Dimension.STAGE, Stage.II, 0, 2, "II")
    with pytest.raises(ValueError, match=r"^Grade span value <Stage.II: 'II'> is not a Grade$"):
        dataclasses.replace(span, dimension=Dimension.GRADE)


def test_spans_and_statements_are_immutable_values():
    span = EntitySpan(Dimension.STAGE, Stage.II, 6, 8, "II")
    statement = Statement((span,), hedged=True, start=6, end=8)
    # A span's dimension changes only with its value, which must belong to it.
    for value, field_values, changes in [
        (span, (Dimension.STAGE, Stage.II, 6, 8, "II"), [
            {"dimension": Dimension.GRADE, "value": Grade.B}, {"value": Stage.III},
            {"start": 7}, {"end": 9}, {"raw_text": "I!"},
        ]),
        (statement, ((span,), True, 6, 8), [
            {"spans": ()}, {"hedged": False}, {"start": 7}, {"end": 9},
        ]),
    ]:
        names = [f.name for f in dataclasses.fields(value)]
        assert tuple(getattr(value, name) for name in names) == field_values
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        twin = type(value)(*field_values)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert type(value)(**dict(zip(names, field_values))) == value
        assert value != field_values and field_values != value
        for change in changes:
            changed = dataclasses.replace(value, **change)
            assert [getattr(changed, name) for name in change] == [*change.values()]
            assert changed != value
            assert dataclasses.replace(changed, **{n: getattr(value, n) for n in change}) == value
    assert Statement((span,)) == Statement((span,), False, 0, 0)
    assert len({span, EntitySpan(Dimension.STAGE, Stage.II, 6, 8, "II")}) == 1


def test_span_violations_checks_bounds_surface_and_overlap():
    text = "Stage III here"
    good = EntitySpan(Dimension.STAGE, Stage.III, 6, 9, "III")
    assert span_violations(text, [good]) == []
    bad_surface = EntitySpan(Dimension.STAGE, Stage.III, 0, 5, "stage")
    assert span_violations(text, [bad_surface])
    out_of_bounds = EntitySpan(Dimension.STAGE, Stage.III, 6, 99, "III")
    assert span_violations(text, [out_of_bounds])
    overlapping = EntitySpan(Dimension.GRADE, Grade.A, 7, 10, "II ")
    assert span_violations(text, [good, overlapping])
