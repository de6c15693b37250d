#!/usr/bin/env python3
"""In-process calls into the perioparse library, run as a child of run.py.

Usage (with the library's ``src`` directory on PYTHONPATH):

  libcalls.py chain SPEC_JSON      serve per-note latency: read a corpus once,
                                   then for each stdin line (a JSON list of
                                   note indices) time extract_statements ->
                                   infer_status_context -> adjudicate on each
                                   of those notes and answer one JSON line
  libcalls.py sweep SPEC_JSON OUT  infer_status_context -> adjudicate on
                                   seeded candidate lists and on a shuffled
                                   copy of each, timed per list
  libcalls.py trace SPEC_JSON OUT  the library calls behind one workload's
                                   CLI steps, run untraced, then with a span
                                   around every call, then untraced again;
                                   spans are kept in memory and written out
                                   at the end

A chain or sweep call shorter than 50 ms is timed twice back to back and the
faster time is kept.

Only the CLI-stable public API is used: names exported from
``perioparse/__init__.py``, plus ``perioparse.reporting`` for the report
renderers that the ``evaluate`` step calls.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perioparse import (
    AnnotationSource,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PerturbationSpec,
    PeriodontalStatus,
    SeedTemplate,
    Stage,
    Statement,
    Subtype,
    adjudicate,
    classify_guideline_version,
    evaluate_corpus,
    extract_statements,
    generate_offline,
    infer_status_context,
    learning_curve,
    read_corpus,
    tokenize,
    validate_labels,
    write_corpus,
)
from perioparse.reporting import bar_chart_data, confusion_chart_data, render_report

_FIELDS = (
    ("status", Dimension.STATUS, PeriodontalStatus),
    ("stage", Dimension.STAGE, Stage),
    ("grade", Dimension.GRADE, Grade),
    ("extent", Dimension.EXTENT, Extent),
    ("subtype", Dimension.SUBTYPE, Subtype),
)


def record_obj(record) -> dict | None:
    if record is None:
        return None
    return {
        key: (getattr(record, key).value if getattr(record, key) is not None else None)
        for key, _, _ in _FIELDS
    }


def diagnose(text: str, mode: str):
    return adjudicate_statements(extract_statements(text, mode))


def adjudicate_statements(statements):
    return adjudicate(infer_status_context(statements))


# --------------------------------------------------------------------------
# tracing


class _Span:
    __slots__ = ("tracer", "row")

    def __init__(self, tracer, row):
        self.tracer = tracer
        self.row = row

    def __enter__(self):
        tracer = self.tracer
        self.row[3] = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.row)
        self.row[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.row[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def set_items(self, n: int) -> None:
        self.row[5] = n


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_items(self, n: int) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans (name, start, end, parent, note id, item count) kept in memory.

    A disabled tracer hands out one shared no-op context, so the untraced
    pass runs the same code with no recording.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, note_id: str | None = None, n: int = 0):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, [name, 0.0, 0.0, -1, note_id, n])

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _extract_step(tr: Tracer, corpus_in, pred_out, mode: str, alone: bool) -> None:
    with tr.span("cli.extract"):
        with tr.span("corpus.read_corpus") as s:
            notes = read_corpus(corpus_in)
            s.set_items(len(notes))
        out = []
        for annotated in notes:
            text, nid = annotated.note.text, annotated.note.note_id
            with tr.span("chain", nid, len(text)):
                with tr.span("extraction.extract_statements", nid, len(text)):
                    statements = extract_statements(text, mode)
                with tr.span("normalization.infer_status_context", nid):
                    candidates = infer_status_context(statements)
                with tr.span("normalization.adjudicate", nid):
                    record = adjudicate(candidates)
            spans = tuple(s for st in statements for s in st.spans)
            out.append(
                annotated.with_(
                    spans=spans,
                    record=record,
                    annotation_source=AnnotationSource.PREDICTED,
                    guideline_version=(
                        classify_guideline_version(record) if record is not None else None
                    ),
                    qa=None,
                )
            )
            if alone:
                with tr.span("alone:extraction.tokenize", nid, len(text)):
                    tokens = tokenize(text)
                tr.count("extraction.tokens", len(tokens))
                tr.count("extraction.statements", len(statements))
                tr.count("extraction.spans", len(spans))
                tr.count("normalization.candidates", len(candidates))
        with tr.span("corpus.write_corpus", n=len(out)):
            write_corpus(out, pred_out)


def _evaluate_step(tr: Tracer, gold_in, pred_in, curve_step: int | None, alone: bool) -> None:
    with tr.span("cli.evaluate"):
        with tr.span("corpus.read_corpus") as s:
            gold = read_corpus(gold_in)
            s.set_items(len(gold))
        with tr.span("corpus.read_corpus") as s:
            pred = read_corpus(pred_in)
            s.set_items(len(pred))
        with tr.span("evaluation.evaluate_corpus", n=len(gold)):
            results = evaluate_corpus(gold, pred)
        with tr.span("reporting.render"):
            tables = [table for _, table in results.values()]
            render_report(tables, "text-table")
            confusion_chart_data({site: m for site, (m, _) in results.items()})
            bar_chart_data(tables)
        if curve_step is not None:
            pred_records = {n.note.note_id: n.record for n in pred}
            with tr.span("evaluation.learning_curve", n=len(gold)):
                learning_curve(gold, pred_records, step=curve_step)
            if alone:
                half = gold[: len(gold) // 2]
                with tr.span("alone:evaluation.learning_curve", n=len(half)):
                    learning_curve(half, pred_records, step=curve_step)


def _synth_step(tr: Tracer, spec: dict, corpus_out, alone: bool) -> None:
    with tr.span("cli.synth"):
        with tr.span("corpus.read_corpus") as s:
            seeds = read_corpus(spec["templates"])
            s.set_items(len(seeds))
        templates = [SeedTemplate(n.note, n.record.status, n.record) for n in seeds]
        perturb = PerturbationSpec(rng_seed=spec["synth_seed"], **spec["rates"])
        with tr.span("synthesis.generate_offline", n=len(templates) * spec["variants"]):
            notes = generate_offline(templates, spec["variants"], perturb)
        checked = []
        for annotated in notes:
            text, nid = annotated.note.text, annotated.note.note_id
            with tr.span("synthesis.validate_labels", nid, len(text)):
                verdict = validate_labels(annotated)
            if alone:
                # The same extraction and adjudication validate_labels runs,
                # timed alone, so its own share can be separated.
                with tr.span("alone:extraction.extract_statements", nid, len(text)):
                    statements = extract_statements(text, "informal")
                with tr.span("alone:normalization.infer_status_context", nid):
                    candidates = infer_status_context(statements)
                with tr.span("alone:normalization.adjudicate", nid):
                    adjudicate(candidates)
                tr.count("synthesis.qa_failures", 0 if verdict.consistent else 1)
            checked.append(annotated.with_(qa={"consistent": verdict.consistent}))
        with tr.span("corpus.write_corpus", n=len(checked)):
            write_corpus(checked, corpus_out)


def _sweep_step(tr: Tracer, lists: list, alone: bool) -> None:
    with tr.span("cli.sweep"):
        for i, statements in enumerate(lists):
            nid = str(i)
            with tr.span("normalization.infer_status_context", nid):
                candidates = infer_status_context(statements)
            with tr.span("normalization.adjudicate", nid):
                adjudicate(candidates)
            if alone:
                tr.count("normalization.candidates", len(candidates))


def _trace_pass(tr: Tracer, spec: dict, alone: bool, lists) -> None:
    work = Path(spec["work"])
    workload = spec["workload"]
    if workload == "corpus-short":
        _synth_step(tr, spec, work / "synth.jsonl", alone)
        _extract_step(tr, spec["corpus"], work / "pred.jsonl", "informal", alone)
        _evaluate_step(tr, spec["corpus"], spec["pred"], None, alone)
    elif workload == "long-notes":
        _extract_step(tr, spec["corpus"], work / "pred.jsonl", "strict", alone)
        _evaluate_step(tr, spec["corpus"], spec["pred"], None, alone)
    elif workload == "curve":
        _evaluate_step(tr, spec["corpus"], spec["pred"], spec["step"], alone)
    elif workload == "adjudicate-sweep":
        _sweep_step(tr, lists, alone)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def task_trace(spec: dict) -> dict:
    lists = None
    if spec["workload"] == "adjudicate-sweep":
        lists = [statements for pair in _sweep_lists(spec["lists"]) for statements in pair]
    # Untraced passes run before and after the traced one, so a host that
    # speeds up or slows down during the run biases neither side; the
    # traced pass's extra time, net of the calls only it makes, is the
    # tracing overhead.
    untraced_s = []
    tracer = Tracer(True)
    for traced in (False, True, False):
        tr = tracer if traced else Tracer(False)
        t0 = time.perf_counter()
        _trace_pass(tr, spec, traced, lists)
        elapsed = time.perf_counter() - t0
        if traced:
            traced_s = elapsed
        else:
            untraced_s.append(elapsed)

    origin = min((row[1] for row in tracer.spans), default=0.0)
    with open(spec["spans_out"], "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, nid, n) in enumerate(tracer.spans):
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "note_id": nid,
                        "n": n,
                    }
                )
                + "\n"
            )
    return {"untraced_s": sum(untraced_s) / 2, "traced_s": traced_s, "counts": tracer.counts}


# --------------------------------------------------------------------------
# chain and sweep


# A call shorter than this is timed twice back to back and the faster time is
# kept: a pause of the whole process (another tenant, a garbage collection)
# distorts a short call a lot and rarely hits both. Longer calls run once.
REPEAT_BELOW_S = 0.05


def timed(fn, arg) -> tuple[float, object]:
    """``fn(arg)`` and its time in ms."""
    t0 = time.perf_counter()
    result = fn(arg)
    elapsed = time.perf_counter() - t0
    if elapsed < REPEAT_BELOW_S:
        t0 = time.perf_counter()
        fn(arg)
        elapsed = min(elapsed, time.perf_counter() - t0)
    return elapsed * 1e3, result


def serve_chain(spec: dict) -> None:
    notes = read_corpus(spec["corpus"])

    def chain(text):
        return diagnose(text, spec["mode"])

    for line in sys.stdin:
        latencies = []
        records = {}
        for i in json.loads(line):
            annotated = notes[i]
            ms, record = timed(chain, annotated.note.text)
            latencies.append(ms)
            records[annotated.note.note_id] = record_obj(record)
        print(json.dumps({"latency_ms": latencies, "records": records}), flush=True)


def _statement(obj: dict, offset: int) -> Statement:
    spans = []
    for key, dimension, cls in _FIELDS:
        raw = obj.get(key)
        if raw is None:
            continue
        spans.append(EntitySpan(dimension, cls(raw), offset, offset + len(raw), raw))
        offset += len(raw) + 1
    return Statement(tuple(spans), start=spans[0].start, end=spans[-1].end)


def _sweep_lists(path) -> list[tuple[list, list]]:
    """(statements, shuffled statements) per candidate list in the input file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    pairs = []
    for records, order in zip(data["lists"], data["shuffles"]):
        statements = [_statement(obj, 100 * i) for i, obj in enumerate(records)]
        pairs.append((statements, [statements[j] for j in order]))
    return pairs


def task_sweep(spec: dict) -> dict:
    pairs = _sweep_lists(spec["lists"])
    latencies = []
    results = []
    for statements, shuffled in pairs:
        pair = []
        for seq in (statements, shuffled):
            ms, record = timed(adjudicate_statements, seq)
            latencies.append(ms)
            pair.append(record_obj(record))
        results.append(pair)
    return {"latency_ms": latencies, "results": results}


TASKS = {"sweep": task_sweep, "trace": task_trace}


def main(argv: list[str]) -> int:
    if argv[:1] == ["chain"] and len(argv) == 2:
        serve_chain(json.loads(Path(argv[1]).read_text(encoding="utf-8")))
        return 0
    if len(argv) != 3 or argv[0] not in TASKS:
        print("usage: libcalls.py chain SPEC_JSON | {sweep,trace} SPEC_JSON OUT_JSON", file=sys.stderr)
        return 2
    task, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = TASKS[task](spec)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
