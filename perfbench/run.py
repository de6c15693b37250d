#!/usr/bin/env python3
"""Benchmark for the perioparse batch pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-short --seed 1 --seconds 20 --trace 0

The program under test is the checkout's own ``src/perioparse``, driven from
outside: the ``perioparse`` CLI as child processes for the end-to-end
metrics, and the public library functions in a child process
(``libcalls.py``) for per-note latency, the adjudication sweep and the
traced per-layer run. This script never imports the library. Its
correctness checks recompute every answer themselves (F1 from the gold and
prediction files, a lattice-max adjudication oracle, shifted gold spans).

Workloads (one caller, steps run one after another, no ``--jobs``):

  corpus-short      synth --offline (all perturbation rates 0.15, 4,500 short
                    notes), extract --mode informal, evaluate
  long-notes        extract --mode strict + evaluate on 9 documents of joined
                    clean notes, 1k to 100k chars, geometrically spaced
  curve             evaluate --curve --step 30 on a 1,800-note gold/prediction
                    pair made during set-up
  adjudicate-sweep  infer_status_context + adjudicate on seeded candidate lists
                    of 1-4 of the 76 legal records, and on a shuffled copy

Inputs are generated from ``--seed`` before any timed region; the program
receives only the generated files (and a synth seed derived from it).
Seed 1 is the development seed; seed 20261017 is kept aside for confirming
a claimed gain on a seed not used while the change was written.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run. The
line before it (``detail: {...}``) holds the per-step figures, the sha256 of
every generated input and CLI output, exact counts and the failed fraction.
Exit status is 0 when a result was printed, 1 when set-up failed and 2 when
the checkout has no ``src/perioparse``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
LIBCALLS = BENCH / "libcalls.py"
SPAWN = BENCH / "spawn.py"

WORKLOADS = ("corpus-short", "long-notes", "curve", "adjudicate-sweep")

# Every run must end within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 170.0

SIZES = {
    "full": {
        "short_variants": 100,
        "long_part_variants": 25,
        "long_lengths": [round(1000 * 100 ** (k / 8)) for k in range(9)],
        "curve_variants": 40,
        "sweep_lists": 20000,
    },
    "tiny": {
        "short_variants": 4,
        "long_part_variants": 2,
        "long_lengths": [1000, 2000, 4000, 8000],
        "curve_variants": 4,
        "sweep_lists": 300,
    },
}

CURVE_STEP = 30
RATE = 0.15
RATE_KEYS = (
    "typo_rate",
    "informal_format_rate",
    "anchor_variation_rate",
    "multi_diagnosis_rate",
    "distractor_extent_rate",
)

# Value orders of the 2018 classification, spelled out so the checks below do
# not depend on the library's enums. Status is listed most severe first,
# which is the library's class order for that dimension.
STATUS = ("Periodontitis", "Gingivitis", "Health")
STAGE = ("I", "II", "III", "IV")
GRADE = ("A", "B", "C")
EXTENT = ("Localized", "Generalized")
SUBTYPE = (
    "Intact Periodontium",
    "Reduced Periodontium, Stable Periodontitis",
    "Reduced Periodontium, Non-Periodontitis",
)
DIMENSIONS = (
    ("status", "Status", "Periodontal status", STATUS),
    ("stage", "Stage", "Stage", STAGE),
    ("grade", "Grade", "Grade", GRADE),
    ("extent", "Extent", "Extent", EXTENT),
    ("subtype", "Subtype", "Subtype", SUBTYPE),
)

# Criterion 4 of the acceptance suite: weighted F1 on the perturbed corpus.
F1_FLOORS = {"status": 0.95, "stage": 0.95, "grade": 0.95, "extent": 0.85}


class RunError(RuntimeError):
    """Input generation or measuring failed; the run cannot produce a result."""


# --------------------------------------------------------------------------
# files


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        path = Path(path)
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in filter(Path.is_file, files):
            out[f.relative_to(WORK).as_posix()] = sha256(f)
    return out


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# --------------------------------------------------------------------------
# oracles, written without the library


def record(status, stage=None, grade=None, extent=None, subtype=None) -> dict:
    return {"status": status, "stage": stage, "grade": grade, "extent": extent, "subtype": subtype}


def legal_records() -> list[dict]:
    """Every record that passes the field-legality rules: 60 + 12 + 4 = 76."""
    out = []
    for stage in (None, *STAGE):
        for grade in (None, *GRADE):
            for extent in (None, *EXTENT):
                out.append(record("Periodontitis", stage, grade, extent))
    for extent in (None, *EXTENT):
        for subtype in (None, *SUBTYPE):
            out.append(record("Gingivitis", extent=extent, subtype=subtype))
    for subtype in (None, *SUBTYPE):
        out.append(record("Health", subtype=subtype))
    return out


def _highest(values, order):
    present = [v for v in values if v is not None]
    return max(present, key=order.index) if present else None


def oracle_adjudicate(records: list[dict]) -> dict | None:
    """Lattice max: most severe status, then the highest stage, grade and
    extent among candidates of that status; a subtype survives only when the
    winners agree on it, and only for gingivitis or health."""
    if not records:
        return None
    status = min((r["status"] for r in records), key=STATUS.index)
    winners = [r for r in records if r["status"] == status]
    subtypes = {r["subtype"] for r in winners if r["subtype"] is not None}
    subtype = subtypes.pop() if len(subtypes) == 1 else None
    if status == "Periodontitis":
        return record(
            status,
            _highest([r["stage"] for r in winners], STAGE),
            _highest([r["grade"] for r in winners], GRADE),
            _highest([r["extent"] for r in winners], EXTENT),
        )
    if status == "Gingivitis":
        return record(status, extent=_highest([r["extent"] for r in winners], EXTENT), subtype=subtype)
    return record(status, subtype=subtype)


def _label(rec: dict | None, key: str) -> str:
    value = rec.get(key) if rec else None
    return "N/A" if value is None else value


def confusion(gold: dict, pred: dict, key: str) -> Counter:
    return Counter((_label(gold[i], key), _label(pred.get(i), key)) for i in gold)


def weighted_f1(gold: dict, pred: dict) -> dict[str, float | None]:
    """Support-weighted F1 per dimension over non-N/A classes with gold support."""
    out = {}
    for key, _, _, classes in DIMENSIONS:
        cells = confusion(gold, pred, key)
        total = 0
        acc = 0.0
        for c in classes:
            tp = cells[(c, c)]
            fp = sum(n for (g, p), n in cells.items() if p == c and g != c)
            fn = sum(n for (g, p), n in cells.items() if g == c and p != c)
            support = tp + fn
            if not support:
                continue
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / support
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            acc += f1 * support
            total += support
        out[key] = acc / total if total else None
    return out


def same_float(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def records_by_id(rows) -> dict[str, dict | None]:
    return {row["note_id"]: row["record"] for row in rows}


def demo_templates() -> list[dict]:
    """45 seed templates whose records sweep every stage, grade, extent and
    subtype, 15 per status. The offline engine reads only the record and id."""
    rows = []
    for status, code in (("Periodontitis", "p"), ("Gingivitis", "g"), ("Health", "h")):
        for i in range(15):
            if status == "Periodontitis":
                rec = record(status, STAGE[i % 4], GRADE[i % 3], EXTENT[i % 2])
            elif status == "Gingivitis":
                rec = record(status, extent=EXTENT[(i + 1) % 2], subtype=SUBTYPE[i % 3])
            else:
                rec = record(status, subtype=SUBTYPE[i % 3])
            rows.append(
                {
                    "note_id": f"seed-{code}-{i:02d}",
                    "site_id": "site1",
                    "text": f"Seed template {i} for {status.lower()}.",
                    "provenance": "Real",
                    "annotation_source": "Gold",
                    "spans": [],
                    "record": rec,
                }
            )
    return rows


# --------------------------------------------------------------------------
# child processes


class Runner:
    """Runs every child, one at a time, through the ``spawn.py`` helper, which
    measures each by its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.helper = subprocess.Popen(
            [sys.executable, SPAWN], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()

    def run(self, argv) -> dict:
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        request = {
            "argv": [sys.executable, *map(str, argv)],
            "cwd": str(ROOT),
            "env": self.env,
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(0.1, self.deadline - time.monotonic()),
        }
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RunError("the spawn helper exited")
        res = json.loads(reply)
        res["stdout"] = out_path.read_text(encoding="utf-8", errors="replace")
        res["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
        return res

    def cli(self, *args) -> dict:
        return self.run(["-m", "perioparse.cli", *args])

    def lib(self, task: str, spec: dict, tag: str) -> tuple[dict, dict | None]:
        spec_path = WORK / f"{tag}.spec.json"
        out_path = WORK / f"{tag}.out.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_path.unlink(missing_ok=True)
        res = self.run([LIBCALLS, task, spec_path, out_path])
        payload = None
        if res["code"] == 0 and out_path.exists():
            payload = json.loads(out_path.read_text(encoding="utf-8"))
        return res, payload


def step(name: str, res: dict, problems: list[str], outputs=(), timed=True) -> dict:
    return {
        "name": name,
        "code": res["code"],
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "rss_mb": res["rss_mb"],
        "timed": timed,
        "problems": problems,
        "digests": digests(outputs),
    }


def expect_code(res: dict, expected=0) -> list[str]:
    if res["code"] == expected:
        return []
    tail = res["stderr"].strip().splitlines()[-1:] or [""]
    return [f"exit code {res['code']}, expected {expected}: {tail[0]}"]


_QA_LINE = re.compile(r"^(\d+) notes failed label QA", re.MULTILINE)


def check_synth(res: dict, corpus_path: Path, expected_notes: int) -> list[str]:
    """Exit 1 is accepted only when the written corpus holds exactly the number
    of QA-inconsistent notes that synth printed; anything else is a failure."""
    if res["code"] not in (0, 1):
        return expect_code(res)
    try:
        rows = read_jsonl(corpus_path)
    except (OSError, ValueError) as exc:
        return [f"synth output unreadable: {exc}"]
    problems = []
    if len(rows) != expected_notes:
        problems.append(f"synth wrote {len(rows)} notes, expected {expected_notes}")
    if len({r["note_id"] for r in rows}) != len(rows):
        problems.append("synth wrote duplicate note ids")
    inconsistent = sum(1 for r in rows if not r.get("qa", {}).get("consistent", False))
    match = _QA_LINE.search(res["stdout"])
    printed = int(match.group(1)) if match else 0
    if res["code"] == 1 and not match:
        problems.append("synth exited 1 without reporting QA failures")
    if res["code"] == 0 and match:
        problems.append("synth reported QA failures but exited 0")
    if printed != inconsistent:
        problems.append(f"synth printed {printed} QA failures, corpus holds {inconsistent}")
    return problems


def check_evaluate(res: dict, out_dir: Path, gold: dict, pred: dict) -> list[str]:
    """The CLI's chart data must equal F1 and confusion counts recomputed here."""
    problems = expect_code(res)
    if problems:
        return problems
    try:
        bars = json.loads((out_dir / "bar_chart.json").read_text(encoding="utf-8"))["bars"]
        matrices = json.loads((out_dir / "confusion.json").read_text(encoding="utf-8"))["matrices"]
        if not (out_dir / "report.txt").is_file():
            problems.append("evaluate wrote no report.txt")
    except (OSError, ValueError, KeyError) as exc:
        return [f"evaluate output unreadable: {exc}"]
    f1 = weighted_f1(gold, pred)
    titles = {title: key for key, _, title, _ in DIMENSIONS}
    reported = {
        titles[b["dimension"]]: b["value"]
        for b in bars
        if b["average"] == "weighted" and b["metric"] == "f1"
    }
    for key, value in f1.items():
        if not same_float(reported.get(key), value):
            problems.append(f"evaluate weighted F1 {key} = {reported.get(key)}, recomputed {value}")
    for m in matrices:
        key = titles[m["dimension"]]
        cells = {
            (g, p): n
            for g, row in zip(m["classes"], m["cells"])
            for p, n in zip(m["classes"], row)
            if n
        }
        if cells != dict(confusion(gold, pred, key)):
            problems.append(f"evaluate confusion matrix for {key} differs from recount")
    return problems


def check_same_records(got: dict, pred: dict) -> list[str]:
    bad = [nid for nid in pred if got.get(nid) != pred[nid]]
    if bad or set(got) != set(pred):
        return [f"in-process records differ from CLI extract for {len(bad)} notes, e.g. {bad[:3]}"]
    return []


def corrupt_predictions(path: Path) -> None:
    """Test hook: overwrite every predicted record with a wrong legal one."""
    rows = read_jsonl(path)
    for row in rows:
        rec = row["record"]
        if rec is not None and rec["status"] == "Periodontitis":
            row["record"] = record("Health")
        else:
            row["record"] = record("Periodontitis", "IV", "C", "Generalized")
    write_jsonl(rows, path)


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up (untimed input generation) and one iteration of timed steps."""

    name = ""
    steps_per_iteration = 1
    cli_steps = True
    # Extraction mode of the per-note latency probe; None when the timed step
    # itself yields the latencies. With a mode, set-up or the first iteration
    # sets ``probe_corpus`` (the notes to time) and ``pred_records`` (the CLI's
    # records for them, which the probe's must equal).
    probe_mode: str | None = None

    def __init__(self, runner: Runner, seed: int, size: dict, corrupt: bool):
        self.runner = runner
        self.size = size
        self.corrupt = corrupt
        self.rng = random.Random(f"{seed}:{self.name}")
        self.synth_seed = self.rng.randrange(1, 10**6)
        self.inputs = WORK / "inputs"
        self.inputs.mkdir(parents=True)
        self.counts: dict[str, int] = {}
        self.extra: dict[str, list[float]] = {}

    def input_paths(self) -> list[Path]:
        return sorted(p for p in self.inputs.iterdir() if p.is_file())

    def write_templates(self) -> Path:
        path = self.inputs / "templates.jsonl"
        write_jsonl(demo_templates(), path)
        return path

    def write_rates(self) -> Path:
        path = self.inputs / "perturb.cfg"
        path.write_text("".join(f"{k} = {RATE}\n" for k in RATE_KEYS), encoding="utf-8")
        return path

    def setup_synth(self, variants: int, config: Path | None, out: Path) -> None:
        templates = self.write_templates()
        args = ["synth", "--offline", "--templates", templates, "--seed", self.synth_seed,
                "--variants", variants, "--out", out]
        if config is not None:
            args += ["--config", config]
        res = self.runner.cli(*args)
        problems = check_synth(res, out, 45 * variants)
        if problems:
            raise RunError(f"set-up synth failed: {problems}")

    def setup_extract(self, corpus: Path, out: Path, mode: str) -> None:
        res = self.runner.cli("extract", corpus, out, "--mode", mode)
        if res["code"] != 0:
            raise RunError(f"set-up extract failed: {expect_code(res)}")

    def probe_chunks(self, n: int) -> list[list[int]]:
        """Note indices the latency probe times after each timed step of an
        iteration: every note once per iteration, spread over the steps."""
        k = self.steps_per_iteration
        return [list(range(j, n, k)) for j in range(k)]

    def trace_spec(self, it_dir: Path) -> dict:
        raise NotImplementedError

    def iteration(self, it_dir: Path, after_step) -> list[dict]:
        """Run the timed steps once, calling ``after_step(position)`` after
        each; a step that times the notes itself passes their latencies."""
        raise NotImplementedError


class CorpusShort(Workload):
    name = "corpus-short"
    probe_mode = "informal"
    steps_per_iteration = 3

    def setup(self) -> None:
        self.templates = self.write_templates()
        self.config = self.write_rates()
        self.notes = 45 * self.size["short_variants"]

    def iteration(self, it_dir, after_step):
        corpus, pred, ev = it_dir / "synth.jsonl", it_dir / "pred.jsonl", it_dir / "eval"
        steps = []
        res = self.runner.cli(
            "synth", "--offline", "--templates", self.templates, "--config", self.config,
            "--seed", self.synth_seed, "--variants", self.size["short_variants"], "--out", corpus,
        )
        steps.append(step("synth", res, check_synth(res, corpus, self.notes), [corpus]))
        self.probe_corpus = corpus
        after_step(0)
        rows = read_jsonl(corpus) if corpus.exists() else []
        self.counts["synth.notes"] = len(rows)
        self.counts["synth.qa_failures"] = sum(
            1 for r in rows if not r.get("qa", {}).get("consistent", False)
        )
        chars = sum(len(r["text"]) for r in rows)
        self.extra.setdefault("synth_notes_per_s", []).append(len(rows) / res["wall_s"])

        res = self.runner.cli("extract", corpus, pred, "--mode", "informal")
        problems = expect_code(res)
        if not problems and self.corrupt:
            corrupt_predictions(pred)
        gold_rec = records_by_id(rows)
        pred_rows = read_jsonl(pred) if not problems else []
        pred_rec = records_by_id(pred_rows)
        if not problems:
            if list(pred_rec) != list(gold_rec):
                problems.append("extract output note ids differ from its input")
            else:
                f1 = weighted_f1(gold_rec, pred_rec)
                for key, floor in F1_FLOORS.items():
                    if f1[key] is None or f1[key] < floor:
                        problems.append(f"weighted F1 {key} = {f1[key]} below {floor}")
        self.counts["extract.spans"] = sum(len(r["spans"]) for r in pred_rows)
        steps.append(step("extract", res, problems, [pred]))
        self.extra.setdefault("extract_mchar_per_s", []).append(chars / res["wall_s"] / 1e6)
        self.pred_records = pred_rec
        after_step(1)

        res = self.runner.cli("evaluate", corpus, pred, ev)
        problems = check_evaluate(res, ev, gold_rec, pred_rec) if pred_rows else expect_code(res)
        steps.append(step("evaluate", res, problems, [ev]))
        self.extra.setdefault("evaluate_s", []).append(res["wall_s"])
        after_step(2)
        return steps

    def trace_spec(self, it_dir):
        return {
            "templates": str(self.templates),
            "synth_seed": self.synth_seed,
            "variants": self.size["short_variants"],
            "rates": {k: RATE for k in RATE_KEYS},
            "corpus": str(it_dir / "synth.jsonl"),
            "pred": str(it_dir / "pred.jsonl"),
        }


class LongNotes(Workload):
    name = "long-notes"
    probe_mode = "strict"
    steps_per_iteration = 2

    def setup(self) -> None:
        parts_path = self.inputs / "parts.jsonl"
        self.setup_synth(self.size["long_part_variants"], None, parts_path)
        parts = read_jsonl(parts_path)
        docs = []
        for k, target in enumerate(self.size["long_lengths"]):
            docs.append(self._join(f"long-{k:02d}", parts, target))
        self.gold = self.probe_corpus = self.inputs / "long_gold.jsonl"
        write_jsonl(docs, self.gold)
        self.gold_rows = docs
        self.chars = sum(len(d["text"]) for d in docs)
        self.counts["long.docs"] = len(docs)
        self.counts["long.chars"] = self.chars

    def _join(self, note_id: str, parts: list[dict], target: int) -> dict:
        """Clean notes joined with newlines until the text reaches ``target``
        chars; gold spans are the parts' spans shifted by their offsets and the
        gold record is the lattice max of the parts' records."""
        pieces, spans, recs = [], [], []
        pos = 0
        for j in self.rng.sample(range(len(parts)), len(parts)):
            part = parts[j]
            if pieces:
                pos += 1
            for s in part["spans"]:
                spans.append(dict(s, start=s["start"] + pos, end=s["end"] + pos))
            pieces.append(part["text"])
            recs.append(part["record"])
            pos += len(part["text"])
            if pos >= target:
                break
        else:
            raise RunError(f"not enough clean notes to build a {target}-char document")
        return {
            "note_id": note_id,
            "site_id": "site1",
            "text": "\n".join(pieces),
            "provenance": "OfflineGenerated",
            "annotation_source": "Gold",
            "spans": spans,
            "record": oracle_adjudicate(recs),
        }

    def iteration(self, it_dir, after_step):
        pred, ev = it_dir / "pred.jsonl", it_dir / "eval"
        steps = []
        res = self.runner.cli("extract", self.gold, pred, "--mode", "strict")
        problems = expect_code(res)
        if not problems and self.corrupt:
            corrupt_predictions(pred)
        pred_rows = read_jsonl(pred) if not problems else []
        if not problems:
            problems += self._check_docs(pred_rows)
        steps.append(step("extract", res, problems, [pred]))
        self.extra.setdefault("extract_mchar_per_s", []).append(self.chars / res["wall_s"] / 1e6)
        self.counts["extract.spans"] = sum(len(r["spans"]) for r in pred_rows)
        gold_rec, pred_rec = records_by_id(self.gold_rows), records_by_id(pred_rows)
        self.pred_records = pred_rec
        after_step(0)

        res = self.runner.cli("evaluate", self.gold, pred, ev)
        problems = check_evaluate(res, ev, gold_rec, pred_rec) if pred_rows else expect_code(res)
        steps.append(step("evaluate", res, problems, [ev]))
        self.extra.setdefault("evaluate_s", []).append(res["wall_s"])
        after_step(1)
        return steps

    def _check_docs(self, pred_rows: list[dict]) -> list[str]:
        def key(s):
            return (s["start"], s["end"], s["dimension"], s["value"])

        problems = []
        if [r["note_id"] for r in pred_rows] != [d["note_id"] for d in self.gold_rows]:
            return ["extract output note ids differ from its input"]
        for gold, pred in zip(self.gold_rows, pred_rows):
            if sorted(map(key, pred["spans"])) != sorted(map(key, gold["spans"])):
                problems.append(f"{gold['note_id']}: predicted spans differ from shifted gold spans")
            if pred["record"] != gold["record"]:
                problems.append(f"{gold['note_id']}: record {pred['record']} != oracle {gold['record']}")
        return problems

    def trace_spec(self, it_dir):
        return {"corpus": str(self.gold), "pred": str(it_dir / "pred.jsonl")}


    def probe_chunks(self, n):
        # Documents are in ascending length. All but the two longest take a
        # fraction of a second together, so they are timed after every step,
        # in more windows; the two longest once per iteration.
        short = list(range(n - 2))
        return [short, list(range(n))]


class Curve(Workload):
    name = "curve"
    probe_mode = "informal"
    steps_per_iteration = 1

    def setup(self) -> None:
        self.gold = self.inputs / "curve_gold.jsonl"
        self.pred = self.inputs / "curve_pred.jsonl"
        self.setup_synth(self.size["curve_variants"], self.write_rates(), self.gold)
        self.setup_extract(self.gold, self.pred, "informal")
        if self.corrupt:
            corrupt_predictions(self.pred)
        self.gold_rec = records_by_id(read_jsonl(self.gold))
        self.pred_rec = self.pred_records = records_by_id(read_jsonl(self.pred))
        self.probe_corpus = self.gold
        if len(self.gold_rec) % CURVE_STEP:
            raise RunError(f"curve pool {len(self.gold_rec)} is not a multiple of {CURVE_STEP}")
        self.counts["curve.pool"] = len(self.gold_rec)

    def iteration(self, it_dir, after_step):
        ev = it_dir / "eval"
        res = self.runner.cli("evaluate", self.gold, self.pred, ev, "--curve", "--step", CURVE_STEP)
        problems = check_evaluate(res, ev, self.gold_rec, self.pred_rec)
        if not problems:
            problems += self._check_curve(ev / "learning_curve.json")
        self.extra.setdefault("evaluate_s", []).append(res["wall_s"])
        after_step(0)
        return [step("evaluate", res, problems, [ev])]

    def _check_curve(self, path: Path) -> list[str]:
        """The last point of the curve is the whole pool, so it must equal the
        whole-pool weighted F1."""
        try:
            curves = json.loads(path.read_text(encoding="utf-8"))
            last = curves["site1"]["points"][-1]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"learning curve unreadable: {exc}"]
        problems = []
        if last["size"] != len(self.gold_rec):
            problems.append(f"last curve point has size {last['size']}, pool is {len(self.gold_rec)}")
        f1 = weighted_f1(self.gold_rec, self.pred_rec)
        titles = {title: key for key, _, title, _ in DIMENSIONS}
        for title, value in last["weighted_f1"].items():
            if not same_float(value, f1[titles[title]]):
                problems.append(f"last curve point {title} F1 {value} != whole pool {f1[titles[title]]}")
        return problems

    def trace_spec(self, it_dir):
        return {"corpus": str(self.gold), "pred": str(self.pred), "step": CURVE_STEP}


class AdjudicateSweep(Workload):
    name = "adjudicate-sweep"
    steps_per_iteration = 1
    cli_steps = False

    def setup(self) -> None:
        legal = legal_records()
        lists, shuffles = [], []
        for _ in range(self.size["sweep_lists"]):
            recs = [self.rng.choice(legal) for _ in range(self.rng.randint(1, 4))]
            order = list(range(len(recs)))
            self.rng.shuffle(order)
            lists.append(recs)
            shuffles.append(order)
        self.lists_path = self.inputs / "sweep_lists.json"
        self.lists_path.write_text(json.dumps({"lists": lists, "shuffles": shuffles}), encoding="utf-8")
        self.expected = [oracle_adjudicate(recs) for recs in lists]
        self.counts["sweep.lists"] = len(lists)
        self.counts["sweep.candidates"] = 2 * sum(len(r) for r in lists)

    def iteration(self, it_dir, after_step):
        res, payload = self.runner.lib("sweep", {"lists": str(self.lists_path)}, "sweep")
        problems = expect_code(res)
        latencies = []
        if not problems:
            if payload is None:
                problems.append("sweep child produced no result")
            else:
                latencies = payload["latency_ms"]
                for i, ((got, got_shuffled), want) in enumerate(zip(payload["results"], self.expected)):
                    if got != want or got_shuffled != want:
                        problems.append(f"list {i}: {got} / shuffled {got_shuffled} != oracle {want}")
                        break
                if len(payload["results"]) != len(self.expected):
                    problems.append("sweep returned the wrong number of results")
                self.extra.setdefault("adjudications_per_s", []).append(
                    len(latencies) / (sum(latencies) / 1e3)
                )
        after_step(0, latencies)
        return [step("sweep", res, problems)]

    def trace_spec(self, it_dir):
        return {"lists": str(self.lists_path)}


WORKLOAD_CLASSES = {cls.name: cls for cls in (CorpusShort, LongNotes, Curve, AdjudicateSweep)}


class Sampler:
    """Short measurements taken after every timed step, so that they sample
    the host over the whole run rather than in one window (on a shared host
    the speed of a core changes from one second to the next): a fresh
    interpreter importing the CLI, for ``setup_s``, and a chunk of the
    per-note latency probe. The probe is one library child that stays
    idle between chunks. A traced run takes no samples."""

    MIN_SETUP_SAMPLES = 5

    def __init__(self, runner: Runner, wl: Workload, enabled: bool):
        self.runner = runner
        self.wl = wl
        self.enabled = enabled
        self.setup: list[float] = []
        self.latency: dict[int, list[float]] = {}
        self.records: dict[str, dict | None] = {}
        self.problems: list[str] = []
        self.probe: subprocess.Popen | None = None
        self.killer: threading.Timer | None = None
        self.n_notes = 0

    def import_time(self) -> None:
        res = self.runner.run(["-c", "import perioparse.cli"])
        if res["code"] != 0:
            raise RunError(f"import perioparse.cli failed: {res['stderr'][-2000:]}")
        self.setup.append(res["wall_s"])

    def _start_probe(self) -> None:
        corpus = self.wl.probe_corpus
        with open(corpus, encoding="utf-8") as fh:
            self.n_notes = sum(1 for line in fh if line.strip())
        spec_path = WORK / "probe.spec.json"
        spec_path.write_text(json.dumps({"corpus": str(corpus), "mode": self.wl.probe_mode}))
        self.probe = subprocess.Popen(
            [sys.executable, LIBCALLS, "chain", spec_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=self.runner.env,
            text=True,
        )
        self.killer = threading.Timer(max(0.1, self.runner.deadline - time.monotonic()), self.probe.kill)
        self.killer.start()

    def after_step(self, position: int, latencies: list[float] | None = None) -> None:
        if not self.enabled:
            return
        self.import_time()
        if latencies is not None:
            indices = range(len(latencies))
        elif self.problems:
            return
        else:
            if self.probe is None:
                self._start_probe()
            indices = self.wl.probe_chunks(self.n_notes)[position]
            latencies = self._probe_chunk(indices)
            if latencies is None:
                return
        for i, ms in zip(indices, latencies):
            self.latency.setdefault(i, []).append(ms)

    def _probe_chunk(self, indices: list[int]) -> list[float] | None:
        try:
            self.probe.stdin.write(json.dumps(indices) + "\n")
            self.probe.stdin.flush()
            reply = self.probe.stdout.readline()
        except BrokenPipeError:
            reply = ""
        if not reply:
            self.problems.append("latency probe exited")
            return None
        payload = json.loads(reply)
        self.records.update(payload["records"])
        return payload["latency_ms"]

    def finish(self) -> dict | None:
        """Stop the probe; its check compares every record it computed with
        the CLI's extract output. Returns the probe's step, if it ran."""
        while len(self.setup) < self.MIN_SETUP_SAMPLES:
            self.import_time()
        if self.probe is None:
            return None
        self.close()
        problems = self.problems or check_same_records(self.records, self.wl.pred_records)
        return {"name": "probe", "code": self.probe.returncode, "wall_s": 0.0, "cpu_s": 0.0,
                "rss_mb": 0.0, "timed": False, "problems": problems, "digests": {}}

    def close(self) -> None:
        if self.probe is not None and self.probe.returncode is None:
            try:
                self.probe.stdin.close()
            except BrokenPipeError:
                pass
            self.probe.wait()
            self.killer.cancel()


# --------------------------------------------------------------------------
# metrics


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with fewer than 20 samples no percentile qualifies and the maximum
    is reported as percentile 100."""
    n = len(values)
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct)
    return 100.0, max(values)


def end_to_end(iterations: list[list[dict]], sampler: Sampler) -> dict:
    timed = [[s for s in steps if s["timed"]] for steps in iterations]
    # Each note's latency is the mean of its samples, taken in different
    # windows of the run; p50 and tail are then over notes. A mean moves
    # smoothly with the share of samples a busy host slowed down, where a
    # median of a few samples jumps between the fast and the slow value.
    latencies = [statistics.fmean(v) for _, v in sorted(sampler.latency.items())]
    if not latencies:
        raise RunError("no latency samples: every probe or sweep step failed")
    tail_pct, tail_ms = tail(latencies)
    values = {
        "setup_s": (statistics.median(sampler.setup), "s"),
        "wall_s": (statistics.median(sum(s["wall_s"] for s in t) for t in timed), "s"),
        "cpu_s": (statistics.median(sum(s["cpu_s"] for s in t) for t in timed), "s"),
        "peak_rss_mb": (statistics.median(max(s["rss_mb"] for s in t) for t in timed), "MB"),
        "note_latency_p50_ms": (statistics.median(latencies), "ms"),
        "note_latency_tail_ms": (tail_ms, "ms"),
    }
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "tail_pct": tail_pct,
        "samples": sum(len(v) for v in sampler.latency.values()),
        "notes": len(latencies),
    }


PER_LAYER_UNITS = {
    "corpus.read_corpus.ms": "ms",
    "corpus.read_corpus.notes_per_s": "notes/s",
    "corpus.write_corpus.ms": "ms",
    "corpus.write_corpus.notes_per_s": "notes/s",
    "synthesis.generate_offline.ms": "ms",
    "synthesis.generate_offline.notes_per_s": "notes/s",
    "synthesis.validate_labels.ms": "ms",
    "synthesis.qa_failures": "count",
    "extraction.tokenize.mchar_per_s": "Mchar/s",
    "extraction.extract_statements.mchar_per_s": "Mchar/s",
    "extraction.long_short_ratio": "ratio",
    "extraction.tokens": "count",
    "extraction.statements": "count",
    "extraction.spans": "count",
    "normalization.adjudicate.calls_per_s": "calls/s",
    "normalization.infer_status_context.ms": "ms",
    "normalization.candidates": "count",
    "evaluation.evaluate_corpus.ms": "ms",
    "evaluation.learning_curve.ms": "ms",
    "evaluation.learning_curve.doubling_ratio": "ratio",
    "reporting.render.ms": "ms",
    "cli.overhead_s": "s",
    "cli.synth.notes_per_s": "notes/s",
    "cli.extract.mchar_per_s": "Mchar/s",
    "cli.evaluate.s": "s",
    "trace.overhead_frac": "fraction",
}


def per_layer(spans: list[dict], child: dict, steps: list[dict], wl: Workload) -> dict:
    """Layer metrics from the traced pass; a layer the workload does not
    exercise reports 0."""
    dur: Counter = Counter()
    items: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        dur[s["name"]] += s["end"] - s["start"]
        items[s["name"]] += s["n"]
        calls[s["name"]] += 1
    counts = child["counts"]

    def ms(name):
        return dur[name] * 1e3

    def rate(name, scale=1.0):
        return items[name] / dur[name] / scale if dur[name] else 0.0

    extract_spans = [s for s in spans if s["name"] == "extraction.extract_statements"]
    long_short = 0.0
    if len(extract_spans) >= 2:
        ordered = sorted(extract_spans, key=lambda s: s["n"])
        q = max(1, len(ordered) // 4)

        def throughput(group):
            return sum(s["n"] for s in group) / sum(s["end"] - s["start"] for s in group)

        long_short = throughput(ordered[-q:]) / throughput(ordered[:q])

    alone = sum(d for name, d in dur.items() if name.startswith("alone:"))
    cli_wall = sum(s["wall_s"] for s in steps if s["timed"])
    by_step = {s["name"]: s for s in steps}
    values = {
        "corpus.read_corpus.ms": ms("corpus.read_corpus"),
        "corpus.read_corpus.notes_per_s": rate("corpus.read_corpus"),
        "corpus.write_corpus.ms": ms("corpus.write_corpus"),
        "corpus.write_corpus.notes_per_s": rate("corpus.write_corpus"),
        "synthesis.generate_offline.ms": ms("synthesis.generate_offline"),
        "synthesis.generate_offline.notes_per_s": rate("synthesis.generate_offline"),
        # validate_labels' own share: its time minus the extraction and
        # adjudication it runs, timed alone on the same notes.
        "synthesis.validate_labels.ms": ms("synthesis.validate_labels")
        - ms("alone:extraction.extract_statements")
        - ms("alone:normalization.infer_status_context")
        - ms("alone:normalization.adjudicate"),
        "synthesis.qa_failures": counts.get("synthesis.qa_failures", 0),
        "extraction.tokenize.mchar_per_s": rate("alone:extraction.tokenize", 1e6),
        "extraction.extract_statements.mchar_per_s": rate("extraction.extract_statements", 1e6),
        "extraction.long_short_ratio": long_short,
        "extraction.tokens": counts.get("extraction.tokens", 0),
        "extraction.statements": counts.get("extraction.statements", 0),
        "extraction.spans": counts.get("extraction.spans", 0),
        "normalization.adjudicate.calls_per_s": (
            calls["normalization.adjudicate"] / dur["normalization.adjudicate"]
            if dur["normalization.adjudicate"]
            else 0.0
        ),
        "normalization.infer_status_context.ms": ms("normalization.infer_status_context"),
        "normalization.candidates": counts.get("normalization.candidates", 0),
        "evaluation.evaluate_corpus.ms": ms("evaluation.evaluate_corpus"),
        "evaluation.learning_curve.ms": ms("evaluation.learning_curve"),
        "evaluation.learning_curve.doubling_ratio": (
            dur["evaluation.learning_curve"] / dur["alone:evaluation.learning_curve"]
            if dur["alone:evaluation.learning_curve"]
            else 0.0
        ),
        "reporting.render.ms": ms("reporting.render"),
        # The CLI steps' wall time minus the same library calls made in one
        # process without spans: interpreter start, imports and glue.
        "cli.overhead_s": cli_wall - child["untraced_s"] if wl.cli_steps else 0.0,
        "cli.synth.notes_per_s": (
            wl.counts.get("synth.notes", 0) / by_step["synth"]["wall_s"] if "synth" in by_step else 0.0
        ),
        "cli.extract.mchar_per_s": (
            statistics.median(wl.extra["extract_mchar_per_s"]) if "extract" in by_step else 0.0
        ),
        "cli.evaluate.s": by_step["evaluate"]["wall_s"] if "evaluate" in by_step else 0.0,
        "trace.overhead_frac": (child["traced_s"] - alone - child["untraced_s"]) / child["untraced_s"],
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


# --------------------------------------------------------------------------
# main


def run(args) -> tuple[dict, dict]:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    try:
        return measure(args, runner)
    finally:
        runner.close()


def repeat(args, wl: Workload, sampler: Sampler) -> tuple[list[list[dict]], dict | None]:
    """Run iterations until the next one would end after ``--seconds``. A
    traced run makes one iteration and no interleaved samples."""
    if sampler.enabled:
        sampler.import_time()  # warm-up: compiles byte code, not counted
        sampler.setup.clear()
    iterations = []
    start = time.perf_counter()
    while True:
        it_start = time.perf_counter()
        it_dir = WORK / "iter"
        if it_dir.exists():
            shutil.rmtree(it_dir)
        it_dir.mkdir()
        iterations.append(wl.iteration(it_dir, sampler.after_step))
        now = time.perf_counter()
        last = now - it_start
        if args.trace or now - start + last > args.seconds:
            break
        if time.monotonic() + 2 * last > sampler.runner.deadline:
            break
    return iterations, (sampler.finish() if sampler.enabled else None)


def measure(args, runner: Runner) -> tuple[dict, dict]:
    wl = WORKLOAD_CLASSES[args.workload](runner, args.seed, SIZES[args.size], args.corrupt_predictions)
    wl.setup()
    detail = {"workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace}
    sampler = Sampler(runner, wl, enabled=not args.trace)
    try:
        iterations, probe_step = repeat(args, wl, sampler)
    finally:
        sampler.close()

    # The same inputs must give byte-identical outputs in every iteration.
    first = {s["name"]: s["digests"] for s in iterations[0]}
    for steps in iterations[1:]:
        for s in steps:
            if s["digests"] != first.get(s["name"]):
                s["problems"].append("output differs from the first iteration")

    all_steps = [s for steps in iterations for s in steps]
    if probe_step is not None:
        all_steps.append(probe_step)
    if args.trace:
        spec = dict(wl.trace_spec(WORK / "iter"), workload=wl.name)
        trace_dir = WORK / "trace"
        trace_dir.mkdir()
        spec.update(work=str(trace_dir), spans_out=str(WORK / "spans.jsonl"))
        res, child = runner.lib("trace", spec, "trace")
        problems = expect_code(res)
        # Where the traced pass re-ran extract, its output must be the CLI's.
        lib_pred = trace_dir / "pred.jsonl"
        if not problems and lib_pred.exists():
            if sha256(lib_pred) != sha256(WORK / "iter" / "pred.jsonl"):
                problems.append("library extract output is not byte-identical to the CLI's")
        all_steps.append(step("trace", res, problems, timed=False))
        if child is None:
            raise RunError(f"traced run failed: {problems} {res['stderr'][-2000:]}")
        metrics = per_layer(read_jsonl(WORK / "spans.jsonl"), child, iterations[0], wl)
        detail["spans"] = str((WORK / "spans.jsonl").relative_to(ROOT))
    else:
        summary = end_to_end(iterations, sampler)
        metrics = summary["metrics"]
        detail["note_latency_tail_pct"] = summary["tail_pct"]
        detail["note_latency_samples"] = summary["samples"]
        detail["note_latency_notes"] = summary["notes"]
        detail["setup_s_samples"] = sampler.setup

    failed = sum(1 for s in all_steps if s["problems"])
    units = {
        "synth_notes_per_s": "notes/s",
        "extract_mchar_per_s": "Mchar/s",
        "evaluate_s": "s",
        "adjudications_per_s": "1/s",
    }
    detail.update(
        iterations=len(iterations),
        stage_metrics={
            k: {"value": statistics.median(v), "unit": units[k]} for k, v in wl.extra.items()
        },
        failed_fraction=failed / len(all_steps),
        problems=[f"{s['name']}: {p}" for s in all_steps for p in s["problems"]][:20],
        counts=wl.counts,
        input_sha256=digests(wl.input_paths()),
        output_sha256=first,
        steps=[
            {k: s[k] for k in ("name", "code", "wall_s", "cpu_s", "rss_mb")} for s in all_steps
        ],
    )
    result = {
        "correct": failed == 0,
        "attempted": len(all_steps),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for smoke tests")
    parser.add_argument(
        "--corrupt-predictions",
        action="store_true",
        help="test hook: replace every predicted record with a wrong one before the checks",
    )
    args = parser.parse_args(argv)
    if not (SRC / "perioparse" / "cli.py").is_file():
        print(f"error: no perioparse sources under {SRC}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for name, m in detail["stage_metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_fraction':45s} {detail['failed_fraction']:.6g}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
