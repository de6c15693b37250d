"""Command-line pipeline: cohort -> synth -> split -> extract -> evaluate.

Subcommands compose through files only. Every randomized step takes an
explicit seed so results replay exactly. Exit codes: 0 success, 2 usage or
configuration error, 1 data failure: any other `ValueError` from the library,
an `OSError` or a `GenerationError`.

Each subcommand loads only the library modules it runs: this module imports
`perioparse.model` alone, for the parser's choices, and each `_cmd_*` imports
the rest, so `--help` and `split` never load the grammar or the scorer.

Each subcommand checks all its flags and config values before it opens any
input file, so a refused one exits 2 having read and written nothing. The one
exception: `synth --online` checks the endpoint URL's form and the API key
variable when it starts generating, after the templates are read.

Work that is per note streams: a subcommand reads, works on and writes one
note before the next, and an output replaces its target only after its last
line. The README's file-format section names the paths that hold a corpus.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import math
import sys
import typing
from pathlib import Path

from .model import MODES, REPORT_FORMATS, Dimension


class UsageError(ValueError):
    """Bad flags or configuration; maps to exit code 2."""


def _config_types() -> dict:
    """Every accepted config key and the type its value converts to.

    The keys are `synthesis.GenerationConfig`'s fields, `prompt_file` and the
    perturbation rates. Built per call, as it loads `synthesis`.
    """
    from .synthesis import PERTURBATION_RATES, GenerationConfig

    return {
        **typing.get_type_hints(GenerationConfig),
        "prompt_file": str,
        **dict.fromkeys(PERTURBATION_RATES, float),
    }


def read_config(path) -> dict:
    """Parse a `key = value` config file into typed values; `#` starts a comment.

    An unknown or repeated key, or a value of the wrong type, is a usage error naming the key.
    """
    config_types = _config_types()
    values: dict = {}
    seen: dict[str, int] = {}  # key -> line it was set on
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in config_types:
            known = ", ".join(config_types)
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}; accepted: {known}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: config key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = config_types[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--ratios expects three numbers a:b:c, got {text!r}")
    try:
        weights = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--ratios has a non-numeric part: {text!r}") from exc
    total = sum(weights)
    if not (all(w > 0 for w in weights) and total < math.inf):
        raise UsageError(f"--ratios parts must be positive with a finite sum, got {text!r}")
    return tuple(w / total for w in weights)


# --------------------------------------------------------------------------
# subcommands

# `synth` draws this many notes, then checks their labels: alternating
# generation and label QA note by note ran ~12% slower over 4,500 notes.
_SYNTH_BATCH = 64


def _cmd_cohort(args) -> int:
    from .corpus import cohort_filter, iter_corpus, read_patient_meta, write_corpus

    notes = iter_corpus(args.corpus_in)
    first = list(itertools.islice(notes, 1))  # a missing corpus is named before the meta file
    meta_by_id = read_patient_meta(args.meta_in)
    total = eligible = 0

    def eligible_notes():
        nonlocal total, eligible
        for annotated in itertools.chain(first, notes):
            total += 1
            meta = meta_by_id.get(annotated.note.note_id, annotated.meta)
            if meta is not None and cohort_filter(meta):
                eligible += 1
                yield annotated.with_(meta=meta)

    write_corpus(eligible_notes(), args.corpus_out)
    print(f"{eligible}/{total} eligible")
    return 0


def _cmd_synth(args) -> int:
    from .corpus import iter_corpus, read_corpus, write_corpus
    from .synthesis import (
        DEFAULT_PROMPT_SECTIONS,
        PERTURBATION_RATES,
        GenerationConfig,
        PerturbationSpec,
        iter_offline,
        read_prompt_sections,
        select_seed_templates,
        templates_from_corpus,
        validate_labels,
        verdict_to_obj,
    )

    try:
        if args.seed is None and (args.corpus or args.offline):
            raise UsageError("--seed is required with --corpus and with --offline")
        if args.seed is not None and args.online and args.templates:
            raise UsageError("--seed does nothing with --online --templates")
        if args.per_category is not None:
            if not args.corpus:
                raise UsageError("--per-category works only with --corpus")
            if args.per_category < 1:
                raise UsageError(f"--per-category must be at least 1, got {args.per_category}")
        # The prompt file and the rates come out of the config; the rest are generation settings.
        settings = read_config(args.config) if args.config else {}
        prompt_file = settings.pop("prompt_file", None)
        sections = read_prompt_sections(prompt_file) if prompt_file else DEFAULT_PROMPT_SECTIONS
        # Both engines' specs are built, so every config value is checked whichever runs.
        rates = {key: settings.pop(key) for key in PERTURBATION_RATES if key in settings}
        perturb = PerturbationSpec(rng_seed=args.seed, **rates)
        if args.variants is not None:
            settings["variants_per_template"] = args.variants
        service = dict.fromkeys(("model_name", "endpoint_url"), "")  # required with --online
        gen_config = GenerationConfig(**{**service, **settings})
        if args.offline:
            generate = functools.partial(
                iter_offline, variants_per_template=gen_config.variants_per_template,
                perturb=perturb,
            )
        else:
            for key in service:
                if key not in settings:
                    raise UsageError(f"--online requires {key!r} in the config file")
            from .llm import generate_llm

            generate = functools.partial(generate_llm, config=gen_config, sections=sections)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.templates:
        templates = templates_from_corpus(read_corpus(args.templates))
    else:
        templates = select_seed_templates(
            iter_corpus(args.corpus), per_category=args.per_category or 15, seed=args.seed
        )
    generated = failed = 0

    def checked_notes():
        nonlocal generated, failed
        notes = iter(generate(templates))  # generate_llm returns a list
        while batch := list(itertools.islice(notes, _SYNTH_BATCH)):
            generated += len(batch)
            for annotated in batch:
                verdict = validate_labels(annotated)
                qa = verdict_to_obj(verdict)
                if not verdict.consistent:
                    if args.fix_labels:
                        annotated = annotated.with_(record=verdict.extracted)
                        qa["auto_fixed"] = True
                    else:
                        failed += 1
                yield annotated.with_(qa=qa)

    write_corpus(checked_notes(), args.out)
    print(f"generated {generated} notes from {len(templates)} templates")
    if failed:
        print(f"{failed} notes failed label QA (rerun with --fix-labels to auto-fix)")
        return 1
    return 0


def _cmd_split(args) -> int:
    from .corpus import iter_corpus, split_corpus, write_manifest

    ratios = _parse_ratios(args.ratios)
    manifest = split_corpus(iter_corpus(args.corpus_in), ratios=ratios, seed=args.seed)
    write_manifest(manifest, args.manifest_out)
    train, val, test = manifest.sizes()
    print(f"split {train + val + test} notes into {train}/{val}/{test}")
    return 0


def _cmd_extract(args) -> int:
    from .corpus import (
        AnnotationSource,
        iter_corpus,
        load_external_predictions,
        read_corpus,
        write_corpus,
    )
    from .extraction import diagnose, group_statements
    from .normalization import adjudicate, classify_guideline_version, infer_status_context

    kind, _, path = args.extractor.partition("=")
    if args.extractor != "builtin" and not (kind == "predictions" and path):
        raise UsageError(
            f"--extractor must be 'builtin' or 'predictions=<path>', got {args.extractor!r}"
        )
    if path:  # every prediction line is checked against its note's text before any is used
        notes = read_corpus(args.corpus_in)
        predictions = load_external_predictions(path, notes)
    else:
        notes, predictions = iter_corpus(args.corpus_in), None
    count = 0

    def extracted_notes():
        nonlocal count
        for annotated in notes:
            count += 1
            if predictions is None:
                spans, record = diagnose(annotated.note.text, args.mode)
            else:
                spans = predictions.get(annotated.note.note_id, ())
                statements = group_statements(annotated.note.text, spans)
                record = adjudicate(infer_status_context(statements))
            yield annotated.with_(
                spans=spans,
                record=record,
                annotation_source=AnnotationSource.PREDICTED,
                guideline_version=classify_guideline_version(record) if record else None,
                qa=None,
            )

    write_corpus(extracted_notes(), args.out)
    source = f"{args.mode} mode" if predictions is None else args.extractor
    print(f"extracted {count} notes ({source})")
    return 0


# Each flag only `evaluate --curve` reads, and the `learning_curve` parameter it sets;
# a flag not given leaves that parameter's default.
_CURVE_FLAGS = {
    "--step": "step", "--epsilon": "epsilon", "--window": "window", "--curve-seed": "seed",
    "--dimension": "dimension",
}


def _cmd_evaluate(args) -> int:
    from .corpus import atomic_write_text, iter_corpus, read_corpus
    from .evaluation import evaluate_corpus, learning_curve, notes_by_site
    from .reporting import (
        average_rows,
        bar_chart_data,
        confusion_chart_data,
        json_text,
        learning_curve_to_obj,
        render_report,
    )

    given = {flag: getattr(args, name) for flag, name in _CURVE_FLAGS.items()}
    given = {flag: value for flag, value in given.items() if value is not None}
    if given and not args.curve:
        raise UsageError(f"{next(iter(given))} works only with --curve")
    for flag in ("--step", "--window"):
        if given.get(flag, 1) < 1:
            raise UsageError(f"{flag} must be at least 1, got {given[flag]}")
    if not 0 < given.get("--epsilon", 1) < math.inf:
        raise UsageError(f"--epsilon must be finite and above 0, got {given['--epsilon']}")
    curve_args = {_CURVE_FLAGS[flag]: value for flag, value in given.items()}
    if "dimension" in curve_args:
        curve_args["dimension"] = Dimension(curve_args["dimension"])
    read = read_corpus if args.curve else iter_corpus  # the curve shuffles the whole gold pool
    gold, pred = read(args.gold_in), read(args.pred_in)
    results = evaluate_corpus(gold, pred)
    if not results:  # every gold note has a site, so only an empty gold corpus gives none
        raise ValueError("no gold notes to score")

    out_dir = Path(args.out_dir)
    tables = [table for _, table in results.values()]
    matrices_by_site = {site: matrices for site, (matrices, _) in results.items()}
    report = out_dir / f"report.{REPORT_FORMATS[args.report]}"
    atomic_write_text(report, render_report(tables, args.report))
    atomic_write_text(out_dir / "confusion.json", json_text(confusion_chart_data(matrices_by_site)))
    atomic_write_text(out_dir / "bar_chart.json", json_text(bar_chart_data(tables)))

    if args.curve:
        pred_records = {n.note.note_id: n.record for n in pred}
        step = curve_args.get("step", inspect.signature(learning_curve).parameters["step"].default)
        curves = {}
        for site, site_notes in notes_by_site(gold).items():
            if len(site_notes) < step:
                print(f"{site}: {len(site_notes)} notes, fewer than --step {step}; no curve")
                continue
            curve = learning_curve(site_notes, pred_records, **curve_args)
            curves[site] = learning_curve_to_obj(curve)
        atomic_write_text(out_dir / "learning_curve.json", json_text(curves))

    for site, title, average, prf in average_rows(tables):
        if average == "weighted":
            print(f"{site} {title}: weighted F1 {f'{prf.f1:.2f}' if prf else '-'}")
    return 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perioparse",
        description="Periodontal diagnosis extraction and evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohort", help="filter a corpus by patient eligibility")
    p.add_argument("corpus_in")
    p.add_argument("meta_in")
    p.add_argument("corpus_out")
    p.set_defaults(func=_cmd_cohort)

    p = sub.add_parser("synth", help="generate a synthetic corpus from seed templates")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--templates", help="corpus file whose notes all carry records")
    source.add_argument(
        "--corpus",
        help="corpus to select seed templates from, bucketed by the status the grammar reads",
    )
    engine = p.add_mutually_exclusive_group(required=True)
    engine.add_argument("--online", action="store_true")
    engine.add_argument("--offline", action="store_true")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--variants", type=int)
    p.add_argument("--per-category", type=int)
    p.add_argument("--fix-labels", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="deterministic train/validation/test split")
    p.add_argument("corpus_in")
    p.add_argument("manifest_out")
    p.add_argument("--ratios", default="8:1:1")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("extract", help="annotate a corpus with predicted diagnoses")
    p.add_argument("corpus_in")
    p.add_argument("out")
    p.add_argument("--mode", choices=MODES, default="strict")
    p.add_argument("--extractor", default="builtin")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("evaluate", help="score predictions against a gold corpus")
    p.add_argument("gold_in")
    p.add_argument("pred_in")
    p.add_argument("out_dir")
    p.add_argument("--report", choices=list(REPORT_FORMATS), default="text-table")
    p.add_argument("--curve", action="store_true")
    p.add_argument("--step", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--curve-seed", type=int, dest="seed")
    p.add_argument("--dimension", choices=[d.value for d in Dimension])
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        from .llm import ConfigurationError, GenerationError  # loaded here only on failure

        if isinstance(exc, ConfigurationError):
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, (ValueError, GenerationError, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
