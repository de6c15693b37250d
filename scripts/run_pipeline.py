#!/usr/bin/env python3
"""End-to-end offline experiment: synthesize, split, extract, evaluate.

Builds a demo seed-template set, renders a clean corpus and a perturbed one,
runs the built-in extractor over both, and writes metrics, confusion
matrices, chart data, and a learning curve under --out-dir. Everything is
seeded, so reruns reproduce the same files.
"""

import argparse
import sys
from pathlib import Path

from perioparse.cli import main as cli
from perioparse.corpus import write_corpus
from perioparse.demo import demo_seed_notes
from perioparse.synthesis import PERTURBATION_RATES, VARIANTS_PER_TEMPLATE


def run(argv: list) -> None:
    argv = [str(a) for a in argv]
    # synth exits 1 for label-QA findings, which the perturbed corpus is
    # expected to have, and writes its corpus before it reports them; on bad
    # input it exits 1 without writing one. For every other step 1 is a data
    # error.
    out = Path(argv[argv.index("--out") + 1]) if argv[0] == "synth" else None
    if out is not None:
        out.unlink(missing_ok=True)
    code = cli(argv)
    if code != 0 and not (code == 1 and out is not None and out.exists()):
        raise SystemExit(f"step {argv[0]} failed with exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-category", type=int, default=15)
    parser.add_argument("--variants", type=int, default=VARIANTS_PER_TEMPLATE)
    parser.add_argument("--rate", type=float, default=0.15, help="perturbation rate for the robustness corpus")
    args = parser.parse_args()

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    templates = out / "templates.jsonl"
    write_corpus(demo_seed_notes(args.per_category), templates)
    print(f"wrote {args.per_category * 3} seed templates -> {templates}")

    clean = out / "clean.jsonl"
    run(["synth", "--offline", "--templates", templates, "--seed", args.seed,
         "--variants", args.variants, "--out", clean])

    run(["split", clean, out / "manifest.json", "--ratios", "8:1:1", "--seed", args.seed])

    pred_clean = out / "pred_clean.jsonl"
    run(["extract", clean, pred_clean, "--mode", "strict"])
    run(["evaluate", clean, pred_clean, out / "eval_clean", "--report", "text-table", "--curve"])

    perturb_cfg = out / "perturb.cfg"
    perturb_cfg.write_text(
        "".join(f"{key} = {args.rate}\n" for key in PERTURBATION_RATES),
        encoding="utf-8",
    )
    perturbed = out / "perturbed.jsonl"
    run(["synth", "--offline", "--templates", templates, "--config", perturb_cfg,
         "--seed", args.seed, "--variants", args.variants, "--out", perturbed])

    pred_perturbed = out / "pred_perturbed.jsonl"
    run(["extract", perturbed, pred_perturbed, "--mode", "informal"])
    run(["evaluate", perturbed, pred_perturbed, out / "eval_perturbed",
         "--report", "text-table", "--curve"])

    print(f"\nartifacts under {out}/")
    print((out / "eval_perturbed" / "report.txt").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
