"""Command-line interface.

Subcommands cover each pipeline stage (train, mine, filter, complete,
segment) plus the end-to-end recipes (ctt, selftrain, partialcrf) and the
reporting tools (eval, stats, disagree). Every command that writes a file
also writes ``<output>.manifest.json`` recording the exact invocation, so
runs can be reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import alignment, crf, evaluate, mining, pipeline
from .errors import InvalidConfig, PausesegError
from .segments import read_gold_corpus, write_gold_corpus

# Every setting a config file may hold; each command reads only those it uses.
DEFAULTS = {
    **{f.name: f.default for f in dataclasses.fields(crf.TrainConfig)},
    "threshold": mining.DEFAULT_THRESHOLD,
    "min_pause_ms": alignment.DEFAULT_MIN_PAUSE_MS,
}


def _check_setting(key: str, value):
    """``value`` as its default's type (int or float); ``InvalidConfig`` if it does not fit."""
    if type(value) not in (int, float):
        raise InvalidConfig(f"{key} must be a number, not {value!r}")
    if type(DEFAULTS[key]) is int:
        if not float(value).is_integer():
            raise InvalidConfig(f"{key} must be an integer, not {value!r}")
        return int(value)
    if key == "threshold" and not 0.0 <= value <= 1.0:
        raise InvalidConfig(f"threshold must be in [0, 1], not {value!r}")
    return float(value)


def _read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidConfig(f"{path}: expected a JSON object of settings")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys: {sorted(unknown)}")
    try:
        return {key: _check_setting(key, value) for key, value in loaded.items()}
    except InvalidConfig as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc


def _settings(args) -> dict:
    """Merge defaults, an optional JSON config file, and CLI flags (flags win)."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = _check_setting(key, value)
    return settings


def _train_config(args) -> crf.TrainConfig:
    settings = _settings(args)
    fields = dataclasses.fields(crf.TrainConfig)
    return crf.TrainConfig(**{f.name: settings[f.name] for f in fields})


def _write_manifest(primary_output, args, config: dict, inputs, outputs):
    manifest = {
        "tool": "pauseseg",
        "format": 1,
        "command": args.command,
        "argv": [str(a) for a in args._argv],
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    path = str(primary_output) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _load_gold(path, strip: bool):
    sentences = read_gold_corpus(path)
    return pipeline.strip_punctuation(sentences) if strip else sentences


def _load_partial(path, strip: bool):
    partials = mining.read_partial_corpus(path)
    return pipeline.strip_punctuation_partial(partials) if strip else partials


def _read_alignment_files(paths, tier_name: str, frame_offset_ms: float):
    out = []
    for p in paths:
        if str(p).lower().endswith(".textgrid"):
            out.append(alignment.read_textgrid(p, tier_name, frame_offset_ms))
        else:
            out.extend(alignment.read_alignments(p))
    return out


# ---------------------------------------------------------------------------
# Commands


def _cmd_train(args) -> int:
    config = _train_config(args)
    gold = _load_gold(args.gold, args.strip_punct)
    dev = _load_gold(args.dev, args.strip_punct) if args.dev else None
    model = pipeline.train_baseline(gold, config, dev=dev)
    model.save(args.model_out)
    _write_manifest(
        args.model_out, args, dataclasses.asdict(config),
        inputs=[args.gold] + ([args.dev] if args.dev else []),
        outputs=[args.model_out],
    )
    print(f"wrote model to {args.model_out}")
    return 0


def _cmd_segment(args) -> int:
    model = crf.CrfModel.load(args.model)
    with open(args.input, encoding="utf-8") as fh:
        # whitespace is not text to segment: "有人 在倾听" is read as "有人在倾听"
        sentences = ["".join(line.split()) for line in fh if line.strip()]
    segmented = pipeline.segment_corpus(model, sentences)
    write_gold_corpus(args.output, segmented)
    _write_manifest(
        args.output, args, {},
        inputs=[args.model, args.input], outputs=[args.output],
    )
    print(f"segmented {len(segmented)} sentences to {args.output}")
    return 0


def _cmd_mine(args) -> int:
    min_pause_ms = _settings(args)["min_pause_ms"]
    model = crf.CrfModel.load(args.model)
    alignments = _read_alignment_files(
        args.alignments, args.tier_name, args.frame_offset_ms
    )
    scored = pipeline.score_alignments(model, alignments, min_pause_ms)
    records = [(a.utterance_id, a.sentence, pauses) for a, pauses in zip(alignments, scored)]
    mining.write_scored_pauses(args.output, records)
    _write_manifest(
        args.output, args, {"min_pause_ms": min_pause_ms},
        inputs=[args.model] + list(args.alignments), outputs=[args.output],
    )
    n_pauses = sum(len(p) for _, _, p in records)
    print(f"scored {n_pauses} pauses in {len(records)} utterances to {args.output}")
    return 0


def _cmd_filter(args) -> int:
    threshold = _settings(args)["threshold"]
    records = mining.read_scored_pauses(args.scored)
    partials = []
    kept = total = 0
    for _, sentence, pauses in records:
        surviving = mining.filter_pauses(pauses, threshold)
        kept += len(surviving)
        total += len(pauses)
        partials.append(mining.pauses_to_partial(sentence, surviving))
    mining.write_partial_corpus(args.output, partials)
    _write_manifest(
        args.output, args, {"threshold": threshold},
        inputs=[args.scored], outputs=[args.output],
    )
    print(f"kept {kept} of {total} pauses at threshold {threshold} -> {args.output}")
    return 0


def _cmd_complete(args) -> int:
    model = crf.CrfModel.load(args.model)
    partials = _load_partial(args.partial, args.strip_punct)
    completed = pipeline.complete_corpus(model, partials)
    write_gold_corpus(args.output, completed)
    _write_manifest(
        args.output, args, {},
        inputs=[args.model, args.partial], outputs=[args.output],
    )
    print(f"completed {len(completed)} sentences to {args.output}")
    return 0


def _cmd_recipe(args) -> int:
    """``ctt``, ``selftrain`` or ``partialcrf``, as the subcommand names."""
    config = _train_config(args)
    source = _load_gold(args.source, args.strip_punct)
    target = _load_partial(args.target, args.strip_punct)
    dev = _load_gold(args.dev, args.strip_punct) if args.dev else None
    outputs = [args.model_out]
    if args.command == "partialcrf":
        model = pipeline.run_partial_crf(source, target, config, dev=dev)
    else:
        baseline = crf.CrfModel.load(args.baseline) if args.baseline else None
        result = pipeline.run_ctt(
            source, target, config, dev=dev, baseline=baseline,
            self_training=args.command == "selftrain",
        )
        model = result.model
        if args.baseline_out:
            result.baseline.save(args.baseline_out)
            outputs.append(args.baseline_out)
        if args.completed_out:
            write_gold_corpus(args.completed_out, result.completed)
            outputs.append(args.completed_out)
        print(f"completed {result.used} target sentences, skipped {result.skipped}")
    model.save(args.model_out)
    _write_manifest(
        args.model_out, args, dataclasses.asdict(config),
        inputs=[args.source, args.target] + ([args.dev] if args.dev else []),
        outputs=outputs,
    )
    print(f"wrote model to {args.model_out}")
    return 0


def _cmd_eval(args) -> int:
    gold = read_gold_corpus(args.gold)
    pred = read_gold_corpus(args.pred)
    score = evaluate.prf(gold, pred)
    print(f"precision {score.precision:.4f}")
    print(f"recall    {score.recall:.4f}")
    print(f"f1        {score.f1:.4f}")
    print(
        f"words: gold {score.gold_words}, predicted {score.pred_words}, "
        f"correct {score.correct_words}"
    )
    print(f"single-char rate {evaluate.single_char_word_rate(pred):.4f}")
    return 0


def _cmd_stats(args) -> int:
    records = mining.read_scored_pauses(args.scored)
    pause_lists = [pauses for _, _, pauses in records]
    gold = read_gold_corpus(args.gold) if args.gold else None
    stats = mining.pause_statistics(pause_lists, gold)
    sys.stdout.write(mining.format_stats_report(stats))
    return 0


def _cmd_disagree(args) -> int:
    pred_a = read_gold_corpus(args.pred_a)
    pred_b = read_gold_corpus(args.pred_b)
    rows = evaluate.build_review_rows(pred_a, pred_b, seed=args.seed or 0)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(evaluate.format_review_tsv(rows))
    _write_manifest(
        args.output, args, {"seed": args.seed or 0},
        inputs=[args.pred_a, args.pred_b], outputs=[args.output],
    )
    print(f"wrote {len(rows)} disagreement rows to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with training settings")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--batch-chars", dest="batch_chars", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strip-punct", dest="strip_punct", action="store_true")
    p.add_argument("--dev", help="gold corpus for best-epoch selection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauseseg",
        description="Mine word boundaries from speech pauses and train a segmenter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a segmenter on a gold corpus")
    p.add_argument("gold")
    p.add_argument("-o", "--model-out", dest="model_out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("segment", help="segment raw sentences with a model")
    p.add_argument("model")
    p.add_argument("input", help="one sentence per line")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("mine", help="detect pauses and score them with a model")
    p.add_argument("model")
    p.add_argument("alignments", nargs="+", help="alignment JSON or .TextGrid files")
    p.add_argument("-o", "--output", required=True, help="scored-pause JSON lines")
    p.add_argument("--min-pause-ms", dest="min_pause_ms", type=float, default=None)
    p.add_argument("--tier-name", default="characters")
    p.add_argument(
        "--frame-offset-ms", dest="frame_offset_ms", type=float,
        default=alignment.DEFAULT_FRAME_OFFSET_MS,
    )
    p.add_argument("--config")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("filter", help="keep pauses above a boundary probability")
    p.add_argument("scored", help="scored-pause JSON lines")
    p.add_argument("-o", "--output", required=True, help="partial corpus ('|' marks)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("complete", help="fill partial annotations by constrained decoding")
    p.add_argument("model")
    p.add_argument("partial")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strip-punct", dest="strip_punct", action="store_true")
    p.set_defaults(func=_cmd_complete)

    for name, help_text in (
        ("ctt", "complete-then-train on source gold plus target constraints"),
        ("selftrain", "self-training: complete the target without constraints"),
        ("partialcrf", "single model on gold plus marginalized partial loss"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source", help="source-domain gold corpus")
        p.add_argument("target", help="target-domain partial corpus")
        p.add_argument("-o", "--model-out", dest="model_out", required=True)
        _add_train_flags(p)
        if name != "partialcrf":
            p.add_argument("--baseline", help="reuse an already trained baseline model")
            p.add_argument("--baseline-out", dest="baseline_out")
            p.add_argument("--completed-out", dest="completed_out")
        p.set_defaults(func=_cmd_recipe)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="tabulate scored pauses by duration and probability")
    p.add_argument("scored")
    p.add_argument("--gold", help="gold corpus to check pauses against")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("disagree", help="blind review sheet for two outputs")
    p.add_argument("pred_a")
    p.add_argument("pred_b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_disagree)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except (PausesegError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
