"""Command-line interface.

Subcommands cover each pipeline stage (train, mine, filter, complete,
segment) plus the end-to-end recipes (ctt, selftrain, partialcrf) and the
reporting tools (eval, stats, disagree). ``main`` resolves each command's
settings before it runs, and after any command that writes a file it
writes ``<output>.manifest.json`` recording the exact invocation, every
setting and every path, so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import alignment, crf, evaluate, mining, pipeline
from .errors import InvalidConfig, ParseError, PausesegError, SentenceMismatch, WhitespaceInWord
from .segments import read_gold_corpus, read_text, split_lines, write_gold_corpus, write_text

_OPTIMIZER = {f.name: f.default for f in dataclasses.fields(crf.TrainConfig)}
# Every setting a config file may hold; each command reads only those it uses.
DEFAULTS = {
    **_OPTIMIZER,
    "threshold": mining.DEFAULT_THRESHOLD,
    "min_pause_ms": alignment.DEFAULT_MIN_PAUSE_MS,
}


def _check_setting(key: str, value):
    """``value`` as its default's type (int or float), in range; ``InvalidConfig`` if not."""
    if type(value) not in (int, float):
        raise InvalidConfig(f"{key} must be a number, not {value!r}")
    if type(DEFAULTS[key]) is int and not float(value).is_integer():
        raise InvalidConfig(f"{key} must be an integer, not {value!r}")
    value = type(DEFAULTS[key])(value)
    if key in _OPTIMIZER:
        crf.TrainConfig(**{key: value})
    elif key == "min_pause_ms":
        alignment.check_min_pause_ms(value)
    elif key == "threshold":
        mining.check_threshold(value)
    return value


def _read_config_file(path) -> dict:
    try:
        loaded = json.loads(read_text(path))
    except ParseError as exc:  # already names the file
        raise InvalidConfig(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # too many digits for int(), or too deep
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


def _resolve_settings(args) -> list[str]:
    """Write every setting's value into ``args`` and return the settings' names.

    A setting is any dest the subcommand defines that is not a declared path.
    A config key takes its flag, else the ``--config`` file's value, else its
    entry in ``DEFAULTS``; any other setting keeps its argparse value.
    """
    not_settings = ("command", "func", "inputs", "outputs", *args.inputs, *args.outputs)
    names = [key for key in vars(args) if key not in not_settings]
    from_file = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in (key for key in names if key in DEFAULTS):
        flag = getattr(args, key)
        value = from_file.get(key, DEFAULTS[key]) if flag is None else _check_setting(key, flag)
        setattr(args, key, value)
    return names


def _train_config(args) -> crf.TrainConfig:
    return crf.TrainConfig(**{key: getattr(args, key) for key in _OPTIMIZER})


def _write_manifest(args, argv, settings) -> None:
    """``<first output>.manifest.json``: the command line, every setting, every path given."""
    def given(dests):
        values = (getattr(args, dest) for dest in dests)
        return [str(p) for v in values if v for p in (v if isinstance(v, list) else [v])]

    manifest = {
        "tool": "pauseseg",
        "format": 1,
        "command": args.command,
        "argv": [str(a) for a in argv],
        "config": {key: getattr(args, key) for key in settings},
        "inputs": given(args.inputs),
        "outputs": given(args.outputs),
    }
    text = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    write_text(str(getattr(args, args.outputs[0])) + ".manifest.json", text)


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


def _refuse_unwritable_completions(partials) -> None:
    """``WhitespaceInWord`` for the first partial sentence holding whitespace.

    Every character of a completion is in a word, and the gold format holds
    no whitespace in one, so such a sentence is refused before it is decoded.
    """
    for p in partials:
        if any(map(str.isspace, p.chars)):
            raise WhitespaceInWord(
                f"target sentence {p.chars!r} holds whitespace, so its completion"
                " cannot be written in the gold format"
            )


# ---------------------------------------------------------------------------
# Commands


def _cmd_train(args) -> int:
    gold = _load_gold(args.gold, args.strip_punct)
    dev = _load_gold(args.dev, args.strip_punct) if args.dev else None
    model = pipeline.train_baseline(gold, _train_config(args), dev=dev)
    model.save(args.model_out)
    print(f"wrote model to {args.model_out}")
    return 0


def _cmd_segment(args) -> int:
    model = crf.CrfModel.load(args.model)
    sentences = [line for line in split_lines(read_text(args.input)) if line.strip()]
    segmented = pipeline.segment_corpus(model, sentences)
    write_gold_corpus(args.output, segmented)
    print(f"segmented {len(segmented)} sentences to {args.output}")
    return 0


def _cmd_mine(args) -> int:
    alignment.check_frame_offset_ms(args.frame_offset_ms)
    model = crf.CrfModel.load(args.model)
    alignments = _read_alignment_files(
        args.alignments, args.tier_name, args.frame_offset_ms
    )
    scored = pipeline.score_alignments(model, alignments, args.min_pause_ms)
    records = [(a.utterance_id, a.sentence, pauses) for a, pauses in zip(alignments, scored)]
    mining.write_scored_pauses(args.output, records)
    n_pauses = sum(len(p) for _, _, p in records)
    print(f"scored {n_pauses} pauses in {len(records)} utterances to {args.output}")
    return 0


def _cmd_filter(args) -> int:
    records = mining.read_scored_pauses(args.scored)
    pause_lists = [pauses for _, _, pauses in records]
    sentences = [sentence for _, sentence, _ in records]
    partials, kept = mining.filter_to_partials(sentences, pause_lists, args.threshold)
    total = sum(len(pauses) for pauses in pause_lists)
    mining.write_partial_corpus(args.output, partials)
    print(f"kept {kept} of {total} pauses at threshold {args.threshold} -> {args.output}")
    return 0


def _cmd_complete(args) -> int:
    model = crf.CrfModel.load(args.model)
    partials = _load_partial(args.partial, args.strip_punct)
    _refuse_unwritable_completions(partials)
    completed = pipeline.complete_corpus(model, partials)
    write_gold_corpus(args.output, completed)
    print(f"completed {len(completed)} sentences to {args.output}")
    return 0


def _cmd_recipe(args) -> int:
    """``ctt``, ``selftrain`` or ``partialcrf``, as the subcommand names."""
    config = _train_config(args)
    source = _load_gold(args.source, args.strip_punct)
    target = _load_partial(args.target, args.strip_punct)
    dev = _load_gold(args.dev, args.strip_punct) if args.dev else None
    if args.command == "partialcrf":
        model = pipeline.run_partial_crf(source, target, config, dev=dev)
    else:
        self_training = args.command == "selftrain"
        if args.completed_out:  # before anything is trained
            _refuse_unwritable_completions(pipeline.completion_targets(target, self_training))
        baseline = crf.CrfModel.load(args.baseline) if args.baseline else None
        result = pipeline.run_ctt(
            source, target, config, dev=dev, baseline=baseline, self_training=self_training
        )
        model = result.model
        # first of the files: a completion the gold format refuses leaves none written
        if args.completed_out:
            write_gold_corpus(args.completed_out, result.completed)
        if args.baseline_out:
            result.baseline.save(args.baseline_out)
        print(f"completed {result.used} target sentences, skipped {result.skipped}")
    model.save(args.model_out)
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
    gold = read_gold_corpus(args.gold) if args.gold else None
    for number, ((uid, sentence, _), ref) in enumerate(zip(records, gold or ()), 1):
        if ref.chars != sentence:
            raise SentenceMismatch(
                f"record {number} (utterance {uid!r}): {sentence!r} is not the gold {ref.chars!r}"
            )
    stats = mining.pause_statistics([pauses for _, _, pauses in records], gold)
    sys.stdout.write(mining.format_stats_report(stats))
    return 0


def _cmd_disagree(args) -> int:
    pred_a = read_gold_corpus(args.pred_a)
    pred_b = read_gold_corpus(args.pred_b)
    rows = evaluate.build_review_rows(pred_a, pred_b, seed=args.seed)
    write_text(args.output, evaluate.format_review_tsv(rows))
    print(f"wrote {len(rows)} disagreement rows to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser
#
# Each subcommand declares which of its dests are input and output paths
# (``inputs``, ``outputs``); every other dest it defines is a setting.


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
    p.set_defaults(func=_cmd_train, inputs=("gold", "dev", "config"), outputs=("model_out",))

    p = sub.add_parser("segment", help="segment raw sentences with a model")
    p.add_argument("model")
    p.add_argument("input", help="one sentence per line")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_segment, inputs=("model", "input"), outputs=("output",))

    p = sub.add_parser("mine", help="detect pauses and score them with a model")
    p.add_argument("model")
    p.add_argument("alignments", nargs="+", help="alignment JSON or .TextGrid files")
    p.add_argument("-o", "--output", required=True, help="scored-pause JSON lines")
    p.add_argument("--min-pause-ms", dest="min_pause_ms", type=float, default=None)
    p.add_argument("--tier-name", default=alignment.DEFAULT_TIER_NAME)
    p.add_argument(
        "--frame-offset-ms", dest="frame_offset_ms", type=float,
        default=alignment.DEFAULT_FRAME_OFFSET_MS,
    )
    p.add_argument("--config")
    p.set_defaults(func=_cmd_mine, inputs=("model", "alignments", "config"), outputs=("output",))

    p = sub.add_parser("filter", help="keep pauses above a boundary probability")
    p.add_argument("scored", help="scored-pause JSON lines")
    p.add_argument("-o", "--output", required=True, help="partial corpus ('|' marks)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_filter, inputs=("scored", "config"), outputs=("output",))

    p = sub.add_parser("complete", help="fill partial annotations by constrained decoding")
    p.add_argument("model")
    p.add_argument("partial")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strip-punct", dest="strip_punct", action="store_true")
    p.set_defaults(func=_cmd_complete, inputs=("model", "partial"), outputs=("output",))

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
        inputs, outputs = ("source", "target", "dev", "config"), ("model_out",)
        if name != "partialcrf":
            p.add_argument("--baseline", help="reuse an already trained baseline model")
            p.add_argument("--baseline-out", dest="baseline_out")
            p.add_argument("--completed-out", dest="completed_out")
            inputs, outputs = (*inputs, "baseline"), (*outputs, "baseline_out", "completed_out")
        p.set_defaults(func=_cmd_recipe, inputs=inputs, outputs=outputs)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.set_defaults(func=_cmd_eval, inputs=("gold", "pred"), outputs=())

    p = sub.add_parser("stats", help="tabulate scored pauses by duration and probability")
    p.add_argument("scored")
    p.add_argument("--gold", help="gold corpus to check pauses against")
    p.set_defaults(func=_cmd_stats, inputs=("scored", "gold"), outputs=())

    p = sub.add_parser("disagree", help="blind review sheet for two outputs")
    p.add_argument("pred_a")
    p.add_argument("pred_b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_disagree, inputs=("pred_a", "pred_b"), outputs=("output",))

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        settings = _resolve_settings(args)
        code = args.func(args)
        if args.outputs:
            _write_manifest(args, argv, settings)
        return code
    except (PausesegError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
