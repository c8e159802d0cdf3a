"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: every step starts when the
previous one returns. ``setup`` makes the inputs (and, for ``decode``, the
fixed model); ``run_once`` runs the timed steps once, timing each piece
with a ``StepTimes`` recorder, checks the outputs and returns an ``Outcome``.

Operations are sentences trained on (once per train call), utterances
mined, sentences completed and sentences segmented. One fails when its
step raises or its output fails a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import worlds

from pauseseg import alignment, cli, crf, evaluate, mining, pipeline, tagset
from pauseseg.segments import SegmentedSentence

EPOCHS = 2
BIGVOCAB_EPOCHS = 1
THRESHOLD = 0.5  # the package's default filter threshold
MIN_PAUSE_MS = 10.0  # the package's default pause threshold

SIZES = {
    "ctt": {"source": 1000, "alignments": 400, "dev": 60, "test": 1000},
    "decode": {"source": 1000, "alignments": 800, "dev": 60, "test": 400},
    "train-bigvocab": {"train_chars": 80000, "dev": 60, "test": 1200},
}


class StepTimes:
    """Start and end of each step, in the order they ran, across a run.

    With a ``hostspeed.Meter``, durations are normalised to the host's
    nominal speed (see ``perfbench/hostspeed.py``); without one, they are
    wall times.
    """

    def __init__(self, meter=None):
        self.meter = meter
        self.intervals: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def time(self, step: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((step, start, time.perf_counter()))

    def _duration(self, begin: float, end: float) -> float:
        return end - begin if self.meter is None else self.meter.normalise(begin, end)

    def raw(self, begin: float, end: float) -> float:
        """Wall time of [begin, end], less the host-speed samples inside it."""
        return end - begin - (0.0 if self.meter is None else self.meter.sampled(begin, end))

    def total(self, first: int = 0, last: int | None = None, raw: bool = False) -> float:
        """Summed duration of the steps ``intervals[first:last]``."""
        measure = self.raw if raw else self._duration
        return sum(measure(b, e) for _, b, e in self.intervals[first:last])

    def samples(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for step, b, e in self.intervals:
            out[step].append(self._duration(b, e))
        return dict(out)

    def median(self, step: str) -> float:
        """Median duration of the step over the run's repetitions."""
        return statistics.median(self.samples()[step])


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    f1: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    used: int = 0
    skipped: int = 0
    chars_in: int = 0  # characters taken in by the steps, for per-char counts
    vocab_size: int = 0  # of the final segmenter
    errors: list[str] = field(default_factory=list)

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(reason)


def _text(words: list[str]) -> str:
    return "".join(words)


def _spans(words) -> set[tuple[int, int]]:
    out, pos = set(), 0
    for w in words:
        out.add((pos, pos + len(w)))
        pos += len(w)
    return out


def word_f1(gold: list[list[str]], pred: list[list[str]]) -> float:
    """Micro word F1, computed here independently of the package."""
    n_gold = sum(len(g) for g in gold)
    n_pred = sum(len(p) for p in pred)
    correct = sum(len(_spans(g) & _spans(p)) for g, p in zip(gold, pred))
    if not correct:
        return 0.0
    precision, recall = correct / n_pred, correct / n_gold
    return 2 * precision * recall / (precision + recall)


def detected_junctions(record: dict) -> list[int]:
    """Junctions with at least MIN_PAUSE_MS of silence, from raw frames."""
    chars = record["chars"]
    step = record["frame_offset_ms"]
    return [
        i
        for i in range(len(chars) - 1)
        if (chars[i + 1]["b"] - chars[i]["e"]) * step >= MIN_PAUSE_MS
    ]


def model_digest(model: crf.CrfModel) -> tuple[str, bool]:
    """SHA-256 of the weights and vocabulary size, and whether all are finite."""
    h = hashlib.sha256()
    finite = bool(np.isfinite(model.emit_w).all())
    for arr, legal in (
        (model.trans, crf.TRANS_LEGAL),
        (model.start, crf.START_LEGAL),
        (model.end, crf.END_LEGAL),
    ):
        finite = finite and bool(np.isfinite(arr[legal]).all())
    h.update(str(model.vocab.size).encode())
    for arr in (model.emit_w, model.trans, model.start, model.end):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest(), finite


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_segmented(out: Outcome, inputs: list[str], pred: list[list[str]], what: str) -> None:
    """Every output sentence must re-join to its input characters."""
    if len(pred) != len(inputs):
        out.fail(len(inputs), f"{what}: {len(pred)} outputs for {len(inputs)} inputs")
        return
    bad = sum(1 for s, words in zip(inputs, pred) if _text(words) != s or "" in words)
    if bad:
        out.fail(bad, f"{what}: {bad} sentences do not re-join to their input")


def check_completed(out: Outcome, partials: list[tuple[str, tuple[int, ...]]], completed) -> None:
    """Completions re-join to their sentence and keep every kept junction."""
    if len(completed) != len(partials):
        out.fail(len(partials), f"complete: {len(completed)} outputs for {len(partials)} inputs")
        return
    bad = 0
    for (chars, kept), words in zip(partials, completed):
        ends = {e - 1 for _, e in _spans(words)}
        if _text(words) != chars or not set(kept) <= ends:
            bad += 1
    if bad:
        out.fail(bad, f"complete: {bad} completions lose their input or a kept junction")


def check_scored(out: Outcome, records: list[dict], scored: list[tuple[str, str, list]]) -> None:
    """Scored pauses match the alignments' own silences, probabilities in [0, 1]."""
    if len(scored) != len(records):
        out.fail(len(records), f"mine: {len(scored)} records for {len(records)} utterances")
        return
    bad = 0
    for rec, (uid, sentence, pauses) in zip(records, scored):
        if (
            uid != rec["utterance_id"]
            or sentence != "".join(c["c"] for c in rec["chars"])
            or [p.junction for p in pauses] != detected_junctions(rec)
            or not all(0.0 <= p.probability <= 1.0 for p in pauses)
        ):
            bad += 1
    if bad:
        out.fail(bad, f"mine: {bad} utterances scored wrongly")


def _read_words(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh]


def _quiet(fn, *args):
    """Call ``fn`` with its standard output and error captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = fn(*args)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# ctt: the paper's recipe through the command line, on files


class Ctt:
    """train -> mine -> filter -> ctt --baseline -> segment -> eval."""

    name = "ctt"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.sizes = SIZES["ctt"]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        s = self.sizes
        w = worlds.build_world(self.seed, s["source"], s["alignments"], s["dev"], s["test"])
        self.world = w
        with open(self.path("source.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(x) + "\n" for x in w.source_train)
        with open(self.path("dev.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(x) + "\n" for x in w.target_dev)
        with open(self.path("test_gold.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(x) + "\n" for x in w.target_test)
        with open(self.path("test_raw.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(_text(x) + "\n" for x in w.target_test)
        with open(self.path("align.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in w.alignments)
        self.source_chars = sum(len(_text(x)) for x in w.source_train)
        self.align_chars = sum(len(r["chars"]) for r in w.alignments)
        self.test_raw = [_text(x) for x in w.target_test]

    def size_report(self) -> dict:
        return dict(
            self.sizes,
            source_chars=self.source_chars,
            alignment_chars=self.align_chars,
            test_chars=sum(map(len, self.test_raw)),
            epochs=EPOCHS,
        )

    def ops_hint(self) -> int:
        return 2 * len(self.world.source_train) + len(self.world.alignments) + len(self.test_raw)

    def run_once(self, times: StepTimes) -> Outcome:
        out = Outcome()
        p = self.path
        n_src, n_align, n_test = len(self.world.source_train), len(self.world.alignments), len(
            self.test_raw
        )
        epochs = ["--epochs", str(EPOCHS)]
        printed: dict[str, str] = {}

        def step(argv: list[str], ops: int) -> None:
            out.attempted += ops
            if out.failed:
                out.fail(ops, f"pauseseg {argv[0]} not run: an earlier step failed")
                return
            with times.time(argv[0]):
                try:
                    code, printed[argv[0]] = _quiet(cli.main, argv)
                except Exception as exc:  # a traceback out of main is a failed step
                    code, printed[argv[0]] = -1, repr(exc)
            if code != 0:
                out.fail(ops, f"pauseseg {argv[0]} exited {code}: {printed[argv[0]][-200:]}")

        step(["train", p("source.txt"), "-o", p("baseline.model"), "--dev", p("dev.txt"), *epochs],
             n_src)
        step(["mine", p("baseline.model"), p("align.jsonl"), "-o", p("scored.jsonl")], n_align)
        step(["filter", p("scored.jsonl"), "-o", p("partial.txt")], 0)
        partials = []
        if not out.failed:
            partials = [(x.chars, x.boundaries) for x in mining.read_partial_corpus(p("partial.txt"))]
        with_bounds = [x for x in partials if x[1]]
        out.used, out.skipped = len(with_bounds), len(partials) - len(with_bounds)
        step(["ctt", p("source.txt"), p("partial.txt"), "-o", p("final.model"),
              "--baseline", p("baseline.model"), "--dev", p("dev.txt"),
              "--completed-out", p("completed.txt"), *epochs],
             n_src + 2 * len(with_bounds))
        step(["segment", p("final.model"), p("test_raw.txt"), "-o", p("pred.txt")], n_test)
        step(["eval", p("test_gold.txt"), p("pred.txt")], 0)
        if out.failed:
            return out
        completed_chars = sum(len(c) for c, _ in with_bounds)
        out.chars_in = (2 * self.source_chars + self.align_chars + 2 * completed_chars
                        + sum(map(len, self.test_raw)))
        self._check(out, partials, with_bounds, printed["eval"])
        return out

    def _check(self, out: Outcome, partials, with_bounds, report: str) -> None:
        p = self.path
        scored = mining.read_scored_pauses(p("scored.jsonl"))
        check_scored(out, self.world.alignments, scored)
        kept = [tuple(x.junction for x in pauses if x.probability >= THRESHOLD)
                for _, _, pauses in scored]
        if [b for _, b in partials] != kept:
            out.fail(len(scored), "filter: partial corpus differs from the kept pauses")
        check_completed(out, with_bounds, _read_words(p("completed.txt")))
        pred = _read_words(p("pred.txt"))
        check_segmented(out, self.test_raw, pred, "segment")
        out.f1 = word_f1(self.world.target_test, pred)
        printed = [line.split()[1] for line in report.splitlines() if line.startswith("f1")]
        if printed != [f"{out.f1:.4f}"]:
            out.fail(len(pred), f"eval printed f1 {printed} but the outputs score {out.f1:.4f}")
        for name in ("baseline.model", "final.model"):
            out.hashes[name] = file_digest(p(name))
            # loads, not load: the traced run times CrfModel.load for the CLI's own loads
            with open(p(name), encoding="utf-8") as fh:
                model = crf.CrfModel.loads(fh.read())
            out.vocab_size = model.vocab.size
            if not model_digest(model)[1]:
                out.fail(len(self.world.source_train), f"{name} has non-finite weights")

    def rates(self, times: StepTimes, out: Outcome) -> dict:
        return {
            "train_chars_per_s": self.source_chars * EPOCHS / times.median("train"),
            "mine_utts_per_s": len(self.world.alignments) / times.median("mine"),
            "segment_chars_per_s": sum(map(len, self.test_raw)) / times.median("segment"),
        }

    def probe_inputs(self):
        """(model, sentences, examples): the train step's model and examples, mine's input."""
        examples = pipeline.gold_examples(
            [SegmentedSentence.from_words(x) for x in self.world.source_train])
        sentences = ["".join(c["c"] for c in r["chars"]) for r in self.world.alignments]
        return crf.CrfModel.load(self.path("baseline.model")), sentences, examples


# ---------------------------------------------------------------------------
# decode: inference only, with a fixed model trained in set-up


def _to_alignment(rec: dict) -> alignment.CharAlignment:
    chars = tuple((c["c"], c["b"], c["e"]) for c in rec["chars"])
    return alignment.CharAlignment(rec["utterance_id"], chars, rec["frame_offset_ms"])


class Decode:
    """mine (detect + score + filter) -> complete -> segment -> eval, in memory."""

    name = "decode"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sizes = SIZES["decode"]
        self.setup_hashes: set[str] = set()

    def setup(self) -> None:
        s = self.sizes
        w = worlds.build_world(self.seed, s["source"], s["alignments"], s["dev"], s["test"])
        self.world = w
        self.alignments = [_to_alignment(r) for r in w.alignments]
        self.test_raw = [_text(x) for x in w.target_test]
        source = [SegmentedSentence.from_words(x) for x in w.source_train]
        dev = [SegmentedSentence.from_words(x) for x in w.target_dev]
        self.model = pipeline.train_baseline(source, crf.TrainConfig(epochs=EPOCHS), dev=dev)
        self.setup_hashes.add(model_digest(self.model)[0])
        self.source = source
        self.source_chars = sum(len(x.chars) for x in source)

    def size_report(self) -> dict:
        return dict(
            self.sizes,
            source_chars=self.source_chars,
            alignment_chars=sum(len(a) for a in self.alignments),
            test_chars=sum(map(len, self.test_raw)),
            epochs=EPOCHS,
        )

    def ops_hint(self) -> int:
        return len(self.alignments) + len(self.test_raw)

    def run_once(self, times: StepTimes) -> Outcome:
        out = Outcome()
        model = self.model
        out.attempted += len(self.alignments)
        with times.time("mine"):
            partials, scored = pipeline.mine_partials(model, self.alignments, THRESHOLD, MIN_PAUSE_MS)
        records = self.world.alignments
        check_scored(out, records, [(r["utterance_id"], p.chars, s)
                                    for r, p, s in zip(records, partials, scored)])
        kept = [tuple(x.junction for x in s if x.probability >= THRESHOLD) for s in scored]
        if [p.boundaries for p in partials] != kept:
            out.fail(len(records), "mine: partials differ from the kept pauses")

        todo = [p for p in partials if p.boundaries]
        out.used, out.skipped = len(todo), len(partials) - len(todo)
        out.attempted += len(todo)
        with times.time("complete"):
            completed = [pipeline.complete_annotation(model, p) for p in todo]
        check_completed(out, [(p.chars, p.boundaries) for p in todo],
                        [c.words for c in completed])

        out.attempted += len(self.test_raw)
        with times.time("segment"):
            pred = pipeline.segment_corpus(model, self.test_raw)
        check_segmented(out, self.test_raw, [x.words for x in pred], "segment")
        gold = [SegmentedSentence.from_words(x) for x in self.world.target_test]
        with times.time("eval"):
            score = evaluate.prf(gold, pred)
        out.f1 = word_f1(self.world.target_test, [x.words for x in pred])
        if score.f1 != out.f1:
            out.fail(len(pred), f"prf f1 {score.f1} differs from {out.f1}")
        out.hashes["model"], finite = model_digest(model)
        out.vocab_size = model.vocab.size
        if not finite or len(self.setup_hashes) > 1:
            out.fail(out.attempted - out.failed, "set-up trained a non-finite or non-repeatable model")
        out.chars_in = (sum(len(a) for a in self.alignments)
                        + sum(len(p.chars) for p in todo) + sum(map(len, self.test_raw)))
        return out

    def rates(self, times: StepTimes, out: Outcome) -> dict:
        return {
            "mine_utts_per_s": len(self.alignments) / times.median("mine"),
            "complete_sents_per_s": out.used / times.median("complete"),
            "segment_chars_per_s": sum(map(len, self.test_raw)) / times.median("segment"),
        }

    def probe_inputs(self):
        sentences = [a.sentence for a in self.alignments]
        return self.model, sentences, pipeline.gold_examples(self.source)


# ---------------------------------------------------------------------------
# train-bigvocab: crf.train alone, on a large-alphabet corpus


class TrainBigvocab:
    """crf.train with a dev set -> segment held-out text -> eval."""

    name = "train-bigvocab"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sizes = SIZES["train-bigvocab"]

    def setup(self) -> None:
        s = self.sizes
        train, dev, test = worlds.build_zipf_corpus(self.seed, s["train_chars"], s["dev"], s["test"])
        self.examples = [crf.FullExample(_text(x), tagset.words_to_labels(
            SegmentedSentence.from_words(x))) for x in train]
        self.dev = [SegmentedSentence.from_words(x) for x in dev]
        self.test = test
        self.test_raw = [_text(x) for x in test]
        self.train_chars = sum(len(e.sentence) for e in self.examples)

    def size_report(self) -> dict:
        return dict(
            self.sizes,
            train_sentences=len(self.examples),
            train_chars=self.train_chars,
            test_chars=sum(map(len, self.test_raw)),
            alphabet=worlds.ZIPF_ALPHABET,
            lexicon=worlds.ZIPF_LEXICON,
            epochs=BIGVOCAB_EPOCHS,
        )

    def ops_hint(self) -> int:
        return len(self.examples) + len(self.test_raw)

    def run_once(self, times: StepTimes) -> Outcome:
        out = Outcome()
        out.attempted += len(self.examples)
        self.model = None  # so that peak memory holds one model, however many repetitions run
        with times.time("train"):
            model = crf.train(self.examples, crf.TrainConfig(epochs=BIGVOCAB_EPOCHS), dev=self.dev)
        self.model = model
        out.hashes["model"], finite = model_digest(model)
        out.vocab_size = model.vocab.size
        if not finite:
            out.fail(len(self.examples), "model has non-finite weights")
        out.attempted += len(self.test_raw)
        with times.time("segment"):
            pred = pipeline.segment_corpus(model, self.test_raw)
        check_segmented(out, self.test_raw, [x.words for x in pred], "segment")
        gold = [SegmentedSentence.from_words(x) for x in self.test]
        with times.time("eval"):
            score = evaluate.prf(gold, pred)
        out.f1 = word_f1(self.test, [x.words for x in pred])
        if score.f1 != out.f1:
            out.fail(len(pred), f"prf f1 {score.f1} differs from {out.f1}")
        out.chars_in = self.train_chars + sum(map(len, self.test_raw))
        return out

    def rates(self, times: StepTimes, out: Outcome) -> dict:
        return {
            "train_chars_per_s": self.train_chars * BIGVOCAB_EPOCHS / times.median("train"),
            "segment_chars_per_s": sum(map(len, self.test_raw)) / times.median("segment"),
        }

    def probe_inputs(self):
        return self.model, [s.chars for s in self.dev] + self.test_raw, self.examples


WORKLOADS = {cls.name: cls for cls in (Ctt, Decode, TrainBigvocab)}
