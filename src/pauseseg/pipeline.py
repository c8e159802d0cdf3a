"""End-to-end training pipelines: baseline, complete-then-train, rivals.

The central recipe is complete-then-train: train a baseline segmenter on
the source domain, use it under pause-derived constraints to complete the
target-domain sentences into full segmentations, then retrain from scratch
on the union of source gold and completed target data.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass

from . import alignment, crf, mining, tagset
from .errors import EmptyDataset
from .mining import PartialSentence
from .segments import SegmentedSentence

log = logging.getLogger(__name__)

# Halfwidth/fullwidth symbols that commonly punctuate Chinese text but are
# not in Unicode "P" categories (they are "S" symbols). This list is the
# entire special-case set; everything else goes by category.
_EXTRA_PUNCT = set("～￥＄＋＝＾｜＜＞·")


def is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P") or ch in _EXTRA_PUNCT


def strip_punctuation(sentences: list[SegmentedSentence]) -> list[SegmentedSentence]:
    """Remove punctuation-only characters from gold data.

    Punctuation characters are dropped from their words; words and then
    sentences left empty disappear. Idempotent.
    """
    out = []
    for s in sentences:
        words = []
        for w in s.words:
            kept = "".join(ch for ch in w if not is_punctuation(ch))
            if kept:
                words.append(kept)
        if words:
            out.append(SegmentedSentence.from_words(words))
    return out


def strip_punctuation_partial(partials: list[PartialSentence]) -> list[PartialSentence]:
    """Same cleanup for partial annotations.

    A junction is kept when both its neighbours survive; it then separates
    the surviving characters that surrounded it.
    """
    out = []
    for p in partials:
        keep = [not is_punctuation(ch) for ch in p.chars]
        new_index = []
        k = 0
        for kept in keep:
            new_index.append(k if kept else None)
            k += kept
        chars = "".join(ch for ch, kept in zip(p.chars, keep) if kept)
        if not chars:
            continue
        bounds = []
        for b in p.boundaries:
            if keep[b] and keep[b + 1]:
                bounds.append(new_index[b])
        out.append(PartialSentence(chars, tuple(bounds)))
    return out


# ---------------------------------------------------------------------------
# Training recipes


def gold_examples(sentences: list[SegmentedSentence]) -> list[crf.FullExample]:
    return [crf.FullExample(s.chars, tagset.words_to_labels(s)) for s in sentences]


def train_baseline(
    source: list[SegmentedSentence],
    config: crf.TrainConfig,
    dev: list[SegmentedSentence] | None = None,
) -> crf.CrfModel:
    """Train a segmenter on fully annotated source-domain data."""
    return crf.train(gold_examples(source), config, dev=dev)


def segment_corpus(model: crf.CrfModel, sentences: list[str]) -> list[SegmentedSentence]:
    """Segment raw text lines: ``crf.viterbi_words`` of them without their whitespace.

    Whitespace is not text to segment: it is dropped first, so ``"有人 在倾听"``
    is read as ``"有人在倾听"``. Partial annotations keep their spaces as
    characters, so self-training decodes them with ``crf.viterbi_words`` as they are.
    """
    return crf.viterbi_words(["".join(s.split()) for s in sentences], model)


def complete_annotation(
    model: crf.CrfModel, partial: PartialSentence
) -> SegmentedSentence:
    """Fill in a partial annotation by decoding under its constraint mask.

    The path is ``crf.viterbi``'s under ``mining.partial_to_mask``, taken as
    label ids and cut into words: a partial's rows always admit the all-S
    path and the decoder returns only legal paths, so neither is checked again.
    """
    n = len(partial.chars)
    labels = crf.viterbi_labels(partial.chars, model, tagset.allowed_labels(n, partial.boundaries))
    return tagset.cut_words(labels, partial.chars)


def complete_corpus(
    model: crf.CrfModel, partials: list[PartialSentence]
) -> list[SegmentedSentence]:
    """``complete_annotation`` for every partial sentence, decoded in batches."""
    allowed = [tagset.allowed_labels(len(p.chars), p.boundaries) for p in partials]
    return crf.viterbi_words([p.chars for p in partials], model, allowed)


@dataclass
class CttResult:
    model: crf.CrfModel
    baseline: crf.CrfModel
    completed: list[SegmentedSentence]
    used: int
    skipped: int


def run_ctt(
    source: list[SegmentedSentence],
    target: list[PartialSentence],
    config: crf.TrainConfig,
    dev: list[SegmentedSentence] | None = None,
    baseline: crf.CrfModel | None = None,
    self_training: bool = False,
) -> CttResult:
    """Complete-then-train, or self-training when ``self_training`` is set.

    Steps: train a baseline on ``source`` (unless one is passed in), decode
    each target sentence under its boundary constraints to complete the
    annotation, then train a fresh model on source plus completions. In
    self-training the constraints are ignored and every target sentence is
    decoded freely. Target sentences without boundaries carry no constraint
    signal and are skipped in complete-then-train.
    """
    if baseline is None:
        baseline = train_baseline(source, config, dev=dev)
    if self_training:
        completed = crf.viterbi_words([p.chars for p in target], baseline)
    else:
        completed = complete_corpus(baseline, [p for p in target if p.boundaries])
    skipped = len(target) - len(completed)
    if skipped:
        log.info("skipped %d target sentences without usable constraints", skipped)
    if not completed:
        raise EmptyDataset("no target sentences could be completed")
    merged = gold_examples(source) + gold_examples(completed)
    model = crf.train(merged, config, dev=dev)
    return CttResult(model, baseline, completed, used=len(completed), skipped=skipped)


def run_partial_crf(
    source: list[SegmentedSentence],
    target: list[PartialSentence],
    config: crf.TrainConfig,
    dev: list[SegmentedSentence] | None = None,
) -> crf.CrfModel:
    """Train one model on source gold plus the marginalized partial loss.

    The partial examples contribute log Z - log Z_constrained. Junctions
    the constraints leave open carry no supervision, which in practice
    drags predictions toward single-character words.
    """
    examples: list[crf.FullExample | crf.PartialExample] = list(gold_examples(source))
    examples += [crf.PartialExample(p.chars, mining.partial_to_mask(p)) for p in target]
    return crf.train(examples, config, dev=dev)


# ---------------------------------------------------------------------------
# Pause mining across a corpus of alignments


def score_alignments(
    model: crf.CrfModel,
    alignments,
    min_pause_ms: float = alignment.DEFAULT_MIN_PAUSE_MS,
) -> list[list[alignment.Pause]]:
    """Detect each alignment's pauses and score them: one list per alignment.

    ``detect_pauses`` and ``score_pauses`` of every alignment, with the
    corpus's durations found in one array pass and each ``Pause`` built once.
    """
    alignments = list(alignments)
    owner, junctions, durations = alignment.corpus_pauses(alignments, min_pause_ms)
    return mining.score_pause_arrays(
        model, [a.sentence for a in alignments], owner, junctions.tolist(), durations.tolist()
    )


def mine_partials(
    model: crf.CrfModel,
    alignments,
    threshold: float = mining.DEFAULT_THRESHOLD,
    min_pause_ms: float = alignment.DEFAULT_MIN_PAUSE_MS,
) -> tuple[list[PartialSentence], list[list[alignment.Pause]]]:
    """Detect, score and filter pauses; return partial sentences and scores.

    Returns one PartialSentence per alignment (possibly with no boundaries)
    plus the parallel scored-pause lists for reporting.
    """
    alignments = list(alignments)
    scored = score_alignments(model, alignments, min_pause_ms)
    partials, _ = mining.filter_to_partials([a.sentence for a in alignments], scored, threshold)
    return partials, scored
