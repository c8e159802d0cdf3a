"""Turn pauses into partial word-boundary annotations.

A pause at junction i is evidence that a word ends at character i. Each
candidate is scored with the model's boundary probability and kept only
above a threshold; surviving junctions become constraint masks for decoding
and training.
"""

from __future__ import annotations

import bisect
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import crf, tagset
from .alignment import Pause
from .errors import (
    IndexOutOfRange, InvalidConfig, LengthMismatch, NonFiniteWeights, ParseError, PausesegError,
    UnscoredPause,
)
from .segments import (
    SegmentedSentence, json_records, read_text, split_lines, string_field, write_text,
)

DEFAULT_THRESHOLD = 0.5


def check_threshold(threshold: float) -> None:
    """``InvalidConfig`` unless ``threshold`` is a finite number in [0, 1]."""
    if not (type(threshold) in (int, float) and 0.0 <= threshold <= 1.0):  # NaN fails both
        raise InvalidConfig(f"threshold must be in [0, 1], not {threshold!r}")


PROBABILITY_BIN_EDGES = (0.1, 0.9, 1.0)
PROBABILITY_BIN_NAMES = ("[0.0, 0.1)", "[0.1, 0.9)", "[0.9, 1.0)", "1.0")
DURATION_BIN_EDGES_MS = (50.0, 150.0, 500.0)
DURATION_BIN_NAMES = ("[0, 50)", "[50, 150)", "[150, 500)", "[500, inf)")

_ONE_SNAP = 1e-12


@dataclass(frozen=True)
class PartialSentence:
    """A sentence with a set of known word-boundary junctions.

    ``boundaries`` holds junction indices: boundary i means a word ends at
    character i and another starts at i+1. Unmentioned junctions are simply
    unknown, not known-internal.
    """

    chars: str
    boundaries: tuple[int, ...]

    def __post_init__(self):
        if not self.chars:
            raise ValueError("empty sentence")
        bounds = tuple(sorted(set(self.boundaries)))
        for b in bounds:
            if not 0 <= b < len(self.chars) - 1:
                raise IndexOutOfRange(
                    f"junction {b} outside sentence of length {len(self.chars)}"
                )
        object.__setattr__(self, "boundaries", bounds)


def score_pauses(model: crf.CrfModel, sentence: str, pauses: list[Pause]) -> list[Pause]:
    """Attach the model's boundary probability to each pause: ``score_pause_arrays``
    of one sentence."""
    owner = np.zeros(len(pauses), dtype=np.intp)
    return score_pause_arrays(
        model, [sentence], owner, [p.junction for p in pauses], [p.duration_ms for p in pauses]
    )[0]


def score_pause_arrays(
    model: crf.CrfModel, sentences: list[str], owner: np.ndarray, junctions: list, durations: list
) -> list[list[Pause]]:
    """Attach the model's boundary probability to each pause of a corpus, given
    as parallel columns; one list of scored pauses per sentence.

    Pause k lies at junction ``junctions[k]`` of ``sentences[owner[k]]``,
    with the silence ``durations[k]``, and each sentence's pauses keep their
    order. Every probability comes from one ``crf.boundary_probabilities_at``
    call, is clamped into [0, 1] against rounding, and goes into the pause's
    one ``Pause``. The corpus is scored in batches; a sentence gets bitwise
    the same probabilities alone or in any batch. A pause outside its
    sentence raises ``IndexOutOfRange``, and a NaN probability
    ``NonFiniteWeights``.
    """
    probs = crf.boundary_probabilities_at(sentences, model, owner, junctions)
    if np.isnan(probs).any():
        raise NonFiniteWeights("the model gives a boundary probability that is NaN")
    probs = np.minimum(1.0, np.maximum(0.0, probs)).tolist()
    out: list[list[Pause]] = [[] for _ in sentences]
    for k, junction, duration, prob in zip(owner.tolist(), junctions, durations, probs):
        out[k].append(Pause(junction, duration, prob))
    return out


def filter_pauses(pauses: list[Pause], threshold: float) -> list[Pause]:
    """Keep pauses whose boundary probability is at least ``threshold``."""
    check_threshold(threshold)
    for p in pauses:
        if p.probability is None:
            raise UnscoredPause(f"pause at junction {p.junction} has no probability")
    return [p for p in pauses if p.probability >= threshold]


def pauses_to_partial(sentence: str, pauses: list[Pause]) -> PartialSentence:
    return PartialSentence(sentence, tuple(p.junction for p in pauses))


def filter_to_partials(
    sentences: list[str], pause_lists: list[list[Pause]], threshold: float
) -> tuple[list[PartialSentence], int]:
    """A partial sentence per sentence, marking its pauses that ``filter_pauses``
    keeps at ``threshold``, and the number of pauses kept in all.

    ``LengthMismatch`` unless there is one pause list per sentence.
    """
    if len(pause_lists) != len(sentences):
        raise LengthMismatch(f"{len(pause_lists)} pause lists for {len(sentences)} sentences")
    check_threshold(threshold)  # refused even when there is no pause list to filter
    partials = []
    kept = 0
    for sentence, pauses in zip(sentences, pause_lists):
        surviving = filter_pauses(pauses, threshold)
        kept += len(surviving)
        partials.append(pauses_to_partial(sentence, surviving))
    return partials, kept


def build_constraint_mask(sentence: str, boundaries) -> crf.ConstraintMask:
    """Mask encoding known boundaries: ``tagset.allowed_labels`` as a ``ConstraintMask``."""
    return crf.ConstraintMask(tagset.allowed_labels(len(sentence), boundaries))


def partial_to_mask(partial: PartialSentence) -> crf.ConstraintMask:
    return build_constraint_mask(partial.chars, partial.boundaries)


# ---------------------------------------------------------------------------
# Binned pause statistics


def probability_bin(p: float) -> int:
    """Bin index for a boundary probability; values within 1e-12 of 1 are 1."""
    if p >= PROBABILITY_BIN_EDGES[-1] - _ONE_SNAP:
        return len(PROBABILITY_BIN_EDGES)
    return bisect.bisect_right(PROBABILITY_BIN_EDGES, p)


def duration_bin(d_ms: float) -> int:
    return bisect.bisect_right(DURATION_BIN_EDGES_MS, d_ms)


@dataclass
class PauseStats:
    """Pause counts cross-tabulated by duration bin and probability bin."""

    counts: np.ndarray  # [duration_bin, probability_bin]
    total_pauses: int
    total_kept: int  # probability >= DEFAULT_THRESHOLD
    correct: np.ndarray | None = None  # same shape, pauses at gold boundaries
    total_correct: int | None = None

    @property
    def kept_percent(self) -> float:
        return 100.0 * self.total_kept / self.total_pauses if self.total_pauses else 0.0

    @property
    def accuracy(self) -> float | None:
        if self.total_correct is None or not self.total_pauses:
            return None
        return self.total_correct / self.total_pauses


def pause_statistics(
    pause_lists: list[list[Pause]],
    gold: list[SegmentedSentence] | None = None,
) -> PauseStats:
    """Tabulate scored pauses; with gold segmentations, also count hits.

    ``pause_lists`` is one list of scored pauses per sentence; ``gold``,
    when given, is the parallel list of reference segmentations.
    """
    if gold is not None and len(gold) != len(pause_lists):
        raise LengthMismatch(
            f"{len(pause_lists)} pause lists for {len(gold)} gold sentences"
        )
    counts = np.zeros((4, 4), dtype=int)
    correct = np.zeros((4, 4), dtype=int) if gold is not None else None
    kept = 0
    n_correct = 0
    for idx, pauses in enumerate(pause_lists):
        kept += len(filter_pauses(pauses, DEFAULT_THRESHOLD))  # refuses an unscored pause
        gold_junctions = gold[idx].boundary_junctions() if gold is not None else None
        for p in pauses:
            db = duration_bin(p.duration_ms)
            pb = probability_bin(p.probability)
            counts[db, pb] += 1
            if gold_junctions is not None and p.junction in gold_junctions:
                correct[db, pb] += 1
                n_correct += 1
    return PauseStats(
        counts=counts,
        total_pauses=int(counts.sum()),
        total_kept=kept,
        correct=correct,
        total_correct=n_correct if gold is not None else None,
    )


def format_stats_report(stats: PauseStats) -> str:
    """Human-readable table of the duration x probability counts."""
    header = ["duration\\prob"] + list(PROBABILITY_BIN_NAMES) + ["total"]
    rows = [header]
    for db, name in enumerate(DURATION_BIN_NAMES):
        row = [name] + [str(int(c)) for c in stats.counts[db]]
        row.append(str(int(stats.counts[db].sum())))
        rows.append(row)
    total_row = ["total"] + [str(int(c)) for c in stats.counts.sum(axis=0)]
    total_row.append(str(stats.total_pauses))
    rows.append(total_row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.append("")
    lines.append(f"pauses: {stats.total_pauses}")
    lines.append(
        f"kept at threshold {DEFAULT_THRESHOLD}: {stats.total_kept} ({stats.kept_percent:.1f}%)"
    )
    if stats.accuracy is not None:
        lines.append(
            f"at gold boundaries: {stats.total_correct} ({100.0 * stats.accuracy:.1f}%)"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Partial-annotation text format
#
# One sentence per line; '|' marks a known boundary between the adjacent
# characters. Literal '|' and '\' in text are escaped as '\|' and '\\'.


def format_partial_line(partial: PartialSentence) -> str:
    """The sentence as one partial line; ``PausesegError`` if the line would not read back."""
    bounds = set(partial.boundaries)
    out = []
    for i, ch in enumerate(partial.chars):
        if ch in ("\\", "|"):
            out.append("\\" + ch)
        else:
            out.append(ch)
        if i in bounds:
            out.append("|")
    line = "".join(out)
    if "\n" in line:
        problem = "holds a line feed"
    elif line.endswith("\r"):
        problem = "ends with a carriage return"  # read as part of a CRLF line end
    elif not line.strip():
        problem = "is only whitespace"  # read as a blank line
    else:
        return line
    raise PausesegError(f"sentence {partial.chars!r} {problem}, which a partial line cannot hold")


def parse_partial_line(line: str, lineno: int | None = None) -> PartialSentence | None:
    line = line.rstrip("\r\n")
    if not line.strip():
        return None
    chars: list[str] = []
    boundaries: list[int] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\":
            if i + 1 >= len(line):
                raise ParseError("dangling escape", line=lineno)
            chars.append(line[i + 1])
            i += 2
        elif ch == "|":
            if not chars:
                raise ParseError("boundary mark before any character", line=lineno)
            boundaries.append(len(chars) - 1)
            i += 1
        else:
            chars.append(ch)
            i += 1
    sentence = "".join(chars)
    if boundaries and boundaries[-1] == len(sentence) - 1:
        raise ParseError("boundary mark after the last character", line=lineno)
    return PartialSentence(sentence, tuple(boundaries))


def read_partial_corpus(path) -> list[PartialSentence]:
    out = []
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        parsed = parse_partial_line(line, lineno)
        if parsed is not None:
            out.append(parsed)
    return out


def write_partial_corpus(path, partials) -> None:
    partials = list(partials)
    lines = [format_partial_line(p) + "\n" for p in partials]
    if lines and lines[0].startswith("\ufeff"):  # write_text refuses it too, without the sentence
        raise PausesegError(
            f"sentence {partials[0].chars!r} begins with U+FEFF, which reads as a byte-order mark"
            " at the start of a partial file"
        )
    write_text(path, "".join(lines))


# ---------------------------------------------------------------------------
# Scored-pause JSON, written as JSON lines
#
# {"utterance_id": "u1", "sentence": "...",
#  "pauses": [{"junction": 3, "duration_ms": 230.0, "probability": 0.97}]}


def scored_pauses_to_json_line(utterance_id: str, sentence: str, pauses: list[Pause]) -> str:
    return json.dumps(
        {
            "utterance_id": utterance_id,
            "sentence": sentence,
            "pauses": [
                {
                    "junction": p.junction,
                    "duration_ms": p.duration_ms,
                    "probability": p.probability,
                }
                for p in pauses
            ],
        },
        ensure_ascii=False,
    )


def write_scored_pauses(path, records) -> None:
    """``records`` yields (utterance_id, sentence, pauses) triples."""
    write_text(path, "".join(scored_pauses_to_json_line(*r) + "\n" for r in records))


def _pause_from_json(obj, sentence: str) -> Pause:
    junction, duration, probability = obj["junction"], obj["duration_ms"], obj.get("probability")
    if type(junction) is not int or not 0 <= junction < len(sentence) - 1:
        raise ValueError(f"junction {junction!r} is not an integer in 0..{len(sentence) - 2}")
    if type(duration) not in (int, float) or not 0 <= duration <= sys.float_info.max:
        raise ValueError(f"duration_ms {duration!r} is not a finite number >= 0")
    if not (probability is None or type(probability) in (int, float) and 0 <= probability <= 1):
        raise ValueError(f"probability {probability!r} is not null or a number in [0, 1]")
    return Pause(junction, float(duration), probability)


def read_scored_pauses(path) -> list[tuple[str, str, list[Pause]]]:
    """(utterance_id, sentence, pauses) records, read as ``segments.json_records`` reads."""
    out = []
    for lineno, obj in json_records(read_text(path)):
        try:
            sentence = string_field(obj, "sentence")
            if not sentence:
                raise ValueError("empty sentence")
            pauses = [_pause_from_json(p, sentence) for p in obj["pauses"]]
            out.append((string_field(obj, "utterance_id"), sentence, pauses))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad scored-pause record: {exc}", line=lineno) from exc
    return out
