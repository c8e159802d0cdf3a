"""The BMES label alphabet and its transition structure.

B/M/E mark the beginning, middle and end of a multi-character word; S marks
a single-character word. Every table below follows from two label sets,
the word-initial labels {B, S} and the word-final labels {E, S}: a bigram
(p, q) is legal iff p ends a word exactly when q starts one, a sequence
starts word-initial and ends word-final, and a bigram puts a word boundary
between its positions iff p is word-final and q word-initial. The tables
are constants of the tag scheme, not trainable state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import IllegalTagSequence, IndexOutOfRange, LengthMismatch
from .segments import SegmentedSentence


class Label(IntEnum):
    B = 0
    M = 1
    E = 2
    S = 3


N_LABELS = 4
LABEL_CHARS = "BMES"


@dataclass(frozen=True)
class TransitionTable:
    """Boolean legality of label bigrams and of sequence-initial/final labels."""

    legal: np.ndarray
    legal_start: np.ndarray
    legal_end: np.ndarray


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Whether each label (B, M, E, S) starts a word, and whether it ends one.
WORD_INITIAL = _frozen(np.array([True, False, False, True]))
WORD_FINAL = _frozen(np.array([False, False, True, True]))

_TABLE = TransitionTable(
    legal=_frozen(WORD_FINAL[:, None] == WORD_INITIAL[None, :]),
    legal_start=WORD_INITIAL,
    legal_end=WORD_FINAL,
)
_LEGAL_BIGRAMS = frozenset((p, q) for p in Label for q in Label if _TABLE.legal[p, q])
# Bigrams that put a word boundary between their two positions.
_BOUNDARY_BIGRAMS = frozenset(
    (p, q) for p in Label for q in Label if WORD_FINAL[p] and WORD_INITIAL[q]
)


# Label sets as 4-bit codes, bit l for label l, for allowed_labels and
# admits_legal_path: every label, the word-initial (start-legal) and the
# word-final (end-legal) ones, _SUCCESSORS[c] (the labels a legal transition
# reaches from set c) and _ROW_OF_CODE[c] (set c as a [4] bool row).
_LABEL_BITS = 1 << np.arange(N_LABELS)
_ALL_LABELS = int(_LABEL_BITS.sum())
_INITIAL_LABELS = int(_LABEL_BITS[WORD_INITIAL].sum())
_FINAL_LABELS = int(_LABEL_BITS[WORD_FINAL].sum())
_ROW_OF_CODE = _frozen(np.arange(_ALL_LABELS + 1)[:, None] & _LABEL_BITS > 0)
_SUCCESSORS = [int(_LABEL_BITS[_TABLE.legal[row].any(axis=0)].sum()) for row in _ROW_OF_CODE]

# ASCII code -> label id, -1 where the character is not a label
_LABEL_OF_CODE = np.full(128, -1, dtype=np.intp)
_LABEL_OF_CODE[[ord(c) for c in LABEL_CHARS]] = np.arange(N_LABELS)
# The word-final label ids, for cut_words to test one label at a time.
_WORD_FINAL_IDS = tuple(np.flatnonzero(WORD_FINAL).tolist())


def allowed_labels(n: int, boundaries) -> np.ndarray:
    """[n, 4] allowed labels of a sentence of ``n`` characters with known boundaries.

    Junction i forces position i into {E, S} (word-final) and position i+1
    into {B, S} (word-initial); overlapping junctions intersect. The all-S
    sequence always survives, so the rows always admit a legal path.
    """
    codes = [_ALL_LABELS] * n
    for b in boundaries:
        if not 0 <= b < n - 1:
            raise IndexOutOfRange(f"junction {b} outside sentence of length {n}")
        codes[b] &= _FINAL_LABELS
        codes[b + 1] &= _INITIAL_LABELS
    return _ROW_OF_CODE.take(codes, axis=0)


def admits_legal_path(allowed: np.ndarray) -> bool:
    """Whether some legal label sequence keeps to ``allowed``, an [n, 4] bool
    array with n >= 1: the labels each position may take."""
    rows = (allowed @ _LABEL_BITS).tolist()  # the allowed labels, then the reachable ones
    reach = _INITIAL_LABELS & rows[0]
    for bits in rows[1:]:
        reach = _SUCCESSORS[reach] & bits
    return bool(reach & _FINAL_LABELS)


def legal_transitions() -> TransitionTable:
    """The constant BMES legality table."""
    return _TABLE


def boundary_bigrams() -> frozenset[tuple[Label, Label]]:
    """Legal label bigrams that assert a word boundary at their junction."""
    return _BOUNDARY_BIGRAMS


def non_boundary_bigrams() -> frozenset[tuple[Label, Label]]:
    """Legal label bigrams whose junction is word-internal."""
    return frozenset(_LEGAL_BIGRAMS - _BOUNDARY_BIGRAMS)


def parse_tags(tags: str | Sequence[int]) -> tuple[int, ...]:
    """Normalize a tag sequence ("BME...", Label list, or int list) to int tuple."""
    if isinstance(tags, str):
        try:
            return tuple(LABEL_CHARS.index(c) for c in tags)
        except ValueError:
            raise IllegalTagSequence(f"unknown label character in {tags!r}") from None
    try:
        out = tuple(map(operator.index, tags))  # ints, numpy integers and Labels
    except TypeError:
        raise IllegalTagSequence(f"label id that is not an integer in {tags!r}") from None
    if any(t < 0 or t >= N_LABELS for t in out):
        raise IllegalTagSequence(f"label id out of range in {out!r}")
    return out


def tags_to_str(tags: Sequence[int]) -> str:
    return "".join(LABEL_CHARS[t] for t in tags)


def label_arrays(tag_sequences, lengths) -> list[np.ndarray]:
    """The label arrays of tag sequences for sentences of ``lengths`` characters:
    the one check of tag sequences, for training gold, ``is_legal`` and ``labels_to_words``.

    Checks every sequence in one pass over their concatenation. The first
    bad one, in order, raises what checking it alone would: an unknown label
    (``parse_tags``' error for a sequence of ints), else a length mismatch,
    else an illegal start, end or transition (an empty sequence is illegal).
    """
    texts = []
    for k, tags in enumerate(tag_sequences):
        if not isinstance(tags, str):
            try:
                tags = tags_to_str(parse_tags(tags))
            except Exception:
                label_arrays(tag_sequences[:k], lengths[:k])  # an earlier error comes first
                raise
        texts.append(tags)
    n_tags = np.fromiter(map(len, texts), np.intp, len(texts))
    ends = np.cumsum(n_tags)
    starts = ends - n_tags
    # a non-ASCII character becomes "?", which is no label either
    labels = _LABEL_OF_CODE[np.frombuffer("".join(texts).encode("ascii", "replace"), np.uint8)]
    # position i starts its sequence when is_first[i], ends it when is_first[i + 1]
    is_first = np.zeros(len(labels) + 1, dtype=bool)
    is_first[starts] = True
    is_first[-1] = True
    prev = np.roll(labels, 1)  # the label before each position, where there is one
    illegal = np.where(is_first[:-1], ~_TABLE.legal_start[labels], ~_TABLE.legal[prev, labels])
    illegal |= is_first[1:] & ~_TABLE.legal_end[labels]

    def per_sequence(at: np.ndarray) -> np.ndarray:
        """Whether ``at`` holds at some position of each sequence."""
        count = np.concatenate([[0], np.cumsum(at)])
        return count[ends] > count[starts]

    unknown = per_sequence(labels < 0)
    wrong_length = n_tags != np.asarray(lengths, dtype=np.intp)
    bad = unknown | wrong_length | per_sequence(illegal) | (n_tags == 0)
    if bad.any():
        k = int(np.argmax(bad))
        if unknown[k]:
            raise IllegalTagSequence(f"unknown label character in {texts[k]!r}")
        if wrong_length[k]:
            raise LengthMismatch(f"{n_tags[k]} tags for {lengths[k]} characters")
        raise IllegalTagSequence(f"illegal tag sequence {texts[k]!r}")
    return [labels[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def is_legal(tags: str | Sequence[int]) -> bool:
    """A sequence is legal iff start, end and every adjacent bigram are legal;
    ``IllegalTagSequence`` for an unknown label."""
    t = parse_tags(tags)
    try:
        label_arrays([t], [len(t)])
    except IllegalTagSequence:
        return False
    return True


def words_to_labels(seg: SegmentedSentence) -> str:
    """Encode a segmentation as a BMES string."""
    parts = []
    for start, end in seg.spans:
        n = end - start
        parts.append("S" if n == 1 else "B" + "M" * (n - 2) + "E")
    return "".join(parts)


def labels_to_words(tags: str | Sequence[int], sentence: str) -> SegmentedSentence:
    """Decode a legal BMES sequence into word spans over ``sentence``: ``cut_words``
    after ``label_arrays``' check, the checked decoder the tests hold the corpus decode to."""
    [labels] = label_arrays([tags], [len(sentence)])
    return cut_words(labels.tolist(), sentence)


def cut_words(labels: Sequence[int], sentence: str) -> SegmentedSentence:
    """``sentence`` cut after every word-final label of ``labels``, a legal
    sequence of label ids as long as it (not checked: see ``labels_to_words``)."""
    spans = []
    start = 0
    for i, tag in enumerate(labels):
        if tag in _WORD_FINAL_IDS:
            spans.append((start, i + 1))
            start = i + 1
    return SegmentedSentence(sentence, tuple(spans))
