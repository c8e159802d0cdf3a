"""Segmentation scoring and side-by-side comparison of two outputs."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import LengthMismatch, SentenceMismatch
from .segments import SegmentedSentence


@dataclass(frozen=True)
class PrfScore:
    precision: float
    recall: float
    f1: float
    gold_words: int
    pred_words: int
    correct_words: int


def prf(
    gold: list[SegmentedSentence], pred: list[SegmentedSentence]
) -> PrfScore:
    """Micro-averaged word precision/recall/F1.

    A predicted word is correct only when the same character span appears in
    the gold segmentation of the same sentence.
    """
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(pred)} predictions for {len(gold)} gold sentences")
    n_gold = n_pred = n_correct = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.chars != p.chars:
            raise SentenceMismatch(
                f"sentence {i}: prediction text differs from gold text"
            )
        gold_spans = set(g.spans)
        n_gold += len(g.spans)
        n_pred += len(p.spans)
        n_correct += sum(1 for s in p.spans if s in gold_spans)
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfScore(precision, recall, f1, n_gold, n_pred, n_correct)


def single_char_word_rate(pred: list[SegmentedSentence]) -> float:
    """Fraction of predicted words that are one character long."""
    total = sum(len(p.spans) for p in pred)
    singles = sum(1 for p in pred for b, e in p.spans if e - b == 1)
    return singles / total if total else 0.0


# ---------------------------------------------------------------------------
# Disagreement review sheets


def select_disagreements(
    pred_a: list[SegmentedSentence], pred_b: list[SegmentedSentence]
) -> list[int]:
    """Indices where the two outputs segment the same sentence differently."""
    if len(pred_a) != len(pred_b):
        raise LengthMismatch(f"{len(pred_a)} vs {len(pred_b)} sentences")
    out = []
    for i, (a, b) in enumerate(zip(pred_a, pred_b)):
        if a.chars != b.chars:
            raise SentenceMismatch(f"sentence {i}: the two outputs disagree on text")
        if a.spans != b.spans:
            out.append(i)
    return out


def _mark_words(seg: SegmentedSentence, other: SegmentedSentence) -> str:
    """Words joined by spaces, starring spans absent from the other output."""
    other_spans = set(other.spans)
    parts = []
    for b, e in seg.spans:
        word = seg.chars[b:e]
        parts.append(word if (b, e) in other_spans else "*" + word)
    return " ".join(parts)


def build_review_rows(
    pred_a: list[SegmentedSentence],
    pred_b: list[SegmentedSentence],
    seed: int = 0,
) -> list[tuple[int, str, str]]:
    """Blind review rows (sentence_id, output_1, output_2).

    Only disagreeing sentences are included. For each row the two systems
    are assigned to the columns in a random order, so a reviewer cannot
    tell which system produced which column; disagreeing words are starred.
    """
    rng = random.Random(seed)
    rows = []
    for i in select_disagreements(pred_a, pred_b):
        a, b = pred_a[i], pred_b[i]
        left, right = (a, b) if rng.random() < 0.5 else (b, a)
        rows.append((i, _mark_words(left, right), _mark_words(right, left)))
    return rows


def format_review_tsv(rows: list[tuple[int, str, str]]) -> str:
    lines = ["sentence_id\toutput_1\toutput_2"]
    for i, left, right in rows:
        lines.append(f"{i}\t{left}\t{right}")
    return "\n".join(lines) + "\n"
