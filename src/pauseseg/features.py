"""Sparse character n-gram features and per-position emission scores.

Feature strings are ``"<template name>=<chars>"``; for multi-character
templates the characters are joined with U+001F so that no two distinct
n-grams can collide. Positions outside the sentence contribute the
sentinels ``⟨BOS⟩`` / ``⟨EOS⟩``.
"""

from __future__ import annotations

import numpy as np

BOS = "⟨BOS⟩"
EOS = "⟨EOS⟩"
SEP = "\x1f"

# Character unigrams in a +-2 window and the four adjacent bigrams.
DEFAULT_TEMPLATES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("U-2", (-2,)),
    ("U-1", (-1,)),
    ("U0", (0,)),
    ("U+1", (1,)),
    ("U+2", (2,)),
    ("B-2", (-2, -1)),
    ("B-1", (-1, 0)),
    ("B0", (0, 1)),
    ("B+1", (1, 2)),
)


def extract_features(
    sentence: str,
    position: int,
    templates: tuple[tuple[str, tuple[int, ...]], ...] = DEFAULT_TEMPLATES,
) -> list[str]:
    """One feature string per template for ``sentence[position]``."""
    if not 0 <= position < len(sentence):
        raise IndexError(f"position {position} outside sentence of length {len(sentence)}")
    n = len(sentence)
    feats = []
    for name, offsets in templates:
        parts = []
        for off in offsets:
            j = position + off
            if j < 0:
                parts.append(BOS)
            elif j >= n:
                parts.append(EOS)
            else:
                parts.append(sentence[j])
        feats.append(name + "=" + SEP.join(parts))
    return feats


class FeatureVocabulary:
    """Dense string-to-id mapping with one reserved UNK id per template.

    Ids 0..T-1 are the per-template UNK fallbacks; real features start at T.
    While unfrozen, lookups insert; once frozen, unseen features map to the
    UNK id of their template.
    """

    def __init__(self, templates: tuple[tuple[str, tuple[int, ...]], ...] = DEFAULT_TEMPLATES):
        self.templates = tuple((name, tuple(offs)) for name, offs in templates)
        self._index: dict[str, int] = {}
        self._next = len(self.templates)
        self.frozen = False

    @property
    def size(self) -> int:
        return self._next

    def add_sentence(self, sentence: str) -> np.ndarray:
        """Insert the sentence's unseen features; returns its ids like ``encode``."""
        if self.frozen:
            raise RuntimeError("vocabulary is frozen")
        return self._ids(sentence)

    def freeze(self) -> None:
        self.frozen = True

    def feature_id(self, feature: str, template_index: int) -> int:
        fid = self._index.get(feature)
        if fid is not None:
            return fid
        if self.frozen:
            return template_index
        fid = self._next
        self._index[feature] = fid
        self._next += 1
        return fid

    def encode(self, sentence: str) -> np.ndarray:
        """Feature ids as an int array of shape [len(sentence), n_templates]."""
        if not self.frozen:
            raise RuntimeError("freeze the vocabulary before encoding")
        return self._ids(sentence)

    def _ids(self, sentence: str) -> np.ndarray:
        # new ids go out in position, then template order: the model file's feature order
        n, templates = len(sentence), self.templates
        rows = [
            [self.feature_id(f, t) for t, f in enumerate(extract_features(sentence, i, templates))]
            for i in range(n)
        ]
        return np.array(rows, dtype=np.int64).reshape(n, len(templates))

    def items(self) -> list[tuple[str, int]]:
        """Real (non-UNK) features in id order."""
        return sorted(self._index.items(), key=lambda kv: kv[1])

    @classmethod
    def restore(
        cls,
        templates: tuple[tuple[str, tuple[int, ...]], ...],
        items: list[tuple[str, int]],
        size: int,
    ) -> "FeatureVocabulary":
        """Rebuild a frozen vocabulary from serialized (feature, id) pairs."""
        vocab = cls(templates)
        expected = len(vocab.templates)
        for feature, fid in items:
            if fid != expected:
                raise ValueError(f"non-dense feature id {fid} (expected {expected})")
            vocab._index[feature] = fid
            expected += 1
        vocab._next = expected
        if expected != size:
            raise ValueError(f"vocabulary size {size} does not match {expected} entries")
        vocab.freeze()
        return vocab


def emission_scores(ids: np.ndarray, emit_w: np.ndarray) -> np.ndarray:
    """Per-position label scores, shape [len(ids), 4].

    ``ids`` are encoded feature ids of shape [n, n_templates]; the score of
    label l at position i is the sum of the weights of the features active
    there.
    """
    return emit_w[ids].sum(axis=1)
