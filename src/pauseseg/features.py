"""Sparse character n-gram features and per-position emission scores.

The feature set is fixed: nine templates (``TEMPLATES``), the character
unigrams at offsets -2..+2 and the four adjacent bigrams. A feature is a
template plus the characters at its offsets from the current position;
positions outside the sentence contribute the sentinels ``⟨BOS⟩`` /
``⟨EOS⟩``. Inside the package a feature is one int64 key that packs the
template index and the code points at its one or two offsets in 21-bit
fields, with BOS and EOS as the codes just past the last Unicode code
point. A vocabulary numbers its features by the rank of their keys.

A corpus is keyed with two sorts: a unigram reads the code at one offset
and a bigram the adjacent pair from its first offset, so the corpus's
distinct codes and distinct pairs, behind each template's index, are
every key it can fire (``FeatureVocabulary._corpus_keys``). One sentence
alone is keyed directly, one row per character (``_keys``).

Feature strings, ``"<template name>=<chars>"`` with the characters of a
bigram joined by U+001F, are only read, by ``FeatureVocabulary.feature_key``;
``extract_features`` is their reference definition.
"""

from __future__ import annotations

import numpy as np

BOS = "⟨BOS⟩"
EOS = "⟨EOS⟩"
SEP = "\x1f"

# Character unigrams in a +-2 window and the four adjacent bigrams, in key order.
TEMPLATES: tuple[tuple[str, tuple[int, ...]], ...] = (
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

# Key layout: template index << 42 | first code << 21 | second code. A
# unigram keeps its code in the low field; code points end at 0x10FFFF, so
# the sentinels fit the 21-bit fields too.
CODE_BITS = 21
BOS_CODE = 0x110000
EOS_CODE = 0x110001
_CODE_MASK = (1 << CODE_BITS) - 1
_NO_KEY = np.iinfo(np.int64).max  # above every key: ends the sorted key array

_TEMPLATE_INDEX = {name: t for t, (name, _) in enumerate(TEMPLATES)}


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keys are (codes at the distinct offsets) @ pack + _BASE; per template, the offset
    each code field (high, low) is read at, and whether the template uses that field."""
    offsets = np.array(sorted({o for _, offs in TEMPLATES for o in offs}), np.int64)
    pack = np.zeros((len(offsets), len(TEMPLATES)), dtype=np.int64)
    field_used = np.zeros((len(TEMPLATES), 2), dtype=bool)
    field_offset = np.zeros((len(TEMPLATES), 2), dtype=np.int64)
    for t, (_, offs) in enumerate(TEMPLATES):
        for k, off in enumerate(offs):
            pack[np.searchsorted(offsets, off), t] += 1 << CODE_BITS * (len(offs) - 1 - k)
        field_used[t, 2 - len(offs) :] = True
        field_offset[t, 2 - len(offs) :] = offs
    return offsets, pack, field_used, field_offset


_OFFSETS, _PACK, _FIELD_USED, _FIELD_OFFSET = _tables()
_BASE = np.arange(len(TEMPLATES), dtype=np.int64) << 2 * CODE_BITS


def extract_features(sentence: str, position: int) -> list[str]:
    """One feature string per template for ``sentence[position]``."""
    if not 0 <= position < len(sentence):
        raise IndexError(f"position {position} outside sentence of length {len(sentence)}")
    n = len(sentence)
    feats = []
    for name, offsets in TEMPLATES:
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
    """Dense feature-to-id mapping; id 0 is shared by every unseen feature.

    A real feature's id is 1 plus the rank of its key among the
    vocabulary's keys, so the ascending key array is the whole mapping.
    ``add_sentence`` / ``add_corpus`` insert features until the vocabulary
    is frozen, and adding a feature renumbers every feature whose key is
    above its key; ``encode`` then maps unseen features to id 0, whose
    weights training never changes from 0.
    """

    def __init__(self):
        # the real features' keys in ascending order, then _NO_KEY
        self._sorted_keys = np.array([_NO_KEY], dtype=np.int64)
        self.frozen = False

    @property
    def size(self) -> int:
        return len(self._sorted_keys)

    def freeze(self) -> None:
        self.frozen = True

    # -- keys ---------------------------------------------------------------

    def _keys(self, sentence: str) -> np.ndarray:
        """Keys [characters, templates] of one sentence's characters."""
        codes = np.frombuffer(sentence.encode("utf-32-le", "surrogatepass"), "<u4")
        n = len(codes)
        padded = np.empty(n + 2, dtype=np.int64)
        padded[0], padded[1:-1], padded[-1] = BOS_CODE, codes, EOS_CODE
        # the code at every distinct offset, sentinels past the sentence ends
        window = padded[np.minimum(np.maximum(np.arange(1, n + 1)[:, None] + _OFFSETS, 0), n + 1)]
        return window @ _PACK + _BASE

    def _corpus_keys(self, sentences: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """A corpus's candidate keys, ascending, and the candidate each position fires.

        Returns ``keys`` and ``fired`` [templates, characters]: the feature of
        template t at the corpus's i-th character has key ``keys[fired[t, i]]``.
        Each sentence is laid out as BOS BOS c... EOS EOS, so every window
        reads inside its own sentence's slots. A unigram reads the code at
        one offset and a bigram the pair of codes from its first offset, so
        the corpus's distinct codes and its distinct adjacent pairs, with a
        template's index on top, are every key it can fire: two sorts key the
        corpus. The template is a key's top field, so the candidates ascend.
        Candidates no position fires, such as the EOS-BOS pair between two
        sentences, are left in.
        """
        codes = np.frombuffer("".join(sentences).encode("utf-32-le", "surrogatepass"), "<u4")
        lens = np.fromiter(map(len, sentences), np.int64, len(sentences))
        # character slots: each sentence starts 2 slots after the 4 sentinels before it
        slot = np.arange(len(codes)) + np.repeat(4 * np.arange(len(sentences)) + 2, lens)
        padded = np.full(len(codes) + 4 * len(sentences), EOS_CODE, dtype=np.int64)
        bos = np.cumsum(lens + 4) - lens - 4
        padded[bos] = padded[bos + 1] = BOS_CODE
        padded[slot] = codes
        pairs = padded[:-1] << CODE_BITS
        pairs |= padded[1:]
        by_width = (np.unique(padded, return_inverse=True), np.unique(pairs, return_inverse=True))
        del padded, pairs
        keys, fired, base = [], np.empty((len(TEMPLATES), len(codes)), dtype=np.int64), 0
        for t, (_, offsets) in enumerate(TEMPLATES):
            distinct, rank = by_width[len(offsets) - 1]
            keys.append(distinct | _BASE[t])
            np.take(rank, slot + offsets[0], out=fired[t])
            fired[t] += base
            base += len(distinct)
        return np.concatenate(keys), fired

    @staticmethod
    def _fireable(keys: np.ndarray) -> np.ndarray:
        """Which of ``keys`` some position of some sentence produces.

        A key names a template and fits its fields: the fields the template
        does not use are 0, BOS is read only at a negative offset and EOS
        only at a positive one, and along a bigram's two offsets the codes
        run BOS..., characters..., EOS....
        """
        t = keys >> 2 * CODE_BITS
        ok = (keys >= 0) & (t < len(TEMPLATES))
        t = np.where(ok, t, 0)  # a key that names no template is refused whatever it reads
        codes = np.stack([keys >> CODE_BITS & _CODE_MASK, keys & _CODE_MASK], axis=1)
        used, offset = _FIELD_USED[t], _FIELD_OFFSET[t]
        kind = np.where(codes == BOS_CODE, 0, np.where(codes == EOS_CODE, 2, 1))
        fits = (codes <= EOS_CODE) & ((kind != 0) | (offset < 0)) & ((kind != 2) | (offset > 0))
        ok &= np.where(used, fits, codes == 0).all(axis=1)
        return ok & ((kind[:, 0] <= kind[:, 1]) | ~used[:, 0])

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of known keys and a mask of the unknown ones, both shaped like ``keys``."""
        pos = np.searchsorted(self._sorted_keys, keys)
        return pos + 1, self._sorted_keys[pos] != keys

    # -- building -----------------------------------------------------------

    def add_sentence(self, sentence: str) -> np.ndarray:
        """Insert the sentence's unseen features; returns its ids like ``encode``.

        The ids are those the vocabulary gives after this call: a later add
        renumbers every feature whose key is above a key it inserts.
        """
        return self.add_corpus([sentence])[0]

    def add_corpus(self, sentences: list[str]) -> list[np.ndarray]:
        """``add_sentence`` of all the sentences at once, keyed by ``_corpus_keys``.

        Only the candidate keys some position fires are numbered: they are
        looked up once, and the unseen ones join the vocabulary in one merge.
        """
        if self.frozen:
            raise RuntimeError("vocabulary is frozen")
        sentences = list(sentences)
        if not sentences:
            return []
        keys, fired = self._corpus_keys(sentences)
        used = np.zeros(len(keys), dtype=bool)
        used[fired] = True
        keys = keys[used]
        ids, unseen = self._lookup(keys)
        # an id after the merge: 1 + the known keys below (the lookup) + the unseen keys below
        ids += np.cumsum(unseen) - unseen
        self._sorted_keys = _merge(self._sorted_keys, keys[unseen])
        candidate_ids = np.zeros(len(used), dtype=np.int64)
        candidate_ids[used] = ids
        return _per_sentence(candidate_ids, fired, sentences)

    # -- lookup -------------------------------------------------------------

    def encode(self, sentence: str) -> np.ndarray:
        """Feature ids as an int array of shape [len(sentence), len(TEMPLATES)]."""
        if not self.frozen:
            raise RuntimeError("freeze the vocabulary before encoding")
        ids, unseen = self._lookup(self._keys(sentence))
        return np.where(unseen, 0, ids)

    def encode_corpus(self, sentences: list[str]) -> list[np.ndarray]:
        """``encode`` of each sentence, keyed at once by ``_corpus_keys``."""
        if not self.frozen:
            raise RuntimeError("freeze the vocabulary before encoding")
        sentences = list(sentences)
        if not sentences:
            return []
        keys, fired = self._corpus_keys(sentences)
        ids, unseen = self._lookup(keys)
        ids[unseen] = 0
        return _per_sentence(ids, fired, sentences)

    # -- feature strings and keys --------------------------------------------

    def feature_key(self, feature: str) -> int:
        """The key of a feature string; ValueError if no sentence can produce it."""
        name, eq, body = feature.partition("=")
        t = _TEMPLATE_INDEX.get(name) if eq else None
        codes = None if t is None else _parse_codes(body, TEMPLATES[t][1])
        key = -1
        if codes is not None:
            key = 0
            for code in codes:
                key = key << CODE_BITS | code
            key |= t << 2 * CODE_BITS
        if not self._fireable(np.array([key], dtype=np.int64))[0]:
            raise ValueError(f"feature {feature!r} matches no template")
        return key

    def feature_id(self, feature: str) -> int:
        """Id of a feature string, or 0 (the id every unseen feature shares) if it is unseen.

        ValueError if no sentence can produce the feature.
        """
        ids, unseen = self._lookup(np.array([self.feature_key(feature)], dtype=np.int64))
        return 0 if unseen[0] else int(ids[0])

    def keys(self) -> np.ndarray:
        """The real features' keys in id order (ascending): feature ``k``'s is at ``k - 1``."""
        return self._sorted_keys[:-1].copy()

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "FeatureVocabulary":
        """A frozen vocabulary whose features 1, 2, ... have ``keys``, which must ascend.

        ValueError naming the first feature whose key no sentence can
        produce, or whose key is not above the one before it.
        """
        vocab = cls()
        keys = np.asarray(keys, dtype=np.int64)
        bad = np.flatnonzero(~vocab._fireable(keys))
        if len(bad):
            raise ValueError(f"feature {bad[0] + 1} (key {keys[bad[0]]}) matches no template")
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if len(bad):
            k = bad[0] + 1
            message = f"feature {k + 1} (key {keys[k]}) is not above feature {k}: keys must ascend"
            raise ValueError(message)
        vocab._sorted_keys = np.append(keys, _NO_KEY)
        vocab.freeze()
        return vocab


def _per_sentence(candidate_ids: np.ndarray, fired: np.ndarray, sentences) -> list[np.ndarray]:
    """Each sentence's ids [characters, templates], given the id of every candidate.

    Writes the ids over ``fired``, one template's row at a time, and returns
    views of it.
    """
    for row in fired:
        row[:] = candidate_ids.take(row)
    ends = np.cumsum([len(s) for s in sentences])
    return [fired[:, a:b].T for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())]


def _merge(keys_a: np.ndarray, keys_b: np.ndarray) -> np.ndarray:
    """Two sorted key arrays with no key in common, as one."""
    at_b = np.searchsorted(keys_a, keys_b) + np.arange(len(keys_b))  # b's output positions
    from_a = np.ones(len(keys_a) + len(keys_b), dtype=bool)
    from_a[at_b] = False
    keys = np.empty(len(from_a), dtype=keys_a.dtype)
    keys[from_a], keys[at_b] = keys_a, keys_b
    return keys


def _parse_codes(body: str, offsets: tuple[int, ...]) -> list[int] | None:
    """The codes a feature string's characters give at ``offsets``, or None if they do not fit.

    BOS is read only at a negative offset and EOS only at a positive one.
    """
    codes = []
    for k, off in enumerate(offsets):
        if k:
            if not body.startswith(SEP):
                return None
            body = body[1:]
        if off < 0 and body.startswith(BOS):
            codes.append(BOS_CODE)
            body = body[len(BOS) :]
        elif off > 0 and body.startswith(EOS):
            codes.append(EOS_CODE)
            body = body[len(EOS) :]
        elif body:
            codes.append(ord(body[0]))
            body = body[1:]
        else:
            return None
    return codes if body == "" else None


def emission_scores(ids: np.ndarray, emit_w: np.ndarray) -> np.ndarray:
    """Per-position label scores, shape [len(ids), 4].

    ``ids`` are encoded feature ids of shape [n, len(TEMPLATES)]; the score of
    label l at position i is the sum of the weights of the features active
    there, added in template order: ``w[ids[:, 0]] + w[ids[:, 1]] + ...``
    left to right. One ``take`` gathers the weights template-major, [9, n, 4],
    and a reduction over that leading axis adds its rows in that order.
    """
    return np.add.reduce(emit_w.take(ids.T, axis=0), axis=0)
