"""Seeded, size-parameterised inputs for the benchmark workloads.

``build_world`` follows the two-domain design of ``tests/synthetic.py``:
the source domain is segmented text; the target domain shares the function
words and part of the content vocabulary, and its sentences come as
character alignments whose silences fall in three tiers (at word
boundaries, inside words, and at an elevated rate inside the words both
domains share). ``build_zipf_corpus`` is a segmented corpus over an
alphabet of a few thousand characters with Zipf-distributed characters and
words, so that its feature vocabulary grows to real-corpus sizes.

The same seed and sizes always give the same inputs. The lexicons come from
the fixed ``LANGUAGE_SEED`` and the seed draws the sentences (and the
pauses), so every seed samples one language and word F1 differs between
seeds by sampling alone. No generated sentence contains whitespace.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

CHAR_BASE = 0x4E00
LANGUAGE_SEED = 0
N_FUNCTION = 12
SOURCE_CHAR_RANGE = (12, 52)
TARGET_CHAR_RANGE = (45, 90)
N_SOURCE_WORDS = 160
N_SHARED_WORDS = 40
N_TARGET_NEW_WORDS = 120
SENTENCE_WORDS = (5, 12)
FUNCTION_WORD_RATE = 0.35

# Pause tiers: probability of a silence, and its length range in frames.
BOUNDARY_PAUSE = (0.6, (5, 40))
SHARED_INTERNAL_PAUSE = (0.85, (4, 25))
INTERNAL_PAUSE = (0.05, (2, 12))
CHAR_FRAMES = 20  # 200 ms per character at 10 ms frames


@dataclass
class World:
    """Word lists are gold segmentations; ``alignments`` hide their own gold."""

    source_train: list[list[str]]
    alignments: list[dict]
    target_dev: list[list[str]]
    target_test: list[list[str]]


def _char(i: int) -> str:
    return chr(CHAR_BASE + i)


def _make_words(rng: random.Random, count: int, char_range, taken: set[str]) -> list[str]:
    lo, hi = char_range
    words: list[str] = []
    while len(words) < count:
        r = rng.random()
        length = 2 if r < 0.75 else (3 if r < 0.95 else 4)
        w = "".join(_char(rng.randrange(lo, hi)) for _ in range(length))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _make_sentence(rng: random.Random, function_words, lexicon) -> list[str]:
    return [
        rng.choice(function_words) if rng.random() < FUNCTION_WORD_RATE else rng.choice(lexicon)
        for _ in range(rng.randint(*SENTENCE_WORDS))
    ]


def _pause_frames(rng: random.Random, tier) -> int:
    rate, (lo, hi) = tier
    return rng.randint(lo, hi) if rng.random() < rate else 0


def _alignment(rng: random.Random, words: list[str], shared: set[str], uid: str) -> dict:
    """One utterance in the package's alignment JSON record layout."""
    chars = []
    frame = 0
    for k, w in enumerate(words):
        tier = SHARED_INTERNAL_PAUSE if w in shared else INTERNAL_PAUSE
        for j, ch in enumerate(w):
            chars.append({"c": ch, "b": frame, "e": frame + CHAR_FRAMES})
            frame += CHAR_FRAMES
            if j < len(w) - 1:
                frame += _pause_frames(rng, tier)
            elif k < len(words) - 1:
                frame += _pause_frames(rng, BOUNDARY_PAUSE)
    return {"utterance_id": uid, "chars": chars, "frame_offset_ms": 10.0}


def build_world(seed: int, n_source: int, n_target: int, n_dev: int, n_test: int) -> World:
    language = random.Random(LANGUAGE_SEED)
    function_words = [_char(i) for i in range(N_FUNCTION)]
    taken = set(function_words)
    source_words = _make_words(language, N_SOURCE_WORDS, SOURCE_CHAR_RANGE, taken)
    shared_list = language.sample(source_words, N_SHARED_WORDS)
    target_words = shared_list + _make_words(language, N_TARGET_NEW_WORDS, TARGET_CHAR_RANGE, taken)
    shared = set(shared_list)
    rng = random.Random(seed)

    def sentences(lexicon, n):
        return [_make_sentence(rng, function_words, lexicon) for _ in range(n)]

    source_train = sentences(source_words, n_source)
    target_train = sentences(target_words, n_target)
    alignments = [_alignment(rng, s, shared, f"t{i:06d}") for i, s in enumerate(target_train)]
    return World(
        source_train=source_train,
        alignments=alignments,
        target_dev=sentences(target_words, n_dev),
        target_test=sentences(target_words, n_test),
    )


# ---------------------------------------------------------------------------
# Large-alphabet corpus

ZIPF_ALPHABET = 6000
ZIPF_LEXICON = 200000
ZIPF_EXPONENT = 0.7
ZIPF_SENTENCE_WORDS = (6, 18)


def _zipf_cdf(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank**exponent) for rank in range(1, n + 1)))


def _draw(rng: random.Random, cdf: list[float]) -> int:
    return bisect.bisect_left(cdf, rng.random() * cdf[-1])


def build_zipf_corpus(seed: int, n_chars: int, n_dev: int, n_test: int):
    """Segmented (train, dev, test) sentences over a Zipf large alphabet.

    Word types are built from Zipf-drawn characters; sentences draw word
    types by Zipf rank. Training sentences are added until ``n_chars``
    characters; dev and test are ``n_dev`` and ``n_test`` further sentences.
    """
    language = random.Random(LANGUAGE_SEED)
    char_cdf = _zipf_cdf(ZIPF_ALPHABET, ZIPF_EXPONENT)
    lexicon: list[str] = []
    seen: set[str] = set()
    while len(lexicon) < ZIPF_LEXICON:
        r = language.random()
        length = 1 if r < 0.2 else 2 if r < 0.8 else 3 if r < 0.95 else 4
        w = "".join(_char(_draw(language, char_cdf)) for _ in range(length))
        if w not in seen:
            seen.add(w)
            lexicon.append(w)
    word_cdf = _zipf_cdf(ZIPF_LEXICON, ZIPF_EXPONENT)
    rng = random.Random(seed)

    def sentence():
        return [lexicon[_draw(rng, word_cdf)] for _ in range(rng.randint(*ZIPF_SENTENCE_WORDS))]

    train: list[list[str]] = []
    chars = 0
    while chars < n_chars:
        s = sentence()
        train.append(s)
        chars += sum(len(w) for w in s)
    return train, [sentence() for _ in range(n_dev)], [sentence() for _ in range(n_test)]
