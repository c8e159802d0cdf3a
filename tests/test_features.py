"""Feature templates, the integer-keyed vocabulary and emission scores.

``RefVocabulary`` below is a string-keyed vocabulary: a set of
``extract_features`` strings, each numbered 1 plus the rank of its
``feature_key``. The real vocabulary must assign exactly its ids, and its
keys must be the ``feature_key`` of exactly its strings.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from pauseseg import crf, features, tagset
from pauseseg.features import BOS, EOS, SEP, FeatureVocabulary


# a string's key never changes, and the reference sorts every string again after each add
FEATURE_KEY = functools.lru_cache(maxsize=None)(FeatureVocabulary().feature_key)


class RefVocabulary:
    def __init__(self):
        self.features: set[str] = set()
        self.index: dict[str, int] | None = None  # feature string -> id, once asked for

    @property
    def size(self):
        return len(self.features) + 1  # id 0: every unseen feature

    def add(self, sentences):
        for sentence in sentences:
            for i in range(len(sentence)):
                self.features.update(features.extract_features(sentence, i))
        self.index = None

    def ids(self, sentence):
        """The ids of the sentence's features as the vocabulary stands, 0 for the unseen ones."""
        if self.index is None:
            ranked = sorted(self.features, key=FEATURE_KEY)
            self.index = {f: k for k, f in enumerate(ranked, 1)}
        rows = [
            [self.index.get(f, 0) for f in features.extract_features(sentence, i)]
            for i in range(len(sentence))
        ]
        return np.array(rows, dtype=np.int64).reshape(len(sentence), len(features.TEMPLATES))

    def keys(self):
        """The features' keys in id order."""
        return np.array(sorted(map(FEATURE_KEY, self.features)), dtype=np.int64)


def assert_adds_like_the_reference(vocab, ref, sentences):
    """``vocab.add_corpus(sentences)`` gives the ids ``ref`` gives after the same add."""
    got = vocab.add_corpus(sentences)
    ref.add(sentences)
    for ids, text in zip(got, sentences, strict=True):
        np.testing.assert_array_equal(ids, ref.ids(text))
    assert vocab.size == ref.size
    np.testing.assert_array_equal(vocab.keys(), ref.keys())


# characters that stress the keys: the separator, the sentinels' text,
# astral code points, the last code point and lone surrogates
LONE_SURROGATES = [chr(0xD800), chr(0xDFFF), chr(0xD83D) + chr(0xDE00)]
SPECIAL = ["a", "b", SEP, "⟨", "⟩", "=", BOS, EOS, chr(0x1F600), chr(0x10FFFF)]


def texts(special):
    piece = st.one_of(st.sampled_from(special), st.characters())
    return st.lists(piece, max_size=5).map("".join)


def test_default_templates():
    names = [name for name, _ in features.TEMPLATES]
    offsets = [offs for _, offs in features.TEMPLATES]
    assert names == ["U-2", "U-1", "U0", "U+1", "U+2", "B-2", "B-1", "B0", "B+1"]
    assert offsets == [
        (-2,), (-1,), (0,), (1,), (2,),
        (-2, -1), (-1, 0), (0, 1), (1, 2),
    ]


def test_unigram_features_use_sentinels_at_edges():
    feats = features.extract_features("abc", 0)
    assert feats[0] == f"U-2={BOS}"
    assert feats[1] == f"U-1={BOS}"
    assert feats[2] == "U0=a"
    assert feats[3] == "U+1=b"
    assert feats[4] == "U+2=c"
    feats_end = features.extract_features("abc", 2)
    assert feats_end[3] == f"U+1={EOS}"
    assert feats_end[4] == f"U+2={EOS}"


def test_bigram_features_join_with_separator():
    feats = features.extract_features("abc", 1)
    assert feats[5] == f"B-2={BOS}{SEP}a"
    assert feats[6] == f"B-1=a{SEP}b"
    assert feats[7] == f"B0=b{SEP}c"
    assert feats[8] == f"B+1=c{SEP}{EOS}"


def test_separator_prevents_feature_collisions():
    # "ab"+"c" and "a"+"bc" at matching offsets must not produce the same
    # bigram feature string.
    f1 = f"B0=ab{SEP}c"
    f2 = f"B0=a{SEP}bc"
    assert f1 != f2


def test_unseen_features_share_id_0():
    vocab = FeatureVocabulary()
    assert vocab.size == 1
    vocab.add_sentence("ab")
    vocab.freeze()
    seen = {f for i in range(2) for f in features.extract_features("ab", i)}
    ids = vocab.encode("xy")  # nothing shared with "ab" except sentinels
    for pos in range(2):
        for t, feat in enumerate(features.extract_features("xy", pos)):
            assert ids[pos, t] == vocab.feature_id(feat)
            assert (ids[pos, t] == 0) == (feat not in seen)
    # one id for unseen features of every template
    assert (ids == 0).sum() > len(features.TEMPLATES)


def test_vocabulary_growth_and_freeze():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    before = vocab.size
    vocab.add_sentence("ab")
    assert vocab.size == before  # no duplicates
    vocab.freeze()
    with pytest.raises(RuntimeError):
        vocab.add_sentence("cd")
    ids = vocab.encode("ab")
    assert ids.shape == (2, len(features.TEMPLATES))
    assert ids.dtype == np.int64


def test_add_sentence_returns_the_ids_encode_gives():
    # the ids of the vocabulary as each add leaves it
    vocab = FeatureVocabulary()
    texts = ["abcab", "b", "", "cax"]
    for text in texts:
        ids = vocab.add_sentence(text)
        assert ids.shape == (len(text), len(features.TEMPLATES))
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, FeatureVocabulary.from_keys(vocab.keys()).encode(text))
    vocab.freeze()
    np.testing.assert_array_equal(ids, vocab.encode(texts[-1]))


def test_a_later_add_renumbers():
    # "U0=a" has a lower key than "U0=b": adding it moves "U0=b" up one id
    vocab = FeatureVocabulary()
    before = vocab.add_sentence("b")
    vocab.add_sentence("a")
    vocab.freeze()
    after = vocab.encode("b")
    u0 = [name for name, _ in features.TEMPLATES].index("U0")
    assert after[0, u0] == before[0, u0] + 1 == vocab.feature_id("U0=b")
    assert (after[0, :u0] == before[0, :u0]).all() and (after[0, u0:] > before[0, u0:]).all()


def test_encode_requires_frozen_vocab():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    with pytest.raises(RuntimeError):
        vocab.encode("ab")


def test_from_keys_round_trip():
    vocab = FeatureVocabulary()
    vocab.add_sentence("abc")
    vocab.freeze()
    restored = FeatureVocabulary.from_keys(vocab.keys())
    assert restored.frozen
    assert restored.size == vocab.size
    np.testing.assert_array_equal(restored.keys(), vocab.keys())
    assert np.array_equal(restored.encode("abc"), vocab.encode("abc"))
    assert np.array_equal(restored.encode("xyz"), vocab.encode("xyz"))


def test_from_keys_names_the_first_key_it_cannot_hold():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    keys = vocab.keys()
    for edited, k in [
        (np.insert(keys, 4, keys[1]), 5),  # a repeat, after higher keys
        (np.insert(keys, [4, 7], keys[1]), 5),
        (np.insert(keys, 2, keys[1]), 3),  # a repeat of the key just before it
        (keys[[0, 1, 3, 2, 4]], 4),  # two keys swapped
    ]:
        key = edited[k - 1]
        message = rf"^feature {k} \(key {key}\) is not above feature {k - 1}: keys must ascend$"
        with pytest.raises(ValueError, match=message):
            FeatureVocabulary.from_keys(edited)
    bad = keys.copy()
    bad[[2, 6]] = -1
    with pytest.raises(ValueError, match=r"feature 3 \(key -1\) matches no template"):
        FeatureVocabulary.from_keys(bad)


def test_from_keys_names_the_first_repeat_among_many():
    # the first feature whose key is not above the one before it: a repeat or a descent
    vocab = FeatureVocabulary()
    vocab.add_corpus(["".join(chr(0x4E00 + k % 500) for k in range(n, n + 30)) for n in range(400)])
    keys = vocab.keys()
    rng = np.random.default_rng(10)
    for _ in range(20):
        edited = keys.copy()
        at = rng.choice(len(keys), size=200, replace=False)
        edited[at] = keys[rng.integers(0, len(keys), size=200)]
        j = next(j for j in range(1, len(keys)) if edited[j] <= edited[j - 1])
        with pytest.raises(ValueError, match=f"^feature {j + 1} .* not above feature {j}: "):
            FeatureVocabulary.from_keys(edited)


def test_emission_scores_sum_feature_weights():
    from pauseseg import crf

    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    vocab.freeze()
    model = crf.CrfModel(vocab)
    E = features.emission_scores(vocab.encode("ab"), model.emit_w)
    assert E.shape == (2, 4)
    assert np.all(E == 0.0)

    fid = vocab.feature_id("U0=a")
    assert fid >= 1
    model.emit_w[fid, 0] = 1.5
    E = features.emission_scores(vocab.encode("ab"), model.emit_w)
    assert E[0, 0] == 1.5  # position 0 fires U0=a
    assert E[1, 0] == 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_emission_scores_add_the_templates_left_to_right(data):
    # weights of mixed sign from 1e-300 to 1e300: any other order of the
    # additions would round differently
    T = len(features.TEMPLATES)
    size = data.draw(st.integers(1, T - 1))  # fewer ids than templates: some repeat in every row
    magnitude = st.floats(min_value=1e-300, max_value=1e300)
    weight = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    w = np.array(data.draw(st.lists(weight, min_size=4 * size, max_size=4 * size))).reshape(size, 4)
    n = data.draw(st.integers(1, 6))
    ids = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=n * T, max_size=n * T)))
    ids = ids.reshape(n, T)
    ids[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, T - 1))] = 0
    want = w[ids[:, 0]]
    for t in range(1, T):
        want = want + w[ids[:, t]]
    assert features.emission_scores(ids, w).tobytes() == want.tobytes()


def test_emission_scores_are_linear_in_weights():
    vocab = FeatureVocabulary()
    vocab.add_sentence("abcab")
    vocab.freeze()
    rng = np.random.default_rng(3)
    w1 = rng.normal(size=(vocab.size, 4))
    w2 = rng.normal(size=(vocab.size, 4))
    for text in ["abcab", "cba", "xca"]:
        e1 = features.emission_scores(vocab.encode(text), w1)
        e2 = features.emission_scores(vocab.encode(text), w2)
        both = features.emission_scores(vocab.encode(text), w1 + w2)
        np.testing.assert_allclose(both, e1 + e2, rtol=0, atol=1e-12)


def test_scores_survive_id_permutation():
    # A vocabulary with more features numbers the shared ones differently
    # (the unseen id 0 stays put); with the weight rows moved by key, no
    # score of text that fires none of the extra features can change.
    vocab = FeatureVocabulary()
    vocab.add_sentence("abcab")
    vocab.freeze()
    bigger = FeatureVocabulary()
    bigger.add_corpus(["0b~", "abcab", "z"])  # keys below, between and above the shared ones
    bigger.freeze()
    assert bigger.feature_id("U0=b") != vocab.feature_id("U0=b")

    rng = np.random.default_rng(9)
    w = rng.normal(size=(vocab.size, 4))
    w_moved = rng.normal(size=(bigger.size, 4))
    w_moved[0] = w[0]
    w_moved[1 + np.searchsorted(bigger.keys(), vocab.keys())] = w[1:]
    for text in ["abcab", "bac", "xya"]:
        base = features.emission_scores(vocab.encode(text), w)
        moved = features.emission_scores(bigger.encode(text), w_moved)
        np.testing.assert_array_equal(base, moved)


@settings(max_examples=200, deadline=None)
@given(
    added=st.lists(texts(SPECIAL + LONE_SURROGATES), min_size=1, max_size=6),
    probes=st.lists(texts(SPECIAL + LONE_SURROGATES), max_size=4),
)
def test_ids_match_the_string_keyed_reference(added, probes):
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    for text in added:
        ref.add([text])
        np.testing.assert_array_equal(vocab.add_sentence(text), ref.ids(text))
    assert vocab.size == ref.size
    np.testing.assert_array_equal(vocab.keys(), ref.keys())

    assert_adds_like_the_reference(FeatureVocabulary(), ref, added)

    vocab.freeze()
    for text in added + probes:
        np.testing.assert_array_equal(vocab.encode(text), ref.ids(text))
    for text, ids in zip(probes, vocab.encode_corpus(probes)):
        np.testing.assert_array_equal(ids, ref.ids(text))


def runs_of(sentences, run_chars):
    """Consecutive runs of ``sentences``, each closed once it holds ``run_chars`` characters."""
    run, chars = [], 0
    for text in sentences:
        run.append(text)
        chars += len(text)
        if chars >= run_chars:
            yield run
            run, chars = [], 0
    if run:
        yield run


@pytest.mark.parametrize("run_chars", [1, 7, 2048])
def test_add_corpus_in_runs_numbers_like_the_reference(run_chars):
    # one call of 40 sentences, then one call per run of the rest: a key first
    # seen in a later call, or again after the vocabulary already holds it, is
    # numbered by its rank like every other
    rng = np.random.default_rng(5)
    alphabet = list("abcde\U0001F600" + SEP + BOS)
    corpus = ["".join(rng.choice(alphabet, size=rng.integers(0, 9))) for _ in range(300)]
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    for sentences in [corpus[:40], *runs_of(corpus[40:], run_chars)]:
        assert_adds_like_the_reference(vocab, ref, sentences)


# tiny alphabets, so that most keys repeat within a template and across calls
REPEATING_TEXTS = st.sampled_from(["a", "ab", "ab" + SEP + chr(0x1F600)]).flatmap(
    lambda alphabet: st.lists(st.text(st.sampled_from(alphabet), max_size=12), max_size=40)
)


@settings(max_examples=150, deadline=None)
@given(corpus=REPEATING_TEXTS, cut=st.integers(0, 40))
def test_add_corpus_numbers_repeated_keys_like_the_reference(corpus, cut):
    # the second call meets keys the first one numbered
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    for sentences in (corpus[:cut], corpus[cut:]):
        assert_adds_like_the_reference(vocab, ref, sentences)


def test_add_corpus_past_a_run_numbers_like_the_reference():
    # thousands of equal keys per template: the numbering goes on past long runs of one key
    rng = np.random.default_rng(8)
    corpus = ["".join(rng.choice(list("abc"), size=rng.integers(0, 40))) for _ in range(400)]
    assert min(map("".join(corpus).count, "abc")) > 2000
    assert_adds_like_the_reference(FeatureVocabulary(), RefVocabulary(), corpus)


def test_add_corpus_copies_each_feature_log_runs_times(monkeypatch):
    # one merge per call: the vocabulary is copied once, however long the corpus
    copied = []
    merge = features._merge

    def recorded(keys_a, keys_b):
        copied.append(len(keys_a) + len(keys_b))
        return merge(keys_a, keys_b)

    monkeypatch.setattr(features, "_merge", recorded)
    rng = np.random.default_rng(6)
    alphabet = [chr(0x4E00 + k) for k in range(3000)]
    corpus = ["".join(rng.choice(alphabet, size=20)) for _ in range(1000)]
    vocab = FeatureVocabulary()
    vocab.add_corpus(corpus[:600])
    assert copied == [vocab.size]
    vocab.add_corpus(corpus[600:])
    assert copied[1:] == [vocab.size]


def test_add_corpus_of_nothing_and_of_empty_sentences():
    vocab = FeatureVocabulary()
    assert vocab.add_corpus([]) == []
    assert vocab.size == 1
    corpus = ["", "ab", "", "ba", ""]
    assert [ids.shape for ids in vocab.add_corpus(corpus)] == [
        (len(s), len(features.TEMPLATES)) for s in corpus
    ]
    assert_adds_like_the_reference(FeatureVocabulary(), RefVocabulary(), corpus)
    empty = FeatureVocabulary().add_corpus([""])
    assert [ids.shape for ids in empty] == [(0, len(features.TEMPLATES))]


@settings(max_examples=200, deadline=None)
@given(
    keys=st.sets(st.integers(-(2**62), 2**62)),
    in_a=st.lists(st.booleans(), max_size=64),
)
def test_merge_is_a_sorted_concatenation(keys, in_a):
    # disjoint sorted halves, either of which may be empty
    keys = np.array(sorted(keys), dtype=np.int64)
    side = np.resize(np.array(in_a + [True], dtype=bool), len(keys))
    full = np.ones(len(keys), dtype=bool)
    for a, b in ((side, ~side), (~side, side), (full, ~full), (~full, full)):
        got = features._merge(keys[a], keys[b])
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, keys)


def test_encode_corpus_matches_encode():
    vocab = FeatureVocabulary()
    vocab.add_corpus(["abcab", "ba", "c"])
    vocab.freeze()
    # one feature that is no sentinel feature, which every text fires
    unigrams = FeatureVocabulary.from_keys([vocab.feature_key("U0=a")])
    assert vocab.encode_corpus([]) == []
    for v, batch in (
        (vocab, ["abab", "abab", "b", "aaaa", "", "cab"]),  # keys repeated in and across sentences
        (vocab, ["", ""]),
        (vocab, ["a" + chr(0x1F600) + "x", "ax", "xyz"]),
        (unigrams, ["xyz", "zyx", "q"]),  # only unseen keys
    ):
        got = v.encode_corpus(batch)
        assert len(got) == len(batch)
        for ids, text in zip(got, batch):
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, v.encode(text))
    assert not np.concatenate(unigrams.encode_corpus(["xyz", "zyx", "q"])).any()


def corpora(min_pieces=0, min_size=0):
    """Corpora of sentences of ``min_pieces``..3 pieces over an alphabet of 1 to 4 pieces.

    A small alphabet repeats characters within sentences and across their
    breaks; the pieces are those of ``texts``, SEP, BOS and EOS text and
    lone surrogates among them.
    """
    piece = st.one_of(st.sampled_from(SPECIAL + LONE_SURROGATES), st.characters())
    return st.lists(piece, min_size=1, max_size=4, unique=True).flatmap(
        lambda alphabet: st.lists(
            st.lists(st.sampled_from(alphabet), min_size=min_pieces, max_size=3).map("".join),
            min_size=min_size,
            max_size=30,
        )
    )


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(), probes=corpora())
def test_corpus_keys_number_and_encode_like_the_reference(corpus, probes):
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    assert_adds_like_the_reference(vocab, ref, corpus)
    assert vocab._fireable(vocab.keys()).all()
    vocab.freeze()
    texts_in = corpus + probes
    for ids, text in zip(vocab.encode_corpus(texts_in), texts_in, strict=True):
        assert ids.shape == (len(text), len(features.TEMPLATES)) and ids.dtype == np.int64
        np.testing.assert_array_equal(ids, vocab.encode(text))
        np.testing.assert_array_equal(ids, ref.ids(text))


@settings(max_examples=5, deadline=None)
@given(base=corpora(min_pieces=2, min_size=1), seed=st.integers(0, 2**16))
def test_a_corpus_past_two_batches_decodes_as_its_sentences_do(base, seed):
    # the corpus is encoded at once and sliced into batches: every row's
    # result is the one-sentence result, bitwise
    rng = np.random.default_rng(seed)
    reps = -(-(2 * crf.INFERENCE_BATCH_CHARS + 1) // sum(map(len, base)))
    sentences = [base[k] for k in rng.permutation(len(base) * reps) % len(base)]
    assert sum(map(len, sentences)) > 2 * crf.INFERENCE_BATCH_CHARS
    model = oracle.make_model(rng, base[: len(base) // 2 + 1], grid=0.25)
    tags = {s: crf.viterbi(s, model) for s in base}
    probs = {s: crf.boundary_probabilities(s, model) for s in base}

    got = crf.viterbi_words(sentences, model)
    assert got == [tagset.labels_to_words(tags[s], s) for s in sentences]
    every = [(k, j) for k, s in enumerate(sentences) for j in range(len(s) - 1)]
    rows, junctions = zip(*every)
    at = crf.boundary_probabilities_at(sentences, model, rows, junctions)
    assert at.tobytes() == np.concatenate([probs[s] for s in sentences]).tobytes()
    rows = rng.integers(0, len(sentences), size=50)
    junctions = [int(rng.integers(0, len(sentences[r]) - 1)) for r in rows]
    at = crf.boundary_probabilities_at(sentences, model, rows, junctions)
    want = np.array([probs[sentences[r]][j] for r, j in zip(rows, junctions)])
    assert at.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(added=st.lists(texts(SPECIAL), min_size=1, max_size=5), seed=st.integers(0, 2**16))
def test_model_text_round_trips_byte_identically(added, seed):
    vocab = FeatureVocabulary()
    vocab.add_corpus(added)
    vocab.freeze()
    rng = np.random.default_rng(seed)
    model = crf.CrfModel(vocab, rng.normal(size=(vocab.size, 4)))
    text = model.dumps()
    loaded = crf.CrfModel.loads(text)
    assert loaded.dumps() == text
    for sentence in added:
        np.testing.assert_array_equal(loaded.vocab.encode(sentence), vocab.encode(sentence))


def test_feature_id_only_looks_up():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    size = vocab.size
    assert vocab.feature_id("U0=z") == 0  # unseen
    assert vocab.feature_id("U0=a") >= 1
    assert vocab.size == size
    with pytest.raises(ValueError):
        vocab.feature_id("U0=ab")


def test_feature_strings_that_cannot_fire_have_no_key():
    vocab = FeatureVocabulary()
    assert vocab.feature_key(f"B-2={BOS}{SEP}a") >= 0
    for feature in ["nonsense", "U0=", "U0=ab", f"U0={BOS}", f"U-1={EOS}", "X=a",
                    f"B-2=a{SEP}{BOS}", f"B+1={EOS}{SEP}a", "B0=ab", f"B0=a{SEP}"]:
        with pytest.raises(ValueError):
            vocab.feature_key(feature)


def test_key_check_accepts_exactly_the_keys_some_sentence_fires():
    vocab = FeatureVocabulary()
    fired = {
        f
        for n in range(1, 6)
        for sentence in map("".join, itertools.product("ab", repeat=n))
        for i in range(n)
        for f in features.extract_features(sentence, i)
    }
    names = {BOS: features.BOS_CODE, EOS: features.EOS_CODE, "a": ord("a"), "b": ord("b")}
    keys, strings = [], []
    for t, (name, offsets) in enumerate(features.TEMPLATES):
        for parts in itertools.product(names, repeat=len(offsets)):
            key = 0  # a unigram keeps its code in the low field
            for part in parts:
                key = key << features.CODE_BITS | names[part]
            keys.append(t << 2 * features.CODE_BITS | key)
            strings.append(name + "=" + SEP.join(parts))
    accepted = vocab._fireable(np.array(keys, dtype=np.int64))
    assert accepted.sum() > 0 and not accepted.all()
    for key, string, ok in zip(keys, strings, accepted):
        assert ok == (string in fired), string
        if ok:
            assert vocab.feature_key(string) == key
        else:
            with pytest.raises(ValueError):
                vocab.feature_key(string)

    high = 1 << features.CODE_BITS
    junk = [
        -1,
        -(1 << 62),
        len(features.TEMPLATES) << 2 * features.CODE_BITS,  # no such template
        np.iinfo(np.int64).max,
        2 << 2 * features.CODE_BITS | high | ord("a"),  # "U0" with a nonzero high field
        2 << 2 * features.CODE_BITS | features.EOS_CODE + 1,  # a code past EOS
        7 << 2 * features.CODE_BITS | (features.EOS_CODE + 1) * high | ord("a"),
    ]
    assert not vocab._fireable(np.array(junk, dtype=np.int64)).any()
