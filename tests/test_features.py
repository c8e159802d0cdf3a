"""Feature templates, the integer-keyed vocabulary and emission scores.

``RefVocabulary`` below is the string-keyed vocabulary the integer keys
replaced: one ``extract_features`` string per character and template,
looked up in a dict. The real vocabulary must assign exactly its ids, and
its keys must be the ``feature_key`` of exactly its strings.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauseseg import crf, features
from pauseseg.features import BOS, EOS, SEP, FeatureVocabulary


class RefVocabulary:
    def __init__(self):
        self.index: dict[str, int] = {}
        self.size = 1  # id 0: every unseen feature
        self.frozen = False

    def ids(self, sentence):
        rows = []
        for i in range(len(sentence)):
            row = []
            for t, f in enumerate(features.extract_features(sentence, i)):
                if f not in self.index and not self.frozen:
                    self.index[f] = self.size
                    self.size += 1
                row.append(self.index.get(f, 0))
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(len(sentence), len(features.TEMPLATES))

    def keys(self, vocab):
        """The keys ``vocab`` gives the features, in id order."""
        features_in_id_order = sorted(self.index, key=self.index.get)
        return np.array([vocab.feature_key(f) for f in features_in_id_order], dtype=np.int64)


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
    vocab = FeatureVocabulary()
    texts = ["abcab", "b", "", "cax"]
    added = [vocab.add_sentence(text) for text in texts]
    vocab.freeze()
    for text, ids in zip(texts, added):
        assert ids.shape == (len(text), len(features.TEMPLATES))
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, vocab.encode(text))


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
    with pytest.raises(ValueError, match="feature 5 repeats feature 2"):
        FeatureVocabulary.from_keys(np.insert(keys, 4, keys[1]))
    with pytest.raises(ValueError, match="feature 5 repeats feature 2"):
        FeatureVocabulary.from_keys(np.insert(keys, [4, 7], keys[1]))
    bad = keys.copy()
    bad[[2, 6]] = -1
    with pytest.raises(ValueError, match=r"feature 3 \(key -1\) matches no template"):
        FeatureVocabulary.from_keys(bad)


def test_from_keys_names_the_first_repeat_among_many():
    # the first feature whose key an earlier one holds, and that earlier one
    vocab = FeatureVocabulary()
    vocab.add_corpus(["".join(chr(0x4E00 + k % 500) for k in range(n, n + 30)) for n in range(400)])
    keys = vocab.keys()
    rng = np.random.default_rng(10)
    for _ in range(20):
        edited = keys.copy()
        at = rng.choice(len(keys), size=200, replace=False)
        edited[at] = keys[rng.integers(0, len(keys), size=200)]
        seen: dict[int, int] = {}
        for j, key in enumerate(edited.tolist()):
            if key in seen:
                break
            seen[key] = j
        with pytest.raises(ValueError, match=f"^feature {j + 1} repeats feature {seen[key] + 1}$"):
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
    # Renumbering the real features (the unseen id 0 stays put) while
    # permuting the weight rows the same way cannot change any score.
    vocab = FeatureVocabulary()
    vocab.add_sentence("abcab")
    vocab.freeze()
    rng = np.random.default_rng(9)
    perm = np.arange(vocab.size)
    perm[1:] = 1 + rng.permutation(vocab.size - 1)

    moved_keys = np.empty_like(vocab.keys())
    moved_keys[perm[1:] - 1] = vocab.keys()
    shuffled = FeatureVocabulary.from_keys(moved_keys)

    w = rng.normal(size=(vocab.size, 4))
    w_perm = np.empty_like(w)
    w_perm[perm] = w
    for text in ["abcab", "bac", "xya"]:
        base = features.emission_scores(vocab.encode(text), w)
        moved = features.emission_scores(shuffled.encode(text), w_perm)
        np.testing.assert_array_equal(base, moved)


@settings(max_examples=200, deadline=None)
@given(
    added=st.lists(texts(SPECIAL + LONE_SURROGATES), min_size=1, max_size=6),
    probes=st.lists(texts(SPECIAL + LONE_SURROGATES), max_size=4),
)
def test_ids_match_the_string_keyed_reference(added, probes):
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    want = [ref.ids(text) for text in added]
    for text, ids in zip(added, want):
        np.testing.assert_array_equal(vocab.add_sentence(text), ids)
    assert vocab.size == ref.size
    np.testing.assert_array_equal(vocab.keys(), ref.keys(vocab))

    at_once = FeatureVocabulary()
    for got, ids in zip(at_once.add_corpus(added), want, strict=True):
        np.testing.assert_array_equal(got, ids)
    np.testing.assert_array_equal(at_once.keys(), ref.keys(vocab))

    vocab.freeze()
    ref.frozen = True
    for text in added + probes:
        np.testing.assert_array_equal(vocab.encode(text), ref.ids(text))
    for text, ids in zip(probes, vocab.encode_corpus(probes)):
        np.testing.assert_array_equal(ids, ref.ids(text))


@pytest.mark.parametrize("run_chars", [1, 7, features.ADD_CHUNK_CHARS])
def test_add_corpus_in_runs_numbers_like_the_reference(monkeypatch, run_chars):
    # a key first seen in a late run, or again after the vocabulary already
    # holds it, keeps the id of its first occurrence
    monkeypatch.setattr(features, "ADD_CHUNK_CHARS", run_chars)
    rng = np.random.default_rng(5)
    alphabet = list("abcde\U0001F600" + SEP + BOS)
    corpus = ["".join(rng.choice(alphabet, size=rng.integers(0, 9))) for _ in range(300)]
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    for sentences in (corpus[:40], corpus[40:]):
        for got, text in zip(vocab.add_corpus(sentences), sentences, strict=True):
            np.testing.assert_array_equal(got, ref.ids(text))
    assert vocab.size == ref.size
    np.testing.assert_array_equal(vocab.keys(), ref.keys(vocab))


# tiny alphabets, so that most keys repeat within a sort's column and across runs
REPEATING_TEXTS = st.sampled_from(["a", "ab", "ab" + SEP + chr(0x1F600)]).flatmap(
    lambda alphabet: st.lists(st.text(st.sampled_from(alphabet), max_size=12), max_size=40)
)


@settings(max_examples=150, deadline=None)
@given(
    corpus=REPEATING_TEXTS,
    run_chars=st.sampled_from([1, 5, 16, features.ADD_CHUNK_CHARS]),
    cut=st.integers(0, 40),
)
def test_add_corpus_numbers_repeated_keys_like_the_reference(corpus, run_chars, cut):
    # the second call meets keys the first one numbered
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    with mock.patch.object(features, "ADD_CHUNK_CHARS", run_chars):
        for sentences in (corpus[:cut], corpus[cut:]):
            for got, text in zip(vocab.add_corpus(sentences), sentences, strict=True):
                np.testing.assert_array_equal(got, ref.ids(text))
    assert vocab.size == ref.size
    np.testing.assert_array_equal(vocab.keys(), ref.keys(vocab))


def test_add_corpus_past_a_run_numbers_like_the_reference():
    # thousands of equal keys per column, keyed in several runs
    rng = np.random.default_rng(8)
    corpus = ["".join(rng.choice(list("abc"), size=rng.integers(0, 40))) for _ in range(400)]
    assert sum(map(len, corpus)) > 3 * features.ADD_CHUNK_CHARS
    vocab, ref = FeatureVocabulary(), RefVocabulary()
    for got, text in zip(vocab.add_corpus(corpus), corpus, strict=True):
        np.testing.assert_array_equal(got, ref.ids(text))
    np.testing.assert_array_equal(vocab.keys(), ref.keys(vocab))


def test_numbering_does_not_depend_on_the_order_of_equal_keys(monkeypatch):
    # the default sort is not stable: let it put every run of equal keys
    # in descending position order, the opposite of a stable sort
    def ties_reversed(a, *args, **kwargs):
        return np.lexsort((-np.arange(len(a)), a))

    rng = np.random.default_rng(9)
    corpus = ["".join(rng.choice(list("ab"), size=rng.integers(0, 9))) for _ in range(60)]
    ref = RefVocabulary()
    want = [ref.ids(text) for text in corpus]
    monkeypatch.setattr(np, "argsort", ties_reversed)
    vocab = FeatureVocabulary()
    for got, ids in zip(vocab.add_corpus(corpus), want, strict=True):
        np.testing.assert_array_equal(got, ids)
    np.testing.assert_array_equal(vocab.keys(), ref.keys(vocab))


def test_add_corpus_copies_each_feature_log_runs_times(monkeypatch):
    # merging every run into the whole vocabulary would copy it once per run
    copied = []
    merge = features._merge

    def recorded(keys_a, ids_a, keys_b, ids_b):
        copied.append(len(keys_a) + len(keys_b))
        return merge(keys_a, ids_a, keys_b, ids_b)

    monkeypatch.setattr(features, "_merge", recorded)
    monkeypatch.setattr(features, "ADD_CHUNK_CHARS", 64)
    rng = np.random.default_rng(6)
    alphabet = [chr(0x4E00 + k) for k in range(3000)]
    corpus = ["".join(rng.choice(alphabet, size=20)) for _ in range(1000)]
    vocab = FeatureVocabulary()
    vocab.add_corpus(corpus)
    runs = len(corpus) * 20 // 64
    assert sum(copied) <= vocab.size * (np.log2(runs) + 2)


def test_add_corpus_of_nothing_and_of_empty_sentences():
    vocab = FeatureVocabulary()
    assert vocab.add_corpus([]) == []
    assert vocab.size == 1
    ref = RefVocabulary()
    corpus = ["", "ab", "", "ba", ""]
    got = vocab.add_corpus(corpus)
    assert [ids.shape for ids in got] == [(len(s), len(features.TEMPLATES)) for s in corpus]
    for ids, text in zip(got, corpus, strict=True):
        np.testing.assert_array_equal(ids, ref.ids(text))
    assert vocab.size == ref.size
    empty = FeatureVocabulary().add_corpus([""])
    assert [ids.shape for ids in empty] == [(0, len(features.TEMPLATES))]


@settings(max_examples=200, deadline=None)
@given(
    keys=st.sets(st.integers(-(2**62), 2**62)),
    in_a=st.lists(st.booleans(), max_size=64),
    seed=st.integers(0, 2**16),
)
def test_merge_is_a_sorted_concatenation(keys, in_a, seed):
    # disjoint sorted halves, either of which may be empty
    keys = np.array(sorted(keys), dtype=np.int64)
    side = np.resize(np.array(in_a + [True], dtype=bool), len(keys))
    ids = np.random.default_rng(seed).permutation(len(keys)).astype(np.int64)
    full = np.ones(len(keys), dtype=bool)
    for a, b in ((side, ~side), (~side, side), (full, ~full), (~full, full)):
        got_keys, got_ids = features._merge(keys[a], ids[a], keys[b], ids[b])
        assert got_keys.dtype == got_ids.dtype == np.int64
        np.testing.assert_array_equal(got_keys, keys)
        np.testing.assert_array_equal(got_ids, ids)


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
