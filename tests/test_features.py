import numpy as np
import pytest

from pauseseg import features
from pauseseg.features import BOS, EOS, SEP, FeatureVocabulary


def test_default_templates():
    names = [name for name, _ in features.DEFAULT_TEMPLATES]
    offsets = [offs for _, offs in features.DEFAULT_TEMPLATES]
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


def test_unknown_ids_are_reserved_per_template():
    vocab = FeatureVocabulary()
    assert vocab.size == len(features.DEFAULT_TEMPLATES)
    vocab.add_sentence("ab")
    vocab.freeze()
    ids = vocab.encode("xy")  # nothing shared with "ab" except sentinels
    n_templates = len(features.DEFAULT_TEMPLATES)
    for pos in range(2):
        for t in range(n_templates):
            fid = ids[pos, t]
            feat = features.extract_features("xy", pos)[t]
            if vocab.feature_id(feat, t) == t:
                assert fid == t  # the template's unknown id


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
    assert ids.shape == (2, len(features.DEFAULT_TEMPLATES))
    assert ids.dtype == np.int64


def test_add_sentence_returns_the_ids_encode_gives():
    vocab = FeatureVocabulary()
    texts = ["abcab", "b", "", "cax"]
    added = [vocab.add_sentence(text) for text in texts]
    vocab.freeze()
    for text, ids in zip(texts, added):
        assert ids.shape == (len(text), len(features.DEFAULT_TEMPLATES))
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, vocab.encode(text))


def test_encode_requires_frozen_vocab():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    with pytest.raises(RuntimeError):
        vocab.encode("ab")


def test_restore_round_trip():
    vocab = FeatureVocabulary()
    vocab.add_sentence("abc")
    vocab.freeze()
    restored = FeatureVocabulary.restore(
        vocab.templates, list(vocab.items()), vocab.size
    )
    assert restored.size == vocab.size
    assert np.array_equal(restored.encode("abc"), vocab.encode("abc"))
    assert np.array_equal(restored.encode("xyz"), vocab.encode("xyz"))


def test_restore_rejects_sparse_ids():
    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    vocab.freeze()
    items = list(vocab.items())[:-1]  # drop one feature
    with pytest.raises(ValueError):
        FeatureVocabulary.restore(vocab.templates, items, vocab.size)


def test_emission_scores_sum_feature_weights():
    from pauseseg import crf

    vocab = FeatureVocabulary()
    vocab.add_sentence("ab")
    vocab.freeze()
    model = crf.CrfModel(vocab)
    E = features.emission_scores(vocab.encode("ab"), model.emit_w)
    assert E.shape == (2, 4)
    assert np.all(E == 0.0)

    fid = vocab.feature_id("U0=a", 2)
    assert fid >= len(features.DEFAULT_TEMPLATES)
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
    # Renumbering the real features (unknown ids stay put) while permuting
    # the weight rows the same way cannot change any score.
    vocab = FeatureVocabulary()
    vocab.add_sentence("abcab")
    vocab.freeze()
    n_unk = len(vocab.templates)
    rng = np.random.default_rng(9)
    perm = np.arange(vocab.size)
    perm[n_unk:] = n_unk + rng.permutation(vocab.size - n_unk)

    shuffled = FeatureVocabulary(vocab.templates)
    for feature, fid in vocab.items():
        shuffled._index[feature] = int(perm[fid])
    shuffled._next = vocab.size
    shuffled.freeze()

    w = rng.normal(size=(vocab.size, 4))
    w_perm = np.empty_like(w)
    w_perm[perm] = w
    for text in ["abcab", "bac", "xya"]:
        base = features.emission_scores(vocab.encode(text), w)
        moved = features.emission_scores(shuffled.encode(text), w_perm)
        np.testing.assert_array_equal(base, moved)
