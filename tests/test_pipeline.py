import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from pauseseg import alignment, crf, evaluate, features, mining, pipeline, tagset
from pauseseg.alignment import CharAlignment
from pauseseg.crf import TrainConfig
from pauseseg.errors import EmptyDataset, NonFiniteWeights
from pauseseg.mining import PartialSentence
from pauseseg.segments import SegmentedSentence


def seg(*words):
    return SegmentedSentence.from_words(list(words))


def zero_model(text="一二三四五六"):
    vocab = features.FeatureVocabulary()
    vocab.add_sentence(text)
    vocab.freeze()
    return crf.CrfModel(vocab)


TINY_GOLD = [
    seg("一二", "三"), seg("一二", "四五"), seg("三", "四五"),
    seg("六", "一二"), seg("四五", "三"), seg("一二"), seg("六", "三"),
]


class TestStripPunctuation:
    def test_drops_punctuation_characters(self):
        cleaned = pipeline.strip_punctuation([seg("一二", "，", "三")])
        assert cleaned == [seg("一二", "三")]

    def test_mixed_word_keeps_other_characters(self):
        cleaned = pipeline.strip_punctuation([seg("一。二")])
        assert cleaned == [seg("一二")]

    def test_sentence_of_only_punctuation_disappears(self):
        assert pipeline.strip_punctuation([seg("。", "！")]) == []

    def test_symbol_extras_are_covered(self):
        cleaned = pipeline.strip_punctuation([seg("一～二", "￥", "三")])
        assert cleaned == [seg("一二", "三")]

    def test_idempotent(self):
        corpus = [seg("一二", "。", "三～四"), seg("五", "六七")]
        once = pipeline.strip_punctuation(corpus)
        assert pipeline.strip_punctuation(once) == once

    def test_plain_text_untouched(self):
        corpus = [seg("一二", "三"), seg("四五六")]
        assert pipeline.strip_punctuation(corpus) == corpus


class TestStripPunctuationPartial:
    def test_indices_shift_left(self):
        # 一二。三|四: junction between 三 and 四 must survive the deletion
        p = PartialSentence("一二。三四", (3,))
        (out,) = pipeline.strip_punctuation_partial([p])
        assert out.chars == "一二三四"
        assert out.boundaries == (2,)

    def test_junction_touching_deleted_char_is_dropped(self):
        p = PartialSentence("一。二", (0, 1))
        (out,) = pipeline.strip_punctuation_partial([p])
        assert out.chars == "一二"
        assert out.boundaries == ()

    def test_all_punctuation_sentence_disappears(self):
        assert pipeline.strip_punctuation_partial([PartialSentence("。！", ())]) == []


class TestGoldExamples:
    def test_tags_match_segmentation(self):
        (ex,) = pipeline.gold_examples([seg("一二", "三")])
        assert ex.sentence == "一二三"
        assert ex.tags == "BES"


class TestCompletion:
    def test_completion_honors_boundaries(self):
        model = zero_model()
        out = pipeline.complete_annotation(model, PartialSentence("一二三四", (1,)))
        assert 1 in out.boundary_junctions()
        assert out.chars == "一二三四"

    def test_unconstrained_zero_model_prefers_one_word(self):
        model = zero_model()
        (out,) = pipeline.segment_corpus(model, ["一二三四"])
        assert out.words == ["一二三四"]


class TestSelfTrainLabel:
    """One sentence self-trained alone: a batch of one through ``self_train_corpus``."""

    def test_zero_model_prefers_one_word(self):
        (out,) = pipeline.self_train_corpus(zero_model(), ["一二"])
        assert out.words == ["一二"]

    def test_equals_completion_without_boundaries(self):
        import oracle

        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            s = oracle.random_sentence(rng, n, alphabet="abcd")
            model = oracle.make_model(rng, [s])
            free = pipeline.complete_annotation(model, PartialSentence(s, ()))
            assert pipeline.self_train_corpus(model, [s])[0] == free

    def test_repeated_calls_agree(self):
        import oracle

        rng = np.random.default_rng(37)
        s = oracle.random_sentence(rng, 6)
        model = oracle.make_model(rng, [s], grid=0.25)
        first = pipeline.self_train_corpus(model, [s])[0]
        assert all(
            pipeline.self_train_corpus(model, [s])[0] == first for _ in range(5)
        )


class TestRunCtt:
    def test_returns_baseline_completions_and_model(self):
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        target = [PartialSentence("一二三", (1,)), PartialSentence("四五六", ())]
        result = pipeline.run_ctt(TINY_GOLD, target, cfg)
        assert result.used == 1
        assert result.skipped == 1  # the boundary-free sentence
        assert len(result.completed) == 1
        assert 1 in result.completed[0].boundary_junctions()
        assert isinstance(result.model, crf.CrfModel)
        assert result.model is not result.baseline

    def test_self_training_keeps_boundary_free_sentences(self):
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        target = [PartialSentence("一二三", (1,)), PartialSentence("四五六", ())]
        result = pipeline.run_ctt(TINY_GOLD, target, cfg, self_training=True)
        assert result.used == 2
        assert result.skipped == 0

    def test_self_training_ignores_boundaries(self):
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        target = [PartialSentence("一二三四五六", (0, 1, 2, 3, 4))]
        result = pipeline.run_ctt(TINY_GOLD, target, cfg, self_training=True)
        # constrained decoding would be forced to all single-char words;
        # self-training decodes freely, so the completion need not be
        free = pipeline.segment_corpus(result.baseline, ["一二三四五六"])[0]
        assert result.completed[0] == free

    def test_self_training_keeps_spaces_of_partial_text(self):
        # a space read from a partial file is a character in every recipe
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        target = [mining.parse_partial_line("一 二|三")]
        result = pipeline.run_ctt(TINY_GOLD, target, cfg, self_training=True)
        assert result.completed[0].chars == "一 二三"
        completed = pipeline.run_ctt(TINY_GOLD, target, cfg).completed
        assert completed[0].chars == "一 二三"

    def test_no_usable_target_raises(self):
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(EmptyDataset):
            pipeline.run_ctt(TINY_GOLD, [PartialSentence("一二", ())], cfg)

    def test_precomputed_baseline_is_reused(self):
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        baseline = pipeline.train_baseline(TINY_GOLD, cfg)
        target = [PartialSentence("一二三", (1,))]
        result = pipeline.run_ctt(TINY_GOLD, target, cfg, baseline=baseline)
        assert result.baseline is baseline

    def test_deterministic_for_a_seed(self):
        cfg = TrainConfig(epochs=2, seed=7, batch_chars=10)
        target = [PartialSentence("一二三", (1,)), PartialSentence("三四五", (0,))]
        r1 = pipeline.run_ctt(TINY_GOLD, target, cfg)
        r2 = pipeline.run_ctt(TINY_GOLD, target, cfg)
        assert np.array_equal(r1.model.emit_w, r2.model.emit_w)
        assert r1.model.dumps() == r2.model.dumps()


class TestRunPartialCrf:
    def test_trains_on_mixed_losses(self):
        cfg = TrainConfig(epochs=2, seed=0, batch_chars=10)
        target = [PartialSentence("一二三", (1,)), PartialSentence("四五六", (0,))]
        model = pipeline.run_partial_crf(TINY_GOLD, target, cfg)
        assert np.isfinite(model.emit_w).all()
        # target characters entered the vocabulary
        assert model.vocab.feature_id("U0=六") >= 1


class TestMinePartials:
    def test_end_to_end_over_alignments(self):
        model = zero_model()
        alignments = [
            CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40))),
            CharAlignment("u2", (("四", 0, 5),)),
        ]
        partials, scored = pipeline.mine_partials(model, alignments, threshold=0.4)
        assert partials[0].chars == "一二三"
        assert partials[0].boundaries == (0,)  # the 250 ms pause, scored 0.5
        assert partials[1].boundaries == ()
        assert len(scored[0]) == 1 and scored[0][0].junction == 0
        assert scored[1] == []
        assert pipeline.score_alignments(model, alignments) == scored

    def test_threshold_filters(self):
        model = zero_model()
        alignments = [
            CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40))),
        ]
        partials, _ = pipeline.mine_partials(model, alignments, threshold=0.9)
        assert partials[0].boundaries == ()


def test_segment_corpus_drops_whitespace():
    # the all-zero model prefers one word; whitespace is not part of it
    out = pipeline.segment_corpus(zero_model(), ["一二 三四", " 五\t六　"])
    assert [s.words for s in out] == [["一二三四"], ["五六"]]


# ---------------------------------------------------------------------------
# The corpus passes against the public per-alignment and per-sentence calls

ALPHABET = "abcdefgh"
MINING_MODELS = [
    oracle.make_model(np.random.default_rng(seed), [ALPHABET], scale=scale)
    for seed, scale in ((3, 1.0), (8, 2.5))
]


@st.composite
def alignments(draw):
    """Alignments whose frames touch, overlap or leave gaps, at 10 or 7.5 ms per frame.

    A 1-frame gap at 10 ms and a 4-frame gap at 7.5 ms are exactly 10 and 30 ms.
    """
    chars = []
    begin = draw(st.integers(0, 5))
    for c in draw(st.text(alphabet=ALPHABET, min_size=1, max_size=8)):
        end = begin + draw(st.integers(0, 4))
        chars.append((c, begin, end))
        begin = draw(st.integers(begin, end + 5))  # the next begin: overlap, touch or gap
    ms = draw(st.sampled_from([10.0, 7.5]))
    return CharAlignment(f"u{draw(st.integers(0, 99))}", tuple(chars), ms)


@settings(max_examples=120, deadline=None)
@given(
    corpus=st.lists(alignments(), max_size=6),
    model=st.sampled_from(MINING_MODELS),
    min_pause_ms=st.sampled_from([0.0, 10.0, 30.0, 12.5]),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_mining_equals_the_per_alignment_calls(corpus, model, min_pause_ms, threshold):
    scored = [
        mining.score_pauses(model, a.sentence, alignment.detect_pauses(a, min_pause_ms))
        for a in corpus
    ]
    partials = [
        mining.pauses_to_partial(a.sentence, mining.filter_pauses(pauses, threshold))
        for a, pauses in zip(corpus, scored)
    ]
    assert pipeline.score_alignments(model, corpus, min_pause_ms) == scored
    assert pipeline.mine_partials(model, corpus, threshold, min_pause_ms) == (partials, scored)
    for a, pauses in zip(corpus, scored):
        durations = alignment.pause_durations(a)
        assert [p.duration_ms for p in pauses] == [d for d in durations if d >= min_pause_ms]
        for p in pauses:
            assert (type(p.junction), type(p.duration_ms), type(p.probability)) == (int, float, float)
            assert 0.0 <= p.probability <= 1.0


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_sentence_completion_equals_the_batch_and_the_checked_path(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    chars = data.draw(st.text(alphabet=ALPHABET, min_size=1, max_size=12))
    # normal weights: non-dyadic, so that sums round
    model = oracle.make_model(np.random.default_rng(seed), [ALPHABET], scale=1.5)
    junctions = st.integers(0, len(chars) - 2) if len(chars) > 1 else st.nothing()
    partial = PartialSentence(chars, tuple(data.draw(st.lists(junctions, max_size=len(chars) - 1))))
    mask = mining.build_constraint_mask(partial.chars, partial.boundaries)
    checked = tagset.labels_to_words(crf.viterbi(partial.chars, model, mask), partial.chars)
    assert pipeline.complete_annotation(model, partial) == checked
    assert pipeline.complete_corpus(model, [partial]) == [checked]


@pytest.mark.parametrize("weights", ["emit", "trans"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_every_decode_and_score_refuses_weights_that_are_not_finite(weights, value):
    model = oracle.make_model(np.random.default_rng(5), [ALPHABET])
    if weights == "emit":
        model.emit_w[:] = value
    else:
        model.trans[crf.TRANS_LEGAL] = value
    partial = PartialSentence("abcd", (1,))
    calls = [
        lambda: crf.viterbi("abcd", model),
        lambda: crf.viterbi_batch(["abcd", "ef"], model),
        lambda: pipeline.complete_annotation(model, partial),
        lambda: pipeline.complete_corpus(model, [partial]),
        lambda: pipeline.segment_corpus(model, ["abcd"]),
        lambda: mining.score_pauses(model, "abcd", [alignment.Pause(1, 20.0)]),
    ]
    for call in calls:
        with pytest.raises(NonFiniteWeights, match="not finite"):
            call()


def test_one_sentence_decode_refuses_a_nan_wherever_the_batched_core_does():
    # a NaN that only some paths meet: Python's comparisons, on their own, lose it
    model = oracle.make_model(np.random.default_rng(5), [ALPHABET])
    s = "abcd"
    ids = model.vocab.encode(s)
    E = int(tagset.Label.E)
    broken = []
    for f in np.unique(ids).tolist():
        nan_model = model.copy()
        nan_model.emit_w[f, E] = np.nan
        # E excluded wherever the feature fires: the NaN is masked away
        allowed = np.ones((len(s), tagset.N_LABELS), dtype=bool)
        allowed[(ids == f).any(axis=1), E] = False
        mask = crf.ConstraintMask(allowed)
        masked = crf.viterbi(s, nan_model, mask)
        assert masked == crf.viterbi_batch([s], nan_model, [mask])[0] == crf.viterbi(s, model, mask)
        broken.append(nan_model)
    for name in ("trans", "start", "end"):
        for index in np.ndindex(getattr(model, name).shape):  # illegal entries too
            nan_model = model.copy()
            getattr(nan_model, name)[index] = np.nan
            broken.append(nan_model)
    for nan_model in broken:
        with pytest.raises(NonFiniteWeights, match="not finite"):
            crf.viterbi_batch([s], nan_model)
        with pytest.raises(NonFiniteWeights, match="not finite"):
            crf.viterbi(s, nan_model)
        with pytest.raises(NonFiniteWeights, match="not finite"):
            crf.viterbi_labels(s, nan_model)


@pytest.mark.parametrize("seed, grid", [(31, None), (32, 0.25), (33, None)])
def test_corpus_decodes_cut_each_sentence_as_it_is_decoded_alone(seed, grid):
    rng = np.random.default_rng(seed)
    model = oracle.make_model(rng, [ALPHABET], scale=1.5, grid=grid)
    sentences = [oracle.random_sentence(rng, int(n), ALPHABET) for n in rng.integers(1, 41, 350)]
    assert sum(map(len, sentences)) > 3 * crf.INFERENCE_BATCH_CHARS
    partials = []
    for s in sentences:
        junctions = rng.integers(0, len(s) - 1, rng.integers(0, 4)) if len(s) > 1 else []
        partials.append(PartialSentence(s, tuple(sorted(set(np.asarray(junctions).tolist())))))
    masks = [mining.build_constraint_mask(p.chars, p.boundaries) for p in partials]
    free_tags = [crf.viterbi(s, model) for s in sentences]
    masked_tags = [crf.viterbi(s, model, m) for s, m in zip(sentences, masks)]
    free = [tagset.labels_to_words(t, s) for t, s in zip(free_tags, sentences)]
    masked = [tagset.labels_to_words(t, s) for t, s in zip(masked_tags, sentences)]

    assert crf.viterbi_batch(sentences, model) == free_tags
    assert crf.viterbi_batch(sentences, model, masks) == masked_tags
    assert pipeline.segment_corpus(model, sentences) == free
    assert pipeline.self_train_corpus(model, sentences) == free
    assert pipeline.complete_corpus(model, partials) == masked
    gold = [SegmentedSentence.from_words(list(s)) for s in sentences]
    dev_ids = model.vocab.encode_corpus(sentences)
    assert crf._dev_f1(model, gold, dev_ids) == evaluate.prf(gold, free).f1
