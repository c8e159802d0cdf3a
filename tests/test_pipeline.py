import numpy as np
import pytest

from pauseseg import crf, features, mining, pipeline
from pauseseg.alignment import CharAlignment
from pauseseg.crf import TrainConfig
from pauseseg.errors import EmptyDataset
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
