import pytest
from hypothesis import given, strategies as st

from pauseseg import evaluate
from pauseseg.errors import LengthMismatch, SentenceMismatch
from pauseseg.segments import SegmentedSentence


def seg(*words):
    return SegmentedSentence.from_words(list(words))


class TestPrf:
    def test_hand_computed_example(self):
        gold = [seg("一二", "三", "四")]
        pred = [seg("一", "二", "三", "四")]
        score = evaluate.prf(gold, pred)
        assert score.correct_words == 2  # 三 and 四 match as spans
        assert score.precision == pytest.approx(2 / 4)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(4 / 7)

    def test_perfect_prediction(self):
        gold = [seg("一二", "三"), seg("四五六")]
        score = evaluate.prf(gold, gold)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_micro_averaging_pools_counts(self):
        # one perfect short sentence must not offset a long wrong one
        gold = [seg("一"), seg("二三四五六七")]
        pred = [seg("一"), seg("二", "三", "四", "五", "六", "七")]
        score = evaluate.prf(gold, pred)
        assert score.gold_words == 2
        assert score.pred_words == 7
        assert score.correct_words == 1
        assert score.precision == pytest.approx(1 / 7)

    def test_same_word_different_position_does_not_match(self):
        gold = [seg("一一", "一")]
        pred = [seg("一", "一一")]  # the word 一一 appears at a shifted span
        assert pred[0].chars == gold[0].chars
        score = evaluate.prf(gold, pred)
        assert score.correct_words == 0

    def test_text_mismatch_rejected(self):
        with pytest.raises(SentenceMismatch):
            evaluate.prf([seg("一二")], [seg("三四")])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            evaluate.prf([seg("一二")], [])

    @given(st.lists(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
        min_size=1, max_size=5,
    ))
    def test_self_comparison_is_always_perfect(self, corpus_lengths):
        chars = "一二三四五六七八九十甲乙丙丁戊己庚辛壬癸"
        gold = []
        for lengths in corpus_lengths:
            words, k = [], 0
            for n in lengths:
                words.append(chars[k % len(chars)] * n)
                k += 1
            gold.append(seg(*words))
        score = evaluate.prf(gold, gold)
        assert score.f1 == 1.0

    @staticmethod
    def _random_corpus_pair(seed):
        # two segmentations of the same sentences, cut independently
        import random

        rng = random.Random(seed)
        chars = "一二三四五六七八"

        def cut(text):
            words, k = [], 0
            while k < len(text):
                n = rng.randint(1, min(3, len(text) - k))
                words.append(text[k : k + n])
                k += n
            return seg(*words)

        texts = [
            "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
            for _ in range(rng.randint(1, 8))
        ]
        return [cut(t) for t in texts], [cut(t) for t in texts]

    @pytest.mark.parametrize("seed", range(20))
    def test_swapping_sides_swaps_precision_and_recall(self, seed):
        a, b = self._random_corpus_pair(seed)
        ab = evaluate.prf(a, b)
        ba = evaluate.prf(b, a)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.f1 == ba.f1

    @pytest.mark.parametrize("seed", range(20))
    def test_perfect_f1_only_for_identical_segmentations(self, seed):
        a, b = self._random_corpus_pair(seed)
        score = evaluate.prf(a, b)
        assert (score.f1 == 1.0) == (a == b)


class TestSingleCharRate:
    def test_counts_one_char_words(self):
        pred = [seg("一", "二三"), seg("四", "五", "六七八")]
        assert evaluate.single_char_word_rate(pred) == pytest.approx(3 / 5)

    def test_empty_corpus(self):
        assert evaluate.single_char_word_rate([]) == 0.0


class TestDisagreements:
    def test_selects_only_differing_sentences(self):
        a = [seg("一二", "三"), seg("四五")]
        b = [seg("一", "二三"), seg("四五")]
        assert evaluate.select_disagreements(a, b) == [0]

    def test_text_mismatch_rejected(self):
        with pytest.raises(SentenceMismatch):
            evaluate.select_disagreements([seg("一二")], [seg("三四")])

    def test_review_rows_star_disputed_words(self):
        a = [seg("一二", "三")]
        b = [seg("一", "二三")]
        rows = evaluate.build_review_rows(a, b, seed=0)
        assert len(rows) == 1
        _, left, right = rows[0]
        # every word is disputed here, so all are starred
        assert set(left.split()) in ({"*一二", "*三"}, {"*一", "*二三"})
        assert set(right.split()) in ({"*一二", "*三"}, {"*一", "*二三"})
        assert left != right

    def test_shared_words_are_not_starred(self):
        a = [seg("一二", "三", "四五")]
        b = [seg("一二", "三四", "五")]
        rows = evaluate.build_review_rows(a, b, seed=0)
        _, left, right = rows[0]
        for column in (left, right):
            assert "*一二" not in column
            assert "一二" in column

    def test_column_order_is_seeded(self):
        a = [seg("一二"), seg("三四"), seg("五六"), seg("七八")]
        b = [seg("一", "二"), seg("三", "四"), seg("五", "六"), seg("七", "八")]
        rows1 = evaluate.build_review_rows(a, b, seed=3)
        rows2 = evaluate.build_review_rows(a, b, seed=3)
        assert rows1 == rows2
        flips = {
            seed: tuple(left for _, left, _ in evaluate.build_review_rows(a, b, seed=seed))
            for seed in range(8)
        }
        assert len(set(flips.values())) > 1  # some seed flips some row

    def test_tsv_layout(self):
        rows = [(3, "一 *二", "*一二")]
        tsv = evaluate.format_review_tsv(rows)
        lines = tsv.splitlines()
        assert lines[0] == "sentence_id\toutput_1\toutput_2"
        assert lines[1] == "3\t一 *二\t*一二"
