import pytest

from pauseseg import segments
from pauseseg.segments import SegmentedSentence


class TestSegmentedSentence:
    def test_from_words(self):
        seg = SegmentedSentence.from_words(["一二", "三"])
        assert seg.chars == "一二三"
        assert seg.spans == ((0, 2), (2, 3))
        assert seg.words == ["一二", "三"]

    def test_spans_must_partition(self):
        with pytest.raises(ValueError):
            SegmentedSentence("一二三", ((0, 2),))  # gap at the end
        with pytest.raises(ValueError):
            SegmentedSentence("一二三", ((0, 2), (1, 3)))  # overlap
        with pytest.raises(ValueError):
            SegmentedSentence("一二", ((0, 0), (0, 2)))  # empty word

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            SegmentedSentence("", ())

    def test_boundary_junctions(self):
        seg = SegmentedSentence.from_words(["一二", "三", "四五"])
        assert seg.boundary_junctions() == {1, 2}
        assert SegmentedSentence.from_words(["一二三"]).boundary_junctions() == set()


class TestGoldFormat:
    def test_parse_line(self):
        seg = segments.parse_gold_line("一二 三\n")
        assert seg.words == ["一二", "三"]

    def test_blank_line_is_none(self):
        assert segments.parse_gold_line("   \n") is None

    def test_format_line(self):
        seg = SegmentedSentence.from_words(["一二", "三"])
        assert segments.format_gold_line(seg) == "一二 三"

    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        data = [
            SegmentedSentence.from_words(["一二", "三"]),
            SegmentedSentence.from_words(["四"]),
        ]
        segments.write_gold_corpus(path, data)
        assert segments.read_gold_corpus(path) == data

    def test_blank_lines_are_skipped(self):
        corpus = segments.parse_gold_corpus("一二 三\n\n四\n")
        assert len(corpus) == 2

    def test_multiple_spaces_collapse(self):
        seg = segments.parse_gold_line("一二\t三  四")
        assert seg.words == ["一二", "三", "四"]
