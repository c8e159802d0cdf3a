import re

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_line_breaking_characters_stay_in_their_line(self, tmp_path):
        # str.splitlines() would end a line at each of these
        path = tmp_path / "corpus.txt"
        data = [
            SegmentedSentence.from_words(["一\u2027", "\x1b二", "\x84\x86"]),
            SegmentedSentence.from_words(["\ufeff三"]),
        ]
        segments.write_gold_corpus(path, data)
        assert segments.read_gold_corpus(path) == data
        for breaker in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            corpus = segments.parse_gold_corpus(f"一{breaker}二 三\r\n四\r\n")
            assert [s.chars for s in corpus] == ["一二三", "四"]

    def test_file_reader_keeps_a_lone_cr_in_its_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        for text, sentences in (("a b\rc d\n", 1), ("a b\r\nc d\r\n", 2), ("一 二\r\r\n三\r", 2)):
            path.write_bytes(text.encode("utf-8"))
            got = segments.read_gold_corpus(path)
            assert got == segments.parse_gold_corpus(text)
            assert len(got) == sentences

    @pytest.mark.parametrize("space", ["\x1c", "\u3000", " "])
    def test_word_holding_whitespace_is_refused(self, space, tmp_path):
        # the reader would split the word, so the writer must not write it
        for bad, words in [("a" + space + "b", ["a" + space + "b", "c"]),
                           (space, ["a", space]),
                           ("a" + space, ["c", "a" + space])]:
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                segments.format_gold_corpus([SegmentedSentence.from_words(words)])
        path = tmp_path / "corpus.txt"
        with pytest.raises(ValueError):
            segments.write_gold_corpus(path, [SegmentedSentence.from_words(["a" + space + "b"])])
        assert not path.exists()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
                     min_size=1, max_size=4),
            min_size=1, max_size=4),
        min_size=1, max_size=4))
    def test_round_trip_of_words_without_whitespace(self, sentences):
        data = [SegmentedSentence.from_words(words) for words in sentences]
        assert segments.parse_gold_corpus(segments.format_gold_corpus(data)) == data
