import pytest
from hypothesis import given, settings, strategies as st

from pauseseg import alignment
from pauseseg.alignment import CharAlignment
from pauseseg.errors import InvalidConfig, NonMonotoneFrames, ParseError, SentenceTooShort


TEXT = "一二三四五六七八九十"


def make_alignment(gaps_frames, frame_offset_ms=10.0, start=0, width=5):
    """Chain characters with the given inter-character gaps (in frames)."""
    chars = []
    b = start
    for i in range(len(gaps_frames) + 1):
        chars.append((TEXT[i], b, b + width))
        if i < len(gaps_frames):
            b = b + width + gaps_frames[i]
    return CharAlignment("utt", tuple(chars), frame_offset_ms)


class TestPauseDurations:
    def test_worked_example(self):
        # 23-frame and 11-frame silences at 10 ms per frame
        a = make_alignment([23, 0, 11, 1])
        assert alignment.pause_durations(a) == [230.0, 0.0, 110.0, 10.0]

    def test_overlap_clamps_to_zero(self):
        a = CharAlignment("utt", (("一", 0, 10), ("二", 7, 15)))
        assert alignment.pause_durations(a) == [0.0]

    def test_frame_offset_scales_durations(self):
        a = make_alignment([4], frame_offset_ms=25.0)
        assert alignment.pause_durations(a) == [100.0]

    def test_single_character_raises(self):
        a = CharAlignment("utt", (("一", 0, 5),))
        with pytest.raises(SentenceTooShort):
            alignment.pause_durations(a)


class TestDetectPauses:
    def test_threshold_is_inclusive(self):
        a = make_alignment([23, 0, 11, 1])
        pauses = alignment.detect_pauses(a, min_pause_ms=10.0)
        assert [(p.junction, p.duration_ms) for p in pauses] == [
            (0, 230.0), (2, 110.0), (3, 10.0),
        ]

    def test_higher_threshold_drops_short_pauses(self):
        a = make_alignment([23, 0, 11, 1])
        pauses = alignment.detect_pauses(a, min_pause_ms=50.0)
        assert [p.junction for p in pauses] == [0, 2]

    def test_probability_field_starts_unset(self):
        a = make_alignment([23])
        (p,) = alignment.detect_pauses(a)
        assert p.probability is None


@given(st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=9))
def test_pause_durations_cover_every_junction(gaps):
    # Negative gaps overlap the previous character; durations clamp at 0.
    a = make_alignment(gaps)
    durations = alignment.pause_durations(a)
    assert len(durations) == len(a) - 1
    assert all(d >= 0.0 for d in durations)


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=9),
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=1.0, max_value=200.0),
)
def test_raising_the_floor_never_adds_pauses(gaps, t1, t2):
    a = make_alignment(gaps)
    low, high = sorted([t1, t2])
    assert len(alignment.detect_pauses(a, high)) <= len(alignment.detect_pauses(a, low))


class TestCharAlignment:
    def test_sentence_joins_characters(self):
        a = make_alignment([5, 5])
        assert a.sentence == "一二三"
        assert len(a) == 3

    def test_rejects_end_before_begin(self):
        with pytest.raises(NonMonotoneFrames):
            CharAlignment("utt", (("一", 10, 5),))

    def test_rejects_decreasing_begins(self):
        with pytest.raises(NonMonotoneFrames):
            CharAlignment("utt", (("一", 10, 15), ("二", 5, 20)))

    def test_rejects_multi_char_entries(self):
        with pytest.raises(ValueError):
            CharAlignment("utt", (("一二", 0, 5),))


class TestJsonIO:
    def test_line_round_trip(self):
        a = make_alignment([23, 11])
        line = alignment.alignment_to_json_line(a)
        (back,) = alignment.parse_alignments(line)
        assert back == a

    def test_parses_array_and_lines_formats(self):
        a1, a2 = make_alignment([23]), make_alignment([11])
        lines = "\n".join(alignment.alignment_to_json_line(a) for a in (a1, a2))
        as_array = "[" + ",".join(
            alignment.alignment_to_json_line(a) for a in (a1, a2)
        ) + "]"
        assert alignment.parse_alignments(lines) == [a1, a2]
        assert alignment.parse_alignments(as_array) == [a1, a2]

    def test_blank_input_gives_no_alignments(self):
        assert alignment.parse_alignments("") == []
        assert alignment.parse_alignments("\n\n") == []

    def test_bad_json_reports_line(self):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        with pytest.raises(ParseError) as exc:
            alignment.parse_alignments(good + "\n{oops\n")
        assert exc.value.line == 2

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            alignment.parse_alignments('{"chars": []}')

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "alignments.jsonl"
        data = [make_alignment([23]), make_alignment([11, 2])]
        alignment.write_alignments(path, data)
        assert alignment.read_alignments(path) == data

    @pytest.mark.parametrize("offset", ["NaN", "0", "-10", "Infinity"])
    def test_bad_frame_offset_rejected_naming_the_line(self, offset):
        good = alignment.alignment_to_json_line(make_alignment([4]))
        bad = good.replace('"frame_offset_ms": 10.0', f'"frame_offset_ms": {offset}')
        assert bad != good
        with pytest.raises(ParseError) as exc:
            alignment.parse_alignments(good + "\n" + bad + "\n")
        assert exc.value.line == 2
        assert "frame offset" in str(exc.value)

    @pytest.mark.parametrize("offset", [float("nan"), 0.0, -10.0, float("inf")])
    def test_alignment_needs_a_positive_frame_offset(self, offset):
        with pytest.raises(InvalidConfig):
            make_alignment([4], frame_offset_ms=offset)

    def test_default_frame_offset_applied(self):
        (a,) = alignment.parse_alignments(
            '{"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}]}'
        )
        assert a.frame_offset_ms == 10.0


TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.0
        intervals: size = 1
        intervals [1]:
            xmin = 0
            xmax = 1.0
            text = "ignored"
    item [2]:
        class = "IntervalTier"
        name = "characters"
        xmin = 0
        xmax = 1.0
        intervals: size = 4
        intervals [1]:
            xmin = 0.00
            xmax = 0.05
            text = "一"
        intervals [2]:
            xmin = 0.05
            xmax = 0.28
            text = ""
        intervals [3]:
            xmin = 0.28
            xmax = 0.33
            text = "二"
        intervals [4]:
            xmin = 0.33
            xmax = 0.40
            text = "三"
"""


class TestTextGrid:
    def test_parses_named_tier_and_skips_silence(self):
        a = alignment.parse_textgrid(TEXTGRID, "utt1")
        assert a.sentence == "一二三"
        assert a.chars == (("一", 0, 5), ("二", 28, 33), ("三", 33, 40))
        assert alignment.pause_durations(a) == [230.0, 0.0]

    def test_missing_tier_raises(self):
        with pytest.raises(ParseError):
            alignment.parse_textgrid(TEXTGRID, "utt1", tier_name="phones")

    def test_multi_char_interval_rejected(self):
        bad = TEXTGRID.replace('text = "三"', 'text = "三四"')
        with pytest.raises(ParseError):
            alignment.parse_textgrid(bad, "utt1")

    def test_doubled_quote_is_a_quote_character(self):
        # Praat writes the text '"' as """" ; it is a character, not silence
        quoted = TEXTGRID.replace('text = "二"', 'text = """"')
        a = alignment.parse_textgrid(quoted, "utt1")
        assert a.sentence == '一"三'
        assert a.chars == (("一", 0, 5), ('"', 28, 33), ("三", 33, 40))
        assert alignment.pause_durations(a) == [230.0, 0.0]

    def test_quoted_tier_name_is_unescaped(self):
        named = TEXTGRID.replace('name = "characters"', 'name = "say ""hi"""')
        assert alignment.parse_textgrid(named, "utt1", tier_name='say "hi"').sentence == "一二三"

    def test_short_format_rejected_as_such(self):
        short = (
            'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
            '0\n0.4\n<exists>\n1\n"IntervalTier"\n"characters"\n0\n0.4\n2\n'
            '0\n0.05\n"一"\n0.05\n0.4\n"二"\n'
        )
        with pytest.raises(ParseError, match="short-format TextGrid is not supported") as exc:
            alignment.parse_textgrid(short, "utt1")
        assert exc.value.line == 8

    @pytest.mark.parametrize("offset", [float("nan"), 0.0, -10.0])
    def test_bad_frame_offset_rejected_before_conversion(self, offset):
        with pytest.raises(InvalidConfig):
            alignment.parse_textgrid(TEXTGRID, "utt1", frame_offset_ms=offset)

    def test_read_textgrid_uses_filename_as_id(self, tmp_path):
        path = tmp_path / "utt42.TextGrid"
        path.write_text(TEXTGRID, encoding="utf-8")
        a = alignment.read_textgrid(path)
        assert a.utterance_id == "utt42"
        assert a.sentence == "一二三"


# characters that str.splitlines() breaks a line at, besides LF and CR
LINE_BREAKERS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def textgrid_of(a: CharAlignment) -> str:
    """A long-format TextGrid of ``a`` in one "characters" tier, silences as empty text."""
    step = a.frame_offset_ms / 1000.0
    intervals, t = [], 0
    for ch, b, e in a.chars:
        if b > t:
            intervals.append((t, b, ""))
        intervals.append((b, e, ch))
        t = e
    lines = [
        'File type = "ooTextFile"', 'Object class = "TextGrid"', "",
        "xmin = 0", f"xmax = {t * step!r}", "tiers? <exists>", "size = 1", "item []:",
        "    item [1]:", '        class = "IntervalTier"', '        name = "characters"',
        "        xmin = 0", f"        xmax = {t * step!r}",
        f"        intervals: size = {len(intervals)}",
    ]
    for k, (b, e, text) in enumerate(intervals, start=1):
        lines += [
            f"        intervals [{k}]:",
            f"            xmin = {b * step!r}",
            f"            xmax = {e * step!r}",
            '            text = "' + text.replace('"', '""') + '"',
        ]
    return "\n".join(lines) + "\n"


def line_breaker_alignment() -> CharAlignment:
    text = "一" + LINE_BREAKERS + '"二'
    return CharAlignment("u\u2028v", tuple((c, 10 * k, 10 * k + 5) for k, c in enumerate(text)))


class TestRoundTrip:
    """Alignments written by the package, or by Praat, read back unchanged."""

    def test_json_lines_keep_line_breaking_characters(self, tmp_path):
        path = tmp_path / "a.jsonl"
        data = [line_breaker_alignment(), make_alignment([3, 0, 7])]
        alignment.write_alignments(path, data)
        assert alignment.read_alignments(path) == data

    def test_json_lines_accept_crlf(self):
        data = [line_breaker_alignment(), make_alignment([3, 0, 7])]
        text = "".join(alignment.alignment_to_json_line(a) + "\r\n" for a in data)
        assert alignment.parse_alignments(text) == data

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8))
    def test_json_lines_round_trip_any_characters(self, chars):
        a = CharAlignment("utt", tuple((c, 3 * k, 3 * k + 2) for k, c in enumerate(chars)))
        assert alignment.parse_alignments(alignment.alignment_to_json_line(a) + "\n") == [a]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_textgrid_keeps_line_breaking_characters(self, tmp_path, newline):
        a = line_breaker_alignment()
        path = tmp_path / "u\u2028v.TextGrid"
        path.write_bytes(textgrid_of(a).replace("\n", newline).encode("utf-8"))
        assert alignment.read_textgrid(path) == a


class TestParseAlignment:
    def test_json_object(self):
        a = alignment.parse_alignment(
            '{"utterance_id":"u1","chars":[{"c":"有","b":0,"e":12},{"c":"人","b":13,"e":30}]}'
        )
        assert a.utterance_id == "u1"
        assert len(a) == 2

    def test_textgrid_document(self):
        a = alignment.parse_alignment(TEXTGRID, utterance_id="utt7")
        assert a.utterance_id == "utt7"
        assert a.sentence == "一二三"

    def test_multiple_utterances_rejected(self):
        two = "\n".join(
            alignment.alignment_to_json_line(make_alignment([g])) for g in (5, 9)
        )
        with pytest.raises(ParseError):
            alignment.parse_alignment(two)

    def test_unrecognized_document_rejected(self):
        with pytest.raises(ParseError):
            alignment.parse_alignment("once upon a time")

    def test_decreasing_begins_rejected(self):
        doc = (
            '{"utterance_id":"u","chars":'
            '[{"c":"有","b":20,"e":25},{"c":"人","b":4,"e":30}]}'
        )
        with pytest.raises(NonMonotoneFrames):
            alignment.parse_alignment(doc)
