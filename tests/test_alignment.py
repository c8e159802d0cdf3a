import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauseseg import alignment
from pauseseg.alignment import CharAlignment
from pauseseg.errors import InvalidConfig, NonMonotoneFrames, ParseError


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


def junction_durations(a):
    """Every junction's silence in ms, in order: durations clamp at 0, so a 0 ms
    floor keeps every junction as a pause."""
    return [p.duration_ms for p in alignment.detect_pauses(a, 0.0)]


class TestPauseDurations:
    def test_worked_example(self):
        # 23-frame and 11-frame silences at 10 ms per frame
        a = make_alignment([23, 0, 11, 1])
        assert junction_durations(a) == [230.0, 0.0, 110.0, 10.0]

    def test_overlap_clamps_to_zero(self):
        a = CharAlignment("utt", (("一", 0, 10), ("二", 7, 15)))
        assert junction_durations(a) == [0.0]

    def test_frame_offset_scales_durations(self):
        a = make_alignment([4], frame_offset_ms=25.0)
        assert junction_durations(a) == [100.0]

    def test_single_character_raises(self):
        # one character has no junction, so nothing to measure and no error
        a = CharAlignment("utt", (("一", 0, 5),))
        assert junction_durations(a) == []
        assert alignment.detect_pauses(a) == []


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

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -5.0, "10", None, True])
    def test_floor_that_makes_no_sense_is_refused(self, floor):
        with pytest.raises(InvalidConfig, match="min_pause_ms"):
            alignment.detect_pauses(make_alignment([23]), floor)


@given(st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=9))
def test_pause_durations_cover_every_junction(gaps):
    # Negative gaps overlap the previous character; durations clamp at 0.
    a = make_alignment(gaps)
    durations = junction_durations(a)
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

    def test_rejects_no_characters(self):
        with pytest.raises(ValueError, match="no characters"):
            CharAlignment("utt", ())

    @pytest.mark.parametrize("b, e", [
        (0, 2.5), (3.7, 5), (0.0, 2), (np.float64(1), 2), (True, 2), (0, np.bool_(True)), ("0", 2),
    ])
    def test_rejects_frames_that_are_not_integers(self, b, e):
        # the duration pass reads frames as int64: a float would be truncated
        with pytest.raises(ValueError, match="are not integers"):
            CharAlignment("utt", (("一", b, e), ("二", 9, 10)))

    def test_accepts_numpy_integer_frames(self):
        a = CharAlignment("utt", (("一", np.int64(0), np.int32(2)), ("二", np.uint8(3), 5)))
        assert junction_durations(a) == [10.0]


def assert_bad_record(good: str, bad: str, match=None, error=ParseError):
    """A good record then ``bad`` are refused naming ``bad``'s line, as JSON lines and as an array."""
    for text, line in [(good + "\n" + bad + "\n", 2), ("[\n" + good + ",\n" + bad + "\n]", 3)]:
        with pytest.raises(error, match=match) as exc:
            alignment.parse_alignments(text)
        assert exc.value.line == line


def indented(json_line: str) -> str:
    """The record of one JSON line, written over several lines."""
    return json.dumps(json.loads(json_line), ensure_ascii=False, indent=2)


# every layout a JSON data file may have: JSON lines, one array, and records
# written over several lines one after another
JSON_LAYOUTS = {
    "lines": lambda lines: "".join(line + "\n" for line in lines),
    "array": lambda lines: "[\n" + ",\n".join(lines) + "\n]\n",
    "indented": lambda lines: "\n".join(indented(line) for line in lines),
}


@st.composite
def alignments(draw):
    """A valid alignment: any characters, non-decreasing begins, any frame offset."""
    chars, begin = [], 0
    for ch in draw(st.lists(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)):
        begin += draw(st.integers(0, 2**20))
        chars.append((ch, begin, begin + draw(st.integers(0, 2**20))))
    utterance_id = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))
    offset = draw(st.floats(min_value=1e-3, max_value=1e3))
    return CharAlignment(utterance_id, tuple(chars), offset)


@pytest.mark.parametrize("layout", JSON_LAYOUTS)
@settings(max_examples=60, deadline=None)
@given(data=st.lists(alignments(), max_size=4))
def test_alignment_json_round_trips_in_every_layout(layout, data):
    text = JSON_LAYOUTS[layout]([alignment.alignment_to_json_line(a) for a in data])
    assert alignment.parse_alignments(text) == data


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
        assert_bad_record(good, "{oops")
        # an array broken after its record on line 2
        for end in ["\n" + good + "\n]", ",\n]", "\n", "\n] x"]:
            with pytest.raises(ParseError) as exc:
                alignment.parse_alignments("[\n" + good + end)
            assert exc.value.line == 3

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            alignment.parse_alignments('{"chars": []}')
        good = alignment.alignment_to_json_line(make_alignment([5]))
        for bad in ('{"chars": []}', "5", "[1]"):
            assert_bad_record(good, bad)

    def test_alignment_without_characters_rejected_naming_the_line(self):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        assert_bad_record(good, '{"utterance_id": "u", "chars": []}', match="no characters")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "alignments.jsonl"
        data = [make_alignment([23]), make_alignment([11, 2])]
        alignment.write_alignments(path, data)
        assert alignment.read_alignments(path) == data

    def test_file_reader_keeps_a_lone_cr_in_its_line(self, tmp_path):
        # a lone CR is JSON whitespace inside a record, not a line end
        path = tmp_path / "alignments.jsonl"
        data = [make_alignment([23]), make_alignment([11, 2])]
        lines = [alignment.alignment_to_json_line(a) for a in data]
        for text in (lines[0].replace(", ", ",\r") + "\n" + lines[1] + "\n",
                     "\r\n".join(lines) + "\r\n"):
            path.write_bytes(text.encode("utf-8"))
            assert alignment.read_alignments(path) == alignment.parse_alignments(text) == data

    @pytest.mark.parametrize("offset", [
        "NaN", "0", "-10", "Infinity", "1e308", pytest.param("1" * 400, id="400-digits"),
    ])
    def test_bad_frame_offset_rejected_naming_the_line(self, offset):
        good = alignment.alignment_to_json_line(make_alignment([4]))
        bad = good.replace('"frame_offset_ms": 10.0', f'"frame_offset_ms": {offset}')
        assert bad != good
        assert_bad_record(good, bad, match="frame offset")

    @pytest.mark.parametrize("chars", [
        [{"c": "a", "b": 20, "e": 25}, {"c": "b", "b": 4, "e": 30}],
        [{"c": "a", "b": 20, "e": 15}],
    ], ids=["decreasing-begins", "end-before-begin"])
    def test_non_monotone_frames_rejected_naming_the_line(self, chars):
        good = alignment.alignment_to_json_line(make_alignment([4]))
        bad = json.dumps({"utterance_id": "v", "chars": chars})
        assert_bad_record(good, bad, match="frames", error=NonMonotoneFrames)

    @pytest.mark.parametrize("offset", [float("nan"), 0.0, -10.0, float("inf"), "10", None, True])
    def test_alignment_needs_a_positive_frame_offset(self, offset):
        with pytest.raises(InvalidConfig):
            make_alignment([4], frame_offset_ms=offset)

    def test_frame_offset_keeps_the_longest_pause_finite(self):
        # a pause of MAX_FRAME frames is a finite number of ms at the largest
        # offset accepted, and one offset more is refused
        top = sys.float_info.max / alignment.MAX_FRAME
        last = alignment.MAX_FRAME
        a = CharAlignment("utt", (("一", 0, 0), ("二", last, last)), top)
        assert junction_durations(a) == [last * top]
        assert math.isfinite(last * top)
        with pytest.raises(InvalidConfig, match=re.escape(f"at most {top!r}")):
            make_alignment([4], frame_offset_ms=math.nextafter(top, math.inf))

    def test_default_frame_offset_applied(self):
        (a,) = alignment.parse_alignments(
            '{"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}]}'
        )
        assert a.frame_offset_ms == 10.0

    @pytest.mark.parametrize("field, value", [
        ("b", "1.7"), ("b", '"0"'), ("e", "true"), ("c", '["一"]'),
        ("frame_offset_ms", '"10"'), ("frame_offset_ms", "true"),
    ])
    def test_mistyped_field_rejected_naming_the_line(self, field, value):
        record = {"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}],
                  "frame_offset_ms": 10.0}
        good = json.dumps(record, ensure_ascii=False)
        if field == "frame_offset_ms":
            record[field] = json.loads(value)
        else:
            record["chars"][0][field] = json.loads(value)
        bad = json.dumps(record, ensure_ascii=False)
        assert_bad_record(good, bad)

    @pytest.mark.parametrize("bad", [
        '{"utterance_id": "u", "chars": [{"c": "\\ud800", "b": 0, "e": 5}]}',
        '{"utterance_id": "u\\udfff", "chars": [{"c": "一", "b": 0, "e": 5}]}',
    ], ids=["character", "utterance-id"])
    def test_lone_surrogate_rejected_naming_the_line(self, bad):
        # a JSON escape can name a lone surrogate, which no UTF-8 output file can hold
        good = alignment.alignment_to_json_line(make_alignment([5]))
        assert_bad_record(good, bad, match="lone surrogate")

    @pytest.mark.parametrize("field", ["b", "e"])
    @pytest.mark.parametrize("frame", ["-1", str(2**53), pytest.param("1" * 400, id="400-digits")])
    def test_frame_outside_the_exact_floats_rejected_naming_the_line(self, field, frame):
        # a 400-digit frame once ended ``mine`` converting the pause to a float
        record = {"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}]}
        good = json.dumps(record, ensure_ascii=False)
        bad = good.replace(f'"{field}": {record["chars"][0][field]}', f'"{field}": {frame}')
        assert bad != good
        assert_bad_record(good, bad, match=re.escape("[0, 2**53)"))

    def test_largest_frame_reads(self):
        top = alignment.MAX_FRAME
        (a,) = alignment.parse_alignments(
            f'{{"utterance_id": "u", "chars": [{{"c": "一", "b": {top}, "e": {top}}}]}}'
        )
        assert a.chars == (("一", top, top),)

    def test_integer_of_more_digits_than_int_reads_is_a_parse_error(self):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        bad = '{"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": ' + "1" * 5000 + "}]}"
        assert_bad_record(good, bad)

    def test_nesting_too_deep_to_decode_is_a_parse_error(self):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        assert_bad_record(good, "[" * 100_000 + "]" * 100_000, match="recursion")

    @pytest.mark.parametrize("value", ["null", "12345", "[1, 2]", "true"])
    def test_utterance_id_that_is_not_a_string_rejected_naming_the_line(self, value):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        bad = good.replace(json.dumps("utt"), value)
        assert bad != good
        assert_bad_record(good, bad, match="utterance_id .* is not a string")

    def test_single_object_over_several_lines(self):
        a = make_alignment([23, 11])
        text = indented(alignment.alignment_to_json_line(a))
        assert text.count("\n") > 10
        assert alignment.parse_alignments(text) == [a]

    def test_truncated_json_line_names_its_own_line(self):
        good = alignment.alignment_to_json_line(make_alignment([5]))
        truncated = good.rsplit(", ", 1)[0]  # the record's closing "}" is lost
        with pytest.raises(ParseError, match="line 3 column 1") as exc:
            alignment.parse_alignments(good + "\n" + truncated + "\n" + good + "\n")
        assert exc.value.line == 2

    def test_integer_frame_offset_reads_as_float(self):
        (a,) = alignment.parse_alignments(
            '{"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}], "frame_offset_ms": 20}'
        )
        assert a.frame_offset_ms == 20.0 and type(a.frame_offset_ms) is float


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


def line_of(text: str, needle: str) -> int:
    """The 1-based number of the first line of ``text`` holding ``needle``."""
    return next(k for k, line in enumerate(text.split("\n"), start=1) if needle in line)


class TestTextGrid:
    def test_parses_named_tier_and_skips_silence(self):
        a = alignment.parse_textgrid(TEXTGRID, "utt1")
        assert a.sentence == "一二三"
        assert a.chars == (("一", 0, 5), ("二", 28, 33), ("三", 33, 40))
        assert junction_durations(a) == [230.0, 0.0]

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
        assert junction_durations(a) == [230.0, 0.0]

    def test_quoted_tier_name_is_unescaped(self):
        named = TEXTGRID.replace('name = "characters"', 'name = "say ""hi"""')
        assert alignment.parse_textgrid(named, "utt1", tier_name='say "hi"').sentence == "一二三"

    def test_file_reader_keeps_a_lone_cr_in_its_line(self, tmp_path):
        path = tmp_path / "utt1.TextGrid"
        # a CR that open() took for a line end would move the error's line number
        bad = TEXTGRID.replace('text = "ignored"', 'text = "ign\rored"')
        bad = bad.replace('text = "三"', 'text = "三四"')
        path.write_bytes(bad.encode("utf-8"))
        with pytest.raises(ParseError) as want:
            alignment.parse_textgrid(bad, "utt1")
        with pytest.raises(ParseError) as got:
            alignment.read_textgrid(path)
        assert want.value.line is not None and str(got.value) == str(want.value)
        path.write_bytes(TEXTGRID.replace("\n", "\r\n").encode("utf-8"))
        assert alignment.read_textgrid(path) == alignment.parse_textgrid(TEXTGRID, "utt1")

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

    @pytest.mark.parametrize("old, new", [
        ("xmin = 0.33", "xmin = 0.20"),  # 三 begins before 二
        ("xmax = 0.33", "xmax = 0.20"),  # 二 ends before it begins
    ], ids=["decreasing-begins", "end-before-begin"])
    def test_non_monotone_frames_rejected_naming_the_tier(self, old, new):
        assert TEXTGRID.count(old) == 1
        with pytest.raises(NonMonotoneFrames, match="frames") as exc:
            alignment.parse_textgrid(TEXTGRID.replace(old, new), "utt1")
        assert exc.value.line == line_of(TEXTGRID, 'name = "characters"')

    def test_negative_time_rejected_naming_the_tier(self):
        bad = TEXTGRID.replace("xmin = 0.28", "xmin = -0.28")
        assert bad != TEXTGRID
        with pytest.raises(ParseError, match=re.escape("[0, 2**53)")) as exc:
            alignment.parse_textgrid(bad, "utt1")
        assert exc.value.line == line_of(TEXTGRID, 'name = "characters"')

    def test_all_silence_tier_rejected_naming_the_tier(self):
        silent = TEXTGRID
        for ch in "一二三":
            silent = silent.replace(f'text = "{ch}"', 'text = ""')
        with pytest.raises(ParseError, match="no characters") as exc:
            alignment.parse_textgrid(silent, "utt1")
        assert exc.value.line == line_of(TEXTGRID, 'name = "characters"')

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "1e400", ""])
    def test_time_that_is_not_a_finite_number_is_refused_naming_the_line(self, value):
        bad = TEXTGRID.replace("xmax = 0.28", f"xmax = {value}")
        with pytest.raises(ParseError, match="not a finite frame") as exc:
            alignment.parse_textgrid(bad, "utt1")
        assert exc.value.line == line_of(TEXTGRID, "xmax = 0.28")

    def test_time_whose_frame_is_not_finite_is_refused_naming_the_line(self):
        # 1.0 s at 1e-320 ms per frame is 1e323 frames, past the largest float
        with pytest.raises(ParseError, match="not a finite frame") as exc:
            alignment.parse_textgrid(TEXTGRID, "utt1", frame_offset_ms=1e-320)
        assert exc.value.line == line_of(TEXTGRID, 'name = "characters"') + 2  # the tier's xmax

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
