"""Segmented sentences, the space-separated gold corpus format, and data-file text I/O."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, PausesegError, WhitespaceInWord


@dataclass(frozen=True)
class SegmentedSentence:
    """A character sentence split into words.

    ``spans`` are half-open ``(start, end)`` character ranges that partition
    ``[0, len(chars))`` in order, each non-empty.
    """

    chars: str
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.chars:
            raise ValueError("empty sentence")
        pos = 0
        for start, end in self.spans:
            if start != pos or end <= start:
                raise ValueError(f"spans do not partition the sentence: {self.spans!r}")
            pos = end
        if pos != len(self.chars):
            raise ValueError("spans do not cover the sentence")

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "SegmentedSentence":
        spans = []
        pos = 0
        for w in words:
            spans.append((pos, pos + len(w)))
            pos += len(w)
        return cls("".join(words), tuple(spans))

    @property
    def words(self) -> list[str]:
        return [self.chars[s:e] for s, e in self.spans]

    def boundary_junctions(self) -> set[int]:
        """Junction indices i such that a word ends between chars i and i+1."""
        return {end - 1 for _, end in self.spans[:-1]}


def read_text(path) -> str:
    """A data file's text as strict UTF-8, line ends kept; ``ParseError`` names a bad line.
    One leading U+FEFF is a byte-order mark, not text, and is dropped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}", line=line) from exc
    return text.removeprefix("\ufeff")


def write_text(path, text: str) -> None:
    """Write a data file as UTF-8. Callers build ``text`` first, and it is checked
    before the file is opened, so a writer that refuses its input leaves no file.
    A text that begins with U+FEFF is refused, since ``read_text`` drops it."""
    text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError here
    if text.startswith("\ufeff"):
        raise PausesegError(f"{path}: text begins with U+FEFF, which reads as a byte-order mark")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def check_utf8(value: str) -> str:
    """``value``, or ``ValueError`` if it holds a lone surrogate (which a JSON escape
    such as ``\\ud800`` reads as), since no UTF-8 file can hold one."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{value!r} holds a lone surrogate, which UTF-8 cannot encode") from None
    return value


def string_field(obj: dict, key: str) -> str:
    """The string ``obj[key]`` of a JSON record, checked by ``check_utf8``.

    ``ValueError`` when it is not a string: null, a number or a list is
    refused, not turned into text.
    """
    value = obj[key]
    if type(value) is not str:
        raise ValueError(f"{key} {value!r} is not a string")
    return check_utf8(value)


_SPACE = re.compile(r"\s*")  # any str.isspace character: a line of U+3000 is a blank line


def json_records(text: str) -> Iterator[tuple[int, object]]:
    """Each record of a JSON data file, with the line on which the record starts.

    The file holds one JSON array of records, or records one after another with
    whitespace between them: JSON lines, an array, or one object over several lines.
    A bad record (or what stands where ``,`` or the closing ``]`` belongs) is a
    ``ParseError`` naming its first line; the decoder's line and column stay in the message."""
    decoder = json.JSONDecoder()
    pos = _SPACE.match(text).end()
    array = text.startswith("[", pos)
    if array:
        pos = _SPACE.match(text, pos + 1).end()
    more = not text.startswith("]", pos) if array else pos < len(text)  # "[]" holds no record
    line, counted = 1, 0  # the line of text[counted]
    while more:
        line += text.count("\n", counted, pos)
        counted = pos
        try:
            obj, pos = decoder.raw_decode(text, pos)
        except (ValueError, RecursionError) as exc:  # too many digits for int(), or too deep
            raise ParseError(f"bad JSON record: {exc}", line=line) from exc
        yield line, obj
        pos = _SPACE.match(text, pos).end()
        if array and text.startswith(",", pos):  # "[x, ]" is an error: a record must follow
            pos = _SPACE.match(text, pos + 1).end()
        else:
            more = not array and pos < len(text)
    if array and not (text.startswith("]", pos) and _SPACE.match(text, pos + 1).end() == len(text)):
        message = "bad JSON: expected ',' or a ']' that ends the text"
        raise ParseError(message, line=line + text.count("\n", counted, pos))


def split_lines(text: str) -> list[str]:
    """Lines of a file's text, ended by LF or CRLF.

    Not ``str.splitlines()``, which also breaks at a lone CR, U+000B,
    U+000C, U+001C-U+001E, U+0085, U+2028 and U+2029 inside a line;
    ``read_text`` leaves a lone CR in place.
    """
    return text.replace("\r\n", "\n").split("\n")


def parse_gold_line(line: str) -> SegmentedSentence | None:
    """One sentence per line, words separated by whitespace. None for blank lines."""
    words = line.split()
    if not words:
        return None
    return SegmentedSentence.from_words(words)


def format_gold_line(seg: SegmentedSentence) -> str:
    """The sentence's words joined by spaces; ``WhitespaceInWord`` if one would not read back."""
    words = seg.words
    line = " ".join(words)
    if line.split() != words:
        word = next(w for w in words if w.split() != [w])
        raise WhitespaceInWord(f"word {word!r} holds whitespace, which the gold format cannot hold")
    return line


def parse_gold_corpus(text: str) -> list[SegmentedSentence]:
    out = []
    for lineno, line in enumerate(split_lines(text), start=1):
        try:
            seg = parse_gold_line(line)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if seg is not None:
            out.append(seg)
    return out


def format_gold_corpus(sentences: Iterable[SegmentedSentence]) -> str:
    return "".join(format_gold_line(s) + "\n" for s in sentences)


def read_gold_corpus(path) -> list[SegmentedSentence]:
    return parse_gold_corpus(read_text(path))


def write_gold_corpus(path, sentences: Iterable[SegmentedSentence]) -> None:
    write_text(path, format_gold_corpus(sentences))
