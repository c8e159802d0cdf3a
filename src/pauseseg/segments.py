"""Segmented sentences and the space-separated gold corpus format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError


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


def split_lines(text: str) -> list[str]:
    """Lines of a file's text, ended by LF or CRLF.

    Not ``str.splitlines()``, which also breaks at a lone CR, U+000B,
    U+000C, U+001C-U+001E, U+0085, U+2028 and U+2029 inside a line.
    """
    return text.replace("\r\n", "\n").split("\n")


def parse_gold_line(line: str) -> SegmentedSentence | None:
    """One sentence per line, words separated by whitespace. None for blank lines."""
    words = line.split()
    if not words:
        return None
    return SegmentedSentence.from_words(words)


def format_gold_line(seg: SegmentedSentence) -> str:
    return " ".join(seg.words)


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
    with open(path, encoding="utf-8") as fh:
        return parse_gold_corpus(fh.read())


def write_gold_corpus(path, sentences: Iterable[SegmentedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_gold_corpus(sentences))
