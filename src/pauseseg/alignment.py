"""Character-level speech alignments and the pauses between characters.

An alignment gives each character of an utterance a begin/end frame index.
The silence between consecutive characters, converted to milliseconds, is
the raw signal this package mines for word boundaries.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, NonMonotoneFrames, ParseError
from .segments import (
    check_utf8, is_integer, json_records, read_text, split_lines, string_field, write_text,
)

DEFAULT_FRAME_OFFSET_MS = 10.0
DEFAULT_MIN_PAUSE_MS = 10.0
DEFAULT_TIER_NAME = "characters"

# Frames are below 2**53, so that each is exact as a float and a pause
# (a frame difference times the frame offset) is a finite number of ms.
MAX_FRAME = 2**53 - 1


def check_frame_offset_ms(frame_offset_ms: float) -> None:
    """``InvalidConfig`` unless ``frame_offset_ms`` is a number > 0 and ``MAX_FRAME``
    frames of it are a finite number of ms."""
    top = sys.float_info.max / MAX_FRAME  # the largest such offset; an int compares exactly
    if not (type(frame_offset_ms) in (int, float) and 0 < frame_offset_ms <= top):
        raise InvalidConfig(
            f"frame offset must be a number of ms > 0 and at most {top!r}, so that"
            f" 2**53 - 1 frames are a finite number of ms, got {frame_offset_ms!r}"
        )


def check_min_pause_ms(min_pause_ms: float) -> None:
    """``InvalidConfig`` unless ``min_pause_ms`` is a finite number >= 0."""
    if not (type(min_pause_ms) in (int, float) and math.isfinite(min_pause_ms)
            and min_pause_ms >= 0):
        raise InvalidConfig(f"min_pause_ms must be finite and >= 0, not {min_pause_ms!r}")


@dataclass(frozen=True)
class CharAlignment:
    """One utterance: characters with begin/end frame indices.

    ``chars`` is a non-empty tuple of (character, begin_frame, end_frame).
    Frames are integers (not bools; numpy integers are accepted) in [0,
    ``MAX_FRAME``] at ``frame_offset_ms`` per frame (see
    ``check_frame_offset_ms``); ends may touch or overlap the next begin
    (pause 0), but begins must not decrease.
    """

    utterance_id: str
    chars: tuple[tuple[str, int, int], ...]
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS

    def __post_init__(self):
        check_frame_offset_ms(self.frame_offset_ms)
        if not self.chars:
            raise ValueError(f"utterance {self.utterance_id!r} has no characters")
        prev_begin = -1
        for ch, b, e in self.chars:
            if len(ch) != 1:
                raise ValueError(f"alignment entries hold single characters, got {ch!r}")
            if (type(b) is not int or type(e) is not int) and not (is_integer(b) and is_integer(e)):
                raise ValueError(f"frames {b!r}, {e!r} of {ch!r} are not integers")
            if not (0 <= b <= MAX_FRAME and 0 <= e <= MAX_FRAME):
                raise ValueError(f"frames of {ch!r} must lie in [0, 2**53)")
            if e < b:
                raise NonMonotoneFrames(
                    f"character {ch!r} has frames [{b}, {e}] in {self.utterance_id!r}"
                )
            if b < prev_begin:
                raise NonMonotoneFrames(
                    f"begin frames decrease at {ch!r} in {self.utterance_id!r}"
                )
            prev_begin = b

    @functools.cached_property
    def sentence(self) -> str:
        return "".join(ch for ch, _, _ in self.chars)

    def __len__(self) -> int:
        return len(self.chars)


class Pause(NamedTuple):
    """Silence at one junction, optionally scored with a boundary probability.

    A named tuple: immutable and hashable, and built without the per-field
    ``object.__setattr__`` of a frozen dataclass (mining builds one per pause).
    """

    junction: int
    duration_ms: float
    probability: float | None = None


def _junction_durations(alignments) -> tuple[np.ndarray, np.ndarray]:
    """Every junction's silence in ms over a corpus, in one array pass.

    A junction i sits between characters i and i+1; its duration is the gap
    between the end of character i and the begin of character i+1, times
    the frame offset, and overlaps count as 0. Returns the durations of
    every alignment's junctions in order, and ``first`` [len(alignments) + 1]:
    alignment k's durations are ``durations[first[k]:first[k + 1]]``. Frames
    are exact in int64 and their differences exact as floats, so each
    duration is bitwise the per-junction ``max(0.0, (b - e) * ms)``.
    """
    chars = [c for a in alignments for c in a.chars]
    lengths = np.fromiter(map(len, alignments), np.intp, len(alignments))
    _, begin, end = zip(*chars) if chars else ((), (), ())
    begin = np.fromiter(begin, np.int64, len(chars))
    end = np.fromiter(end, np.int64, len(chars))
    ms = np.fromiter((a.frame_offset_ms for a in alignments), float, len(alignments))
    # every character but the last of its alignment is followed by a junction
    at = np.ones(len(chars), dtype=bool)
    at[np.cumsum(lengths) - 1] = False
    at = np.flatnonzero(at)
    gaps = (begin[at + 1] - end[at]) * np.repeat(ms, lengths - 1)
    first = np.zeros(len(alignments) + 1, dtype=np.intp)
    np.cumsum(lengths - 1, out=first[1:])
    return np.maximum(0.0, gaps), first


def corpus_pauses(alignments, min_pause_ms: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pauses of a corpus as arrays: each one's alignment index, junction and duration.

    Junctions whose silence lasts at least ``min_pause_ms``, alignment by
    alignment and in junction order.
    """
    check_min_pause_ms(min_pause_ms)
    durations, first = _junction_durations(alignments)
    at = np.flatnonzero(durations >= min_pause_ms)
    owner = np.searchsorted(first, at, side="right") - 1
    return owner, at - first[owner], durations[at]


def detect_pauses(
    alignment: CharAlignment, min_pause_ms: float = DEFAULT_MIN_PAUSE_MS
) -> list[Pause]:
    """Junctions whose silence lasts at least ``min_pause_ms``."""
    _, junctions, durations = corpus_pauses([alignment], min_pause_ms)
    return [Pause(j, d) for j, d in zip(junctions.tolist(), durations.tolist())]


# ---------------------------------------------------------------------------
# JSON alignment I/O
#
# Canonical record:
#   {"utterance_id": "u1",
#    "chars": [{"c": "X", "b": 0, "e": 12}, ...],
#    "frame_offset_ms": 10.0}
# Files may hold one object, a JSON array of objects, or one object per line.


def _char_from_obj(obj) -> tuple[str, int, int]:
    """A JSON frame entry as a ``CharAlignment`` character, which checks the rest."""
    ch = obj["c"]
    if type(ch) is not str:
        raise ValueError(f"character {ch!r} is not a one-character string")
    return check_utf8(ch), obj["b"], obj["e"]


def _alignment_from_obj(obj, line: int) -> CharAlignment:
    try:
        if type(obj) is not dict:
            raise ValueError(f"record is not a JSON object: {str(obj)[:40]}")
        chars = tuple(_char_from_obj(c) for c in obj["chars"])
        frame_offset_ms = obj.get("frame_offset_ms", DEFAULT_FRAME_OFFSET_MS)
        check_frame_offset_ms(frame_offset_ms)  # before float() meets a 400-digit integer
        return CharAlignment(
            utterance_id=string_field(obj, "utterance_id"),
            chars=chars,
            frame_offset_ms=float(frame_offset_ms),
        )
    except NonMonotoneFrames as exc:
        raise NonMonotoneFrames(str(exc), line=line) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad alignment record: {exc}", line=line) from exc


def parse_alignments(text: str) -> list[CharAlignment]:
    """Parse alignment JSON as ``segments.json_records`` reads it (lines, array or one object)."""
    return [_alignment_from_obj(obj, line) for line, obj in json_records(text)]


def alignment_to_json_line(alignment: CharAlignment) -> str:
    return json.dumps(
        {
            "utterance_id": alignment.utterance_id,
            "chars": [{"c": c, "b": b, "e": e} for c, b, e in alignment.chars],
            "frame_offset_ms": alignment.frame_offset_ms,
        },
        ensure_ascii=False,
    )


def read_alignments(path) -> list[CharAlignment]:
    return parse_alignments(read_text(path))


def write_alignments(path, alignments) -> None:
    write_text(path, "".join(alignment_to_json_line(a) + "\n" for a in alignments))


# ---------------------------------------------------------------------------
# TextGrid import
#
# Long-format TextGrid with an interval tier of single characters; intervals
# with empty text are silence. Strings are quoted, with an embedded quote
# written twice (``""""`` is the one-character text ``"``). Interval times
# (seconds) are converted to frame indices by rounding to the nearest frame.


def _frame_at(value: str, frame_offset_ms: float, lineno: int) -> int:
    """The frame nearest a time in seconds; ``ParseError`` unless that is a finite number
    no larger than ``MAX_FRAME`` (a negative one is left to ``CharAlignment``)."""
    try:
        frame = float(value) * 1000.0 / frame_offset_ms
    except ValueError:
        frame = math.nan
    if not math.isfinite(frame):
        raise ParseError(
            f"time {value.strip()!r} s is not a finite frame at {frame_offset_ms!r} ms per frame",
            line=lineno,
        )
    frame = int(math.floor(frame + 0.5))
    if frame > MAX_FRAME:
        raise ParseError(
            f"time {value.strip()!r} s is frame {frame}, above 2**53 - 1, at {frame_offset_ms!r}"
            " ms per frame",
            line=lineno,
        )
    return frame


def _unquote(value: str) -> str:
    """A TextGrid string value without its enclosing quotes, ``""`` unescaped."""
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] == '"':
        value = value[1:-1].replace('""', '"')
    return value


def parse_textgrid(
    text: str,
    utterance_id: str,
    tier_name: str = DEFAULT_TIER_NAME,
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS,
) -> CharAlignment:
    """Extract a character alignment from one tier of a long-format TextGrid."""
    check_frame_offset_ms(frame_offset_ms)  # before any time is converted with it
    lines = split_lines(text)
    in_tier = False
    chars: list[tuple[str, int, int]] = []
    xmin = xmax = None
    tier_line = None  # the line naming the tier
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("name ="):
            name = _unquote(line.split("=", 1)[1])
            if in_tier:
                break  # next tier begins
            in_tier = name == tier_name
            if in_tier:
                tier_line = lineno
            continue
        if not in_tier:
            continue
        if line.startswith("item ["):
            break
        if line.startswith("xmin ="):
            xmin = _frame_at(line.split("=", 1)[1], frame_offset_ms, lineno)
        elif line.startswith("xmax ="):
            xmax = _frame_at(line.split("=", 1)[1], frame_offset_ms, lineno)
        elif line.startswith("text ="):
            label = _unquote(line.split("=", 1)[1])
            if xmin is None or xmax is None:
                raise ParseError("interval text before its times", line=lineno)
            if label:
                if len(label) != 1:
                    raise ParseError(
                        f"interval text must be one character, got {label!r}",
                        line=lineno,
                    )
                chars.append((label, xmin, xmax))
            xmin = xmax = None
    if tier_line is None:
        for lineno, raw in enumerate(lines, start=1):
            # the short format writes a tier's class as a bare string
            if raw.strip() in ('"IntervalTier"', '"TextTier"'):
                raise ParseError(
                    "short-format TextGrid is not supported; save it in long format",
                    line=lineno,
                )
        raise ParseError(f"no tier named {tier_name!r} in TextGrid")
    if not chars:
        raise ParseError(f"tier {tier_name!r} holds no characters, only silence", line=tier_line)
    try:
        return CharAlignment(utterance_id, tuple(chars), frame_offset_ms)
    except NonMonotoneFrames as exc:
        raise NonMonotoneFrames(str(exc), line=tier_line) from exc
    except ValueError as exc:  # a negative time
        raise ParseError(str(exc), line=tier_line) from exc


def read_textgrid(
    path,
    tier_name: str = DEFAULT_TIER_NAME,
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS,
) -> CharAlignment:
    utterance_id = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_textgrid(read_text(path), utterance_id, tier_name, frame_offset_ms)
