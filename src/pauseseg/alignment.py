"""Character-level speech alignments and the pauses between characters.

An alignment gives each character of an utterance a begin/end frame index.
The silence between consecutive characters, converted to milliseconds, is
the raw signal this package mines for word boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidConfig, NonMonotoneFrames, ParseError, SentenceTooShort
from .segments import split_lines

DEFAULT_FRAME_OFFSET_MS = 10.0
DEFAULT_MIN_PAUSE_MS = 10.0


def _check_frame_offset(frame_offset_ms: float) -> None:
    if not (math.isfinite(frame_offset_ms) and frame_offset_ms > 0):
        raise InvalidConfig(
            f"frame offset must be a finite number of ms > 0, got {frame_offset_ms!r}"
        )


@dataclass(frozen=True)
class CharAlignment:
    """One utterance: characters with begin/end frame indices.

    ``chars`` is a tuple of (character, begin_frame, end_frame). Frames are
    non-negative integers at ``frame_offset_ms`` (finite, > 0) per frame;
    ends may touch or overlap the next begin (pause 0), but begins must not
    decrease.
    """

    utterance_id: str
    chars: tuple[tuple[str, int, int], ...]
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS

    def __post_init__(self):
        _check_frame_offset(self.frame_offset_ms)
        prev_begin = -1
        for ch, b, e in self.chars:
            if len(ch) != 1:
                raise ValueError(f"alignment entries hold single characters, got {ch!r}")
            if b < 0 or e < b:
                raise NonMonotoneFrames(
                    f"character {ch!r} has frames [{b}, {e}] in {self.utterance_id!r}"
                )
            if b < prev_begin:
                raise NonMonotoneFrames(
                    f"begin frames decrease at {ch!r} in {self.utterance_id!r}"
                )
            prev_begin = b

    @property
    def sentence(self) -> str:
        return "".join(ch for ch, _, _ in self.chars)

    def __len__(self) -> int:
        return len(self.chars)


@dataclass(frozen=True)
class Pause:
    """Silence at one junction, optionally scored with a boundary probability."""

    junction: int
    duration_ms: float
    probability: float | None = None


def pause_durations(alignment: CharAlignment) -> list[float]:
    """Inter-character silence in ms for each junction, clamped at 0.

    A junction i sits between characters i and i+1; its duration is the gap
    between the end of character i and the begin of character i+1. Overlaps
    count as 0.
    """
    if len(alignment) < 2:
        raise SentenceTooShort("pauses need at least 2 aligned characters")
    out = []
    for i in range(len(alignment) - 1):
        _, _, e = alignment.chars[i]
        _, b, _ = alignment.chars[i + 1]
        out.append(max(0.0, (b - e) * alignment.frame_offset_ms))
    return out


def detect_pauses(
    alignment: CharAlignment, min_pause_ms: float = DEFAULT_MIN_PAUSE_MS
) -> list[Pause]:
    """Junctions whose silence lasts at least ``min_pause_ms``."""
    return [
        Pause(i, d)
        for i, d in enumerate(pause_durations(alignment))
        if d >= min_pause_ms
    ]


# ---------------------------------------------------------------------------
# JSON alignment I/O
#
# Canonical record:
#   {"utterance_id": "u1",
#    "chars": [{"c": "X", "b": 0, "e": 12}, ...],
#    "frame_offset_ms": 10.0}
# Files may hold one object, a JSON array of objects, or one object per line.


def _alignment_from_obj(obj, line: int | None = None) -> CharAlignment:
    try:
        chars = tuple((c["c"], int(c["b"]), int(c["e"])) for c in obj["chars"])
        return CharAlignment(
            utterance_id=str(obj["utterance_id"]),
            chars=chars,
            frame_offset_ms=float(obj.get("frame_offset_ms", DEFAULT_FRAME_OFFSET_MS)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad alignment record: {exc}", line=line) from exc


def parse_alignments(text: str) -> list[CharAlignment]:
    """Parse alignment JSON: a single object, an array, or JSON lines."""
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad alignment JSON: {exc.msg}", line=exc.lineno) from exc
        return [_alignment_from_obj(obj) for obj in data]
    out = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad alignment JSON: {exc.msg}", line=lineno) from exc
        out.append(_alignment_from_obj(obj, line=lineno))
    return out


def parse_alignment(
    text: str,
    utterance_id: str = "utt",
    tier_name: str = "characters",
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS,
) -> CharAlignment:
    """Parse a single-utterance alignment document, JSON or TextGrid.

    JSON documents carry their own utterance id; ``utterance_id`` is only
    used for TextGrids, which have none.
    """
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        found = parse_alignments(text)
        if len(found) != 1:
            raise ParseError(f"expected one utterance, found {len(found)}")
        return found[0]
    if stripped.startswith("File type"):
        return parse_textgrid(text, utterance_id, tier_name, frame_offset_ms)
    raise ParseError("unrecognized alignment document (want JSON or TextGrid)")


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
    with open(path, encoding="utf-8") as fh:
        return parse_alignments(fh.read())


def write_alignments(path, alignments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in alignments:
            fh.write(alignment_to_json_line(a) + "\n")


# ---------------------------------------------------------------------------
# TextGrid import
#
# Long-format TextGrid with an interval tier of single characters; intervals
# with empty text are silence. Strings are quoted, with an embedded quote
# written twice (``""""`` is the one-character text ``"``). Interval times
# (seconds) are converted to frame indices by rounding to the nearest frame.


def _seconds_to_frame(t: float, frame_offset_ms: float) -> int:
    return int(math.floor(t * 1000.0 / frame_offset_ms + 0.5))


def _unquote(value: str) -> str:
    """A TextGrid string value without its enclosing quotes, ``""`` unescaped."""
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] == '"':
        value = value[1:-1].replace('""', '"')
    return value


def parse_textgrid(
    text: str,
    utterance_id: str,
    tier_name: str = "characters",
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS,
) -> CharAlignment:
    """Extract a character alignment from one tier of a long-format TextGrid."""
    _check_frame_offset(frame_offset_ms)  # before any time is converted with it
    lines = split_lines(text)
    in_tier = False
    chars: list[tuple[str, int, int]] = []
    xmin = xmax = None
    tier_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("name ="):
            name = _unquote(line.split("=", 1)[1])
            if in_tier:
                break  # next tier begins
            in_tier = name == tier_name
            tier_seen = tier_seen or in_tier
            continue
        if not in_tier:
            continue
        if line.startswith("item ["):
            break
        if line.startswith("xmin ="):
            xmin = float(line.split("=", 1)[1])
        elif line.startswith("xmax ="):
            xmax = float(line.split("=", 1)[1])
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
                chars.append(
                    (
                        label,
                        _seconds_to_frame(xmin, frame_offset_ms),
                        _seconds_to_frame(xmax, frame_offset_ms),
                    )
                )
            xmin = xmax = None
    if not tier_seen:
        for lineno, raw in enumerate(lines, start=1):
            # the short format writes a tier's class as a bare string
            if raw.strip() in ('"IntervalTier"', '"TextTier"'):
                raise ParseError(
                    "short-format TextGrid is not supported; save it in long format",
                    line=lineno,
                )
        raise ParseError(f"no tier named {tier_name!r} in TextGrid")
    return CharAlignment(utterance_id, tuple(chars), frame_offset_ms)


def read_textgrid(
    path,
    tier_name: str = "characters",
    frame_offset_ms: float = DEFAULT_FRAME_OFFSET_MS,
) -> CharAlignment:
    import os

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    utterance_id = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_textgrid(text, utterance_id, tier_name, frame_offset_ms)
