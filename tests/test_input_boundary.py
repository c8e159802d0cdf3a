"""The text-file boundary: what every reader and command does with bad bytes.

Every data file is read through ``segments.read_text`` and written through
``segments.write_text``. A file that is not UTF-8 is a ``ParseError`` naming
the file and the line, and no command ends in a traceback, whatever bytes it
is given.
"""

import ast
import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from pauseseg import alignment, cli, crf, mining, pipeline, segments
from pauseseg.alignment import CharAlignment, Pause
from pauseseg.errors import ParseError, PausesegError
from pauseseg.mining import PartialSentence
from pauseseg.segments import SegmentedSentence

SRC = pathlib.Path(pipeline.__file__).parent

NOT_UTF8 = b"ok\n\xff\xfe\n"  # the first bad byte is on line 2

GOLD = [
    SegmentedSentence.from_words(words)
    for words in (["一二", "三"], ["四五", "六"], ["三", "一二", "六"], ["四五"], ["六", "一二"])
]
TEXTGRID = (
    'File type = "ooTextFile"\nObject class = "TextGrid"\n'
    "item []:\n"
    "    item [1]:\n"
    '        class = "IntervalTier"\n'
    '        name = "characters"\n'
    "        intervals [1]:\n"
    "            xmin = 0.0\n            xmax = 0.05\n"
    '            text = "一"\n'
    "        intervals [2]:\n"
    "            xmin = 0.05\n            xmax = 0.28\n"
    '            text = ""\n'
    "        intervals [3]:\n"
    "            xmin = 0.28\n            xmax = 0.33\n"
    '            text = "二"\n'
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding one valid file of every format, and their paths by name."""
    tmp = tmp_path_factory.mktemp("valid")
    paths = {name: tmp / name for name in (
        "gold.txt", "model.txt", "raw.txt", "alignments.jsonl", "u1.TextGrid",
        "scored.jsonl", "partial.txt",
    )}
    segments.write_gold_corpus(paths["gold.txt"], GOLD)
    pipeline.train_baseline(GOLD, crf.TrainConfig(epochs=1)).save(paths["model.txt"])
    paths["raw.txt"].write_text("一二三四\n五六\n", encoding="utf-8")
    alignment.write_alignments(paths["alignments.jsonl"], [
        CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40))),
        CharAlignment("u2", (("四", 0, 5), ("五", 25, 30))),
    ])
    paths["u1.TextGrid"].write_text(TEXTGRID, encoding="utf-8")
    mining.write_scored_pauses(paths["scored.jsonl"], [
        ("u1", "一二三", [Pause(0, 250.0, 0.9), Pause(1, 20.0, 0.3)]),
        ("u2", "四五", [Pause(0, 200.0, None)]),
    ])
    mining.write_partial_corpus(paths["partial.txt"], [
        PartialSentence("一二三", (1,)), PartialSentence("四五六", ()),
    ])
    return paths


def run(*argv):
    """``cli.main``'s return value and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# Non-UTF-8 files

READERS = {
    "gold": segments.read_gold_corpus,
    "partial": mining.read_partial_corpus,
    "scored": mining.read_scored_pauses,
    "alignment-json": alignment.read_alignments,
    "textgrid": alignment.read_textgrid,
    "model": crf.CrfModel.load,
}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_reader_names_the_file_and_line_of_a_non_utf8_byte(tmp_path, reader):
    path = tmp_path / "bad.TextGrid"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError, match="not UTF-8 text") as exc:
        reader(path)
    assert exc.value.line == 2
    assert str(path) in str(exc.value)


def test_read_text_keeps_line_ends_and_write_text_writes_utf8(tmp_path):
    path = tmp_path / "t.txt"
    segments.write_text(path, "一\r二\r\n三\n")
    assert path.read_bytes() == "一\r二\r\n三\n".encode("utf-8")
    assert segments.read_text(path) == "一\r二\r\n三\n"


def test_text_utf8_cannot_hold_is_refused_before_the_file_exists(tmp_path):
    path = tmp_path / "gold.txt"
    with pytest.raises(UnicodeEncodeError):
        segments.write_gold_corpus(path, [SegmentedSentence.from_words(["一二", "a\ud800"])])
    assert not path.exists()
    # a leading U+FEFF would read back as a byte-order mark, so it is not written either
    with pytest.raises(PausesegError, match="U\\+FEFF"):
        segments.write_gold_corpus(path, [SegmentedSentence.from_words(["\ufeff一二", "三"])])
    assert not path.exists()


# each reader, and the valid file it reads
READER_FILES = {
    "gold": (segments.read_gold_corpus, "gold.txt"),
    "partial": (mining.read_partial_corpus, "partial.txt"),
    "scored": (mining.read_scored_pauses, "scored.jsonl"),
    "alignment-json": (alignment.read_alignments, "alignments.jsonl"),
    "textgrid": (alignment.read_textgrid, "u1.TextGrid"),
    "model": (lambda path: crf.CrfModel.load(path).dumps(), "model.txt"),
    "config": (cli._read_config_file, "config.json"),
}


@pytest.mark.parametrize("reader, name", READER_FILES.values(), ids=READER_FILES.keys())
def test_a_leading_byte_order_mark_is_not_text(valid, tmp_path, reader, name):
    source = valid.get(name, tmp_path / name)
    if name == "config.json":
        source.write_text('{"epochs": 2, "threshold": 0.3}', encoding="utf-8")
    marked = tmp_path / "marked" / name  # the same name: a TextGrid's id is its file name
    marked.parent.mkdir()
    marked.write_bytes("\ufeff".encode("utf-8") + source.read_bytes())
    assert reader(marked) == reader(source)


# (command line, the argument that is replaced by a non-UTF-8 file)
COMMANDS = {
    "train": (["train", "gold.txt", "-o", "OUT"], 1),
    "segment-model": (["segment", "model.txt", "raw.txt", "-o", "OUT"], 1),
    "segment-text": (["segment", "model.txt", "raw.txt", "-o", "OUT"], 2),
    "mine-json": (["mine", "model.txt", "alignments.jsonl", "-o", "OUT"], 2),
    "mine-textgrid": (["mine", "model.txt", "u1.TextGrid", "-o", "OUT"], 2),
    "filter": (["filter", "scored.jsonl", "-o", "OUT"], 1),
    "complete": (["complete", "model.txt", "partial.txt", "-o", "OUT"], 2),
    "eval": (["eval", "gold.txt", "gold.txt"], 2),
    "stats": (["stats", "scored.jsonl", "--gold", "gold.txt"], 3),
    "ctt": (["ctt", "gold.txt", "partial.txt", "-o", "OUT", "--epochs", "1"], 2),
    "selftrain": (["selftrain", "gold.txt", "partial.txt", "-o", "OUT", "--epochs", "1"], 2),
    "partialcrf": (["partialcrf", "gold.txt", "partial.txt", "-o", "OUT", "--epochs", "1"], 1),
    "disagree": (["disagree", "gold.txt", "gold.txt", "-o", "OUT"], 2),
}


def command_line(valid, argv, out):
    """``argv`` with its file names replaced by the valid files' paths and OUT by ``out``."""
    return [out if a == "OUT" else valid.get(a, a) for a in argv]


@pytest.mark.parametrize("argv, bad", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_on_a_non_utf8_file_exits_one_naming_it(valid, tmp_path, argv, bad):
    argv = command_line(valid, argv, tmp_path / "out")
    path = tmp_path / pathlib.Path(argv[bad]).name
    path.write_bytes(NOT_UTF8)
    argv[bad] = path
    code, err = run(*argv)
    assert code == 1
    want = f"error[ParseError]: {path}: not UTF-8 text: invalid start byte (line 2)"
    assert err.splitlines() == [want]
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_file_is_an_invalid_config(valid, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(NOT_UTF8)
    code, err = run("train", valid["gold.txt"], "-o", tmp_path / "m.txt", "--config", cfg)
    assert code == 1
    assert err.startswith(f"error[InvalidConfig]: {cfg}: not UTF-8 text") and "(line 2)" in err


# ---------------------------------------------------------------------------
# One place opens files


def dotted(node) -> str:
    """A name as written: ``open``, ``io.open``, ``json.JSONDecoder``, ``?.raw_decode``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted(node.value) + "." + node.attr
    return "?"


def used_outside(path: pathlib.Path, wanted, allowed: dict) -> list[str]:
    """``name:line`` of each use, called or not, of a name that ``wanted`` accepts in
    ``path``, outside the functions ``allowed`` names for that file. A name imported
    with ``from m import x`` is ``m.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in allowed.get(path.name, ()):
            inside.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = [dotted(node)] if isinstance(node, (ast.Name, ast.Attribute)) else []
        if id(node) not in inside and any(wanted(name) for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def opened_outside_read_write_text(path: pathlib.Path) -> list[str]:
    """``name:line`` of each use of ``open`` (or ``x.open``) in ``path`` outside
    ``segments.read_text`` and ``segments.write_text``."""
    return used_outside(
        path, lambda name: name.split(".")[-1] == "open",
        {"segments.py": ("read_text", "write_text")},
    )


def test_only_read_text_and_write_text_open_files():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "segments.py" in sources
    assert [hit for p in sources for hit in opened_outside_read_write_text(p)] == []


def test_the_open_check_sees_a_call_to_open(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import io\n\ndef f(p):\n    return open(p), io.open(p)\n", encoding="utf-8")
    assert opened_outside_read_write_text(path) == ["mod.py:4", "mod.py:4"]


# ---------------------------------------------------------------------------
# One JSON record reader: segments.json_records (and the one --config document)


def decoded_outside_json_records(path: pathlib.Path) -> list[str]:
    """``name:line`` of each use of a JSON decoder (``json.load(s)``, ``JSONDecoder``,
    ``raw_decode``) in ``path`` outside ``segments.json_records`` and
    ``cli._read_config_file``."""
    return used_outside(
        path,
        lambda name: name in ("json.loads", "json.load", "json.JSONDecoder", "JSONDecoder")
        or name.endswith(".raw_decode"),
        {"segments.py": ("json_records",), "cli.py": ("_read_config_file",)},
    )


def test_only_json_records_and_the_config_reader_decode_json():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "segments.py" in sources and SRC / "cli.py" in sources
    assert [hit for p in sources for hit in decoded_outside_json_records(p)] == []


def test_the_json_check_sees_a_decoder_call(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import json\nfrom json import loads\n\ndef f(text):\n"
        "    return json.JSONDecoder().raw_decode(text), list(map(json.loads, [text]))\n",
        encoding="utf-8",
    )
    assert decoded_outside_json_records(path) == ["mod.py:2", "mod.py:5", "mod.py:5", "mod.py:5"]


# ---------------------------------------------------------------------------
# Any bytes: exit 0, or exit 1 with one error line


def fuzzed(valid_bytes: bytes):
    """Random bytes, truncations of a valid file, and the file with a few bytes replaced."""

    def replace(edits):
        out = bytearray(valid_bytes)
        for at, byte in edits:
            out[at % len(out)] = byte
        return bytes(out)

    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid_bytes)).map(lambda k: valid_bytes[:k]),
        st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), min_size=1, max_size=4)
        .map(replace),
    )


# (command line, the argument whose file is fuzzed)
FUZZED = {
    "train": (["train", "gold.txt", "-o", "OUT", "--epochs", "1"], 1),
    "segment-model": (["segment", "model.txt", "raw.txt", "-o", "OUT"], 1),
    "segment-text": (["segment", "model.txt", "raw.txt", "-o", "OUT"], 2),
    "mine-json": (["mine", "model.txt", "alignments.jsonl", "-o", "OUT"], 2),
    "mine-textgrid": (["mine", "model.txt", "u1.TextGrid", "-o", "OUT"], 2),
    "filter": (["filter", "scored.jsonl", "-o", "OUT"], 1),
    "stats": (["stats", "scored.jsonl"], 1),
    "complete": (["complete", "model.txt", "partial.txt", "-o", "OUT"], 2),
    "eval": (["eval", "gold.txt", "gold.txt"], 2),
}


@pytest.mark.parametrize("argv, target", FUZZED.values(), ids=FUZZED.keys())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_input_bytes_exit_zero_or_one_with_one_error_line(valid, argv, target, data):
    out = valid["gold.txt"].parent / "fuzz-out"
    argv = command_line(valid, argv, out)
    source = argv[target]
    path = source.parent / ("fuzz-" + source.name)
    path.write_bytes(data.draw(fuzzed(source.read_bytes()), label="file"))
    argv[target] = path
    code, err = run(*argv)
    assert code in (0, 1)
    errors = [line for line in err.splitlines() if line.startswith("error[")]
    assert len(errors) == (1 if code == 1 else 0)
    assert "Traceback" not in err


# characters the formats treat specially (escapes, line ends, whitespace, a
# byte-order mark, a lone surrogate), and any other
WORD = st.text(
    st.one_of(
        st.sampled_from(["|", "\\", "\r", "\n", " ", "\t", "\x1c", "\x85", "\u2028", "\u3000",
                         "\ufeff", "\ud800"]),
        st.characters(),
    ),
    min_size=1,
    max_size=4,
)


def partial_of(seg: SegmentedSentence) -> PartialSentence:
    """The sentence with its word boundaries as the known ones."""
    return PartialSentence(seg.chars, tuple(sorted(seg.boundary_junctions())))


CORPUS_FORMATS = {
    "gold": (lambda seg: seg, segments.write_gold_corpus, segments.read_gold_corpus),
    "partial": (partial_of, mining.write_partial_corpus, mining.read_partial_corpus),
}


@pytest.mark.parametrize("fmt", CORPUS_FORMATS)
@settings(max_examples=150, deadline=None)
@given(sentences=st.lists(st.lists(WORD, min_size=1, max_size=4), min_size=1, max_size=4))
def test_corpus_files_round_trip_or_the_writer_refuses(tmp_path_factory, fmt, sentences):
    convert, write, read = CORPUS_FORMATS[fmt]
    data = [convert(SegmentedSentence.from_words(words)) for words in sentences]
    path = tmp_path_factory.getbasetemp() / f"round-trip.{fmt}.txt"
    path.unlink(missing_ok=True)
    try:
        write(path, data)
    except (PausesegError, UnicodeEncodeError):  # a word the format cannot hold
        assert not path.exists()
        return
    assert read(path) == data
