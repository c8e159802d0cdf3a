"""``pauseseg.tagset`` is the only module that knows how labels are coded.

Every other module of the package reaches tag sequences, label sets and the
word-final labels through tagset's public functions and tables. This test
reads each module's syntax tree and fails where one reads a private tagset
name, ``tagset.LABEL_CHARS`` or a ``tagset.Label`` member.
"""

import ast
import pathlib

import pauseseg

PACKAGE = pathlib.Path(pauseseg.__file__).resolve().parent


def _forbidden(name: str) -> bool:
    return name.startswith("_") or name == "LABEL_CHARS"


def tagset_reads(source: str) -> list[str]:
    """Where ``source``, a module of the package, reads what only tagset may read."""
    tree = ast.parse(source)
    modules, labels, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (None, "pauseseg"):  # from . import tagset
                modules |= {a.asname or a.name for a in node.names if a.name == "tagset"}
            elif node.module in ("tagset", "pauseseg.tagset"):  # from .tagset import ...
                for a in node.names:
                    if _forbidden(a.name):
                        found.append(f"line {node.lineno}: imports tagset.{a.name}")
                    elif a.name == "Label":
                        labels.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "pauseseg.tagset" and a.asname}

    def is_label(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in labels
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "Label"
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = isinstance(node.value, ast.Name) and node.value.id in modules
            if module and _forbidden(node.attr):
                found.append(f"line {node.lineno}: reads tagset.{node.attr}")
            elif is_label(node.value):
                found.append(f"line {node.lineno}: reads Label.{node.attr}")
        elif isinstance(node, (ast.Subscript, ast.Call)) and is_label(
            node.value if isinstance(node, ast.Subscript) else node.func
        ):
            found.append(f"line {node.lineno}: takes a Label member")
    return found


def test_only_tagset_reads_label_codes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"crf.py", "mining.py", "pipeline.py", "tagset.py"}
    found = {
        p.name: reads
        for p in modules
        if p.name != "tagset.py" and (reads := tagset_reads(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_sees_every_way_to_read_a_label_code():
    reads = tagset_reads(
        "from . import tagset\n"
        "from . import tagset as ts\n"
        "from .tagset import Label as L, _TABLE\n"
        "import pauseseg.tagset as pt\n"
        "a = tagset.Label.E\n"
        "b = ts._WORD_FINAL_IDS\n"
        "c = pt.LABEL_CHARS\n"
        "d = L.S\n"
        "e = tagset.Label['B']\n"
        "f = L(2)\n"
    )
    assert [r.split(":")[0] for r in reads] == [f"line {n}" for n in (3, 5, 6, 7, 8, 9, 10)]
    # what other modules may read: public functions and tables, and Label itself
    assert tagset_reads(
        "from . import tagset\n"
        "from .tagset import Label, labels_to_words\n"
        "x = tagset.WORD_FINAL[tagset.N_LABELS - 1]\n"
        "y = tagset.label_arrays(['S'], [1])\n"
        "__all__ = ['Label']\n"
    ) == []
