"""The package's exports, and the README's use of them, agree."""

import pathlib
import re

import pauseseg

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_and_the_readme_names_only_exports():
    assert [name for name in pauseseg.__all__ if not hasattr(pauseseg, name)] == []
    # the README's Python examples import the package as ``ps``
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    named = {name for block in blocks for name in re.findall(r"\bps\.(\w+)", block)}
    assert named
    assert sorted(named - set(pauseseg.__all__)) == []
