"""The package's exports, and the README's use of them, agree."""

import pathlib
import re

import pauseseg
from pauseseg import alignment, crf, pipeline
from synthetic import build_world

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_and_the_readme_names_only_exports():
    assert [name for name in pauseseg.__all__ if not hasattr(pauseseg, name)] == []
    # the README's Python examples import the package as ``ps``
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    named = {name for block in blocks for name in re.findall(r"\bps\.(\w+)", block)}
    assert named
    assert sorted(named - set(pauseseg.__all__)) == []


def test_the_readme_library_blocks_run_and_agree(tmp_path, monkeypatch):
    # the one-utterance block and the corpus block, run as written in a directory
    # holding the files they name, give the same words for the same utterances
    world = build_world(7)
    model = pipeline.train_baseline(world.source_train[:200], crf.TrainConfig(epochs=3, seed=1))
    model.save(tmp_path / "baseline.model")
    corpus = world.target_alignments[:12]
    alignment.write_alignments(tmp_path / "corpus.jsonl", corpus)
    monkeypatch.chdir(tmp_path)

    text = README.read_text(encoding="utf-8")
    single, batched = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)[:2]
    assert "complete_annotation" in single and "complete_corpus" in batched
    one_by_one, kept = [], 0
    for a in corpus:
        alignment.write_alignments(tmp_path / "u1.jsonl", [a])
        scope: dict = {}
        exec(single, scope)
        one_by_one.append(scope["completed"].words)
        kept += len(scope["kept"])
    exec(batched, scope)  # with the single block's model and imports
    assert kept > 0
    assert [c.words for c in scope["completed"]] == one_by_one
    assert len(scope["pred"]) == 2
