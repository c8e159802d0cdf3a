import base64
import json

import numpy as np
import pytest

from pauseseg import alignment, cli, crf, mining, pipeline
from pauseseg.alignment import CharAlignment
from pauseseg.segments import SegmentedSentence, read_gold_corpus, write_gold_corpus


def seg(*words):
    return SegmentedSentence.from_words(list(words))


GOLD = [
    seg("一二", "三"), seg("一二", "四五"), seg("三", "四五"),
    seg("六", "一二"), seg("四五", "三"), seg("一二"), seg("六", "三"),
    seg("三", "一二", "六"), seg("四五"), seg("六", "四五"),
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


@pytest.fixture
def workspace(tmp_path):
    gold = tmp_path / "gold.txt"
    write_gold_corpus(gold, GOLD)
    return tmp_path, gold


def run(*argv):
    return cli.main([str(a) for a in argv])


crf_train = crf.train


class TestTrainAndSegment:
    def test_train_writes_model_and_manifest(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        assert run("train", gold, "-o", model_path, "--epochs", "2") == 0
        assert model_path.exists()
        manifest = json.loads((tmp / "model.txt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        assert str(gold) in manifest["inputs"]
        crf.CrfModel.load(model_path)  # parses back

    def test_segment_round_trip(self, workspace, capsys):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "5")
        raw = tmp / "raw.txt"
        raw.write_text("一二三\n四五六\n", encoding="utf-8")
        out = tmp / "segmented.txt"
        assert run("segment", model_path, raw, "-o", out) == 0
        segmented = read_gold_corpus(out)
        assert [s.chars for s in segmented] == ["一二三", "四五六"]

    def test_segment_output_scores_f1_one_against_itself(self, workspace, capsys):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "2")
        raw = tmp / "raw.txt"
        raw.write_text("一二三\n四五 六\n七\n六一二三四五\n", encoding="utf-8")
        out = tmp / "segmented.txt"
        assert run("segment", model_path, raw, "-o", out) == 0
        capsys.readouterr()
        assert run("eval", out, out) == 0
        assert "f1        1.0000" in capsys.readouterr().out

    def test_segment_drops_whitespace_from_raw_lines(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "2")
        lines = ["一二 三", " 四五\t六 ", "一\u3000二三四", "六一\r", " \t"]
        raw = tmp / "raw.txt"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp / "segmented.txt"
        assert run("segment", model_path, raw, "-o", out) == 0
        want = ["".join(line.split()) for line in lines if line.strip()]
        assert want == ["一二三", "四五六", "一二三四", "六一"]
        assert [s.chars for s in read_gold_corpus(out)] == want

    def test_segment_keeps_a_lone_cr_inside_its_sentence(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "2")
        raw = tmp / "raw.txt"
        raw.write_bytes("一二\r三四\n五六\r\n".encode("utf-8"))
        out = tmp / "segmented.txt"
        assert run("segment", model_path, raw, "-o", out) == 0
        assert [s.chars for s in read_gold_corpus(out)] == ["一二三四", "五六"]

    def test_config_file_merges_under_flags(self, workspace):
        tmp, gold = workspace
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({"epochs": 3, "seed": 9}), encoding="utf-8")
        model_path = tmp / "model.txt"
        assert run("train", gold, "-o", model_path, "--config", cfg, "--epochs", "1") == 0
        manifest = json.loads((tmp / "model.txt.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # flag wins
        assert manifest["config"]["seed"] == 9  # file wins over default

    def test_unknown_config_key_fails(self, workspace):
        tmp, gold = workspace
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({"lr": 0.1}), encoding="utf-8")
        assert run("train", gold, "-o", tmp / "m.txt", "--config", cfg) == 1


class TestMineFilterComplete:
    def alignments_file(self, tmp):
        path = tmp / "alignments.jsonl"
        data = [
            CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40))),
            CharAlignment("u2", (("四", 0, 5), ("五", 5, 10), ("六", 40, 45))),
        ]
        alignment.write_alignments(path, data)
        return path

    def test_mine_filter_complete_chain(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "5")

        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, self.alignments_file(tmp), "-o", scored) == 0
        records = mining.read_scored_pauses(scored)
        assert [r[0] for r in records] == ["u1", "u2"]
        assert all(p.probability is not None for _, _, ps in records for p in ps)

        partial = tmp / "partial.txt"
        assert run("filter", scored, "-o", partial, "--threshold", "0.0") == 0
        partials = mining.read_partial_corpus(partial)
        assert partials[0].boundaries == (0,)
        assert partials[1].boundaries == (1,)

        completed = tmp / "completed.txt"
        assert run("complete", model_path, partial, "-o", completed) == 0
        out = read_gold_corpus(completed)
        assert 0 in out[0].boundary_junctions()
        assert 1 in out[1].boundary_junctions()

    def test_mine_writes_what_per_sentence_scoring_gives(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "3")
        path = tmp / "alignments.jsonl"
        data = [
            CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40))),
            CharAlignment("u2", (("六", 0, 5),)),
            CharAlignment("u3", (("四", 0, 5), ("五", 25, 30), ("六", 60, 65), ("一", 65, 70))),
            CharAlignment("u4", (("三", 0, 5), ("四", 5, 10))),
        ]
        alignment.write_alignments(path, data)
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored) == 0

        model = crf.CrfModel.load(model_path)
        expected = tmp / "expected.jsonl"
        mining.write_scored_pauses(expected, [
            (a.utterance_id, a.sentence,
             mining.score_pauses(model, a.sentence, alignment.detect_pauses(a, 10.0)))
            for a in data
        ])
        assert scored.read_bytes() == expected.read_bytes()

    def test_min_pause_flag(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        scored = tmp / "scored.jsonl"
        run("mine", model_path, self.alignments_file(tmp), "-o", scored,
            "--min-pause-ms", "400")
        records = mining.read_scored_pauses(scored)
        assert all(not ps for _, _, ps in records)  # no pause that long

    def test_mine_ignores_the_threshold_setting(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "3")
        outputs = []
        for threshold in (0.0, 0.99):
            cfg = tmp / f"config_{threshold}.json"
            cfg.write_text(json.dumps({"threshold": threshold}), encoding="utf-8")
            scored = tmp / f"scored_{threshold}.jsonl"
            assert run("mine", model_path, self.alignments_file(tmp), "-o", scored,
                       "--config", cfg) == 0
            outputs.append(scored.read_bytes())
            manifest = json.loads((tmp / f"scored_{threshold}.jsonl.manifest.json").read_text())
            assert manifest["config"] == {
                "min_pause_ms": 10.0, "tier_name": "characters", "frame_offset_ms": 10.0,
            }
        assert outputs[0] == outputs[1]

    def test_mine_reads_a_single_object_over_several_lines(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        a = CharAlignment("u1", (("一", 0, 5), ("二", 30, 35), ("三", 35, 40)))
        path = tmp / "u1.json"
        record = json.loads(alignment.alignment_to_json_line(a))
        path.write_text(json.dumps(record, ensure_ascii=False, indent=2), encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored) == 0
        ((uid, sentence, pauses),) = mining.read_scored_pauses(scored)
        assert (uid, sentence, [p.junction for p in pauses]) == ("u1", "一二三", [0])

    def test_mine_reads_textgrids(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        tg = tmp / "u3.TextGrid"
        tg.write_text(TEXTGRID, encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, tg, "-o", scored) == 0
        ((uid, sentence, pauses),) = mining.read_scored_pauses(scored)
        assert uid == "u3"
        assert sentence == "一二"
        assert pauses[0].duration_ms == 230.0

    def test_mine_reads_a_lower_case_textgrid_beside_json(self, workspace):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        tg = tmp / "u3.textgrid"  # the extension is matched in any case
        tg.write_text(TEXTGRID, encoding="utf-8")
        path = tmp / "alignments.jsonl"
        alignment.write_alignments(path, [
            CharAlignment("u1", (("三", 0, 5), ("四", 30, 35))), CharAlignment("u2", (("六", 0, 5),)),
        ])
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, tg, path, "-o", scored) == 0
        records = [(uid, s, [p.junction for p in ps])
                   for uid, s, ps in mining.read_scored_pauses(scored)]
        assert records == [("u3", "一二", [0]), ("u1", "三四", [0]), ("u2", "六", [])]


class TestRecipes:
    def target_file(self, tmp):
        path = tmp / "target.txt"
        partials = [
            mining.PartialSentence("一二三", (1,)),
            mining.PartialSentence("三四五", (0,)),
            mining.PartialSentence("六一二", (0,)),
            mining.PartialSentence("四五六", ()),
        ]
        mining.write_partial_corpus(path, partials)
        return path

    def test_ctt_writes_artifacts(self, workspace):
        tmp, gold = workspace
        target = self.target_file(tmp)
        model_path = tmp / "ctt.txt"
        assert run(
            "ctt", gold, target, "-o", model_path, "--epochs", "2",
            "--baseline-out", tmp / "baseline.txt",
            "--completed-out", tmp / "completed.txt",
        ) == 0
        assert model_path.exists()
        assert (tmp / "baseline.txt").exists()
        completed = read_gold_corpus(tmp / "completed.txt")
        assert len(completed) == 3  # the boundary-free sentence is skipped

    def test_ctt_rerun_is_bit_identical(self, workspace):
        tmp, gold = workspace
        target = self.target_file(tmp)
        m1, m2 = tmp / "run1.txt", tmp / "run2.txt"
        args = [gold, target, "--epochs", "2", "--seed", "3"]
        assert run("ctt", *args, "-o", m1) == 0
        assert run("ctt", *args, "-o", m2) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_selftrain_uses_all_target_sentences(self, workspace):
        tmp, gold = workspace
        target = self.target_file(tmp)
        model_path = tmp / "st.txt"
        assert run(
            "selftrain", gold, target, "-o", model_path, "--epochs", "2",
            "--completed-out", tmp / "completed.txt",
        ) == 0
        assert len(read_gold_corpus(tmp / "completed.txt")) == 4

    def test_partialcrf_trains(self, workspace):
        tmp, gold = workspace
        target = self.target_file(tmp)
        model_path = tmp / "pc.txt"
        assert run("partialcrf", gold, target, "-o", model_path, "--epochs", "2") == 0
        assert model_path.exists()

    @pytest.mark.parametrize("command", ["ctt", "selftrain", "partialcrf"])
    def test_manifest_names_the_subcommand(self, workspace, command):
        tmp, gold = workspace
        model_path = tmp / f"{command}.txt"
        target = self.target_file(tmp)
        assert run(command, gold, target, "-o", model_path, "--epochs", "1") == 0
        manifest = json.loads((tmp / f"{command}.txt.manifest.json").read_text())
        assert manifest["command"] == command
        assert list(manifest["config"]) == [
            "epochs", "learning_rate", "l2", "batch_chars", "seed", "strip_punct",
        ]


class TestReporting:
    def test_eval_prints_scores(self, workspace, capsys):
        tmp, gold = workspace
        pred = tmp / "pred.txt"
        write_gold_corpus(pred, GOLD)
        assert run("eval", gold, pred) == 0
        out = capsys.readouterr().out
        assert "precision 1.0000" in out
        assert "f1        1.0000" in out

    def test_stats_renders_table(self, workspace, capsys):
        tmp, gold = workspace
        scored = tmp / "scored.jsonl"
        mining.write_scored_pauses(scored, [
            ("u1", "一二三", [alignment.Pause(0, 230.0, 0.97)]),
        ])
        assert run("stats", scored) == 0
        assert "pauses: 1" in capsys.readouterr().out

    def test_stats_first_duration_bin_holds_every_pause_below_50_ms(self, workspace, capsys):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / "alignments.jsonl"
        # pauses of 10 ms and 0 ms
        alignment.write_alignments(
            path, [CharAlignment("u1", (("一", 0, 5), ("二", 6, 35), ("三", 35, 45)))]
        )
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored, "--min-pause-ms", "0") == 0
        capsys.readouterr()
        assert run("stats", scored) == 0
        first_row = capsys.readouterr().out.splitlines()[1].split()
        assert first_row[:2] == ["[0,", "50)"] and first_row[-1] == "2"

    def test_stats_with_gold_reports_accuracy(self, workspace, capsys):
        tmp, gold = workspace
        scored = tmp / "scored.jsonl"
        mining.write_scored_pauses(scored, [
            ("u1", "一二三", [alignment.Pause(1, 230.0, 0.97)]),
        ])
        ref = tmp / "ref.txt"
        write_gold_corpus(ref, [seg("一二", "三")])
        assert run("stats", scored, "--gold", ref) == 0
        assert "at gold boundaries: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("first, number", [("一二三", 1), ("甲乙丙", 2)])
    def test_stats_with_gold_of_other_text_exits_one(self, workspace, capsys, first, number):
        tmp, _ = workspace
        scored = tmp / "scored.jsonl"
        mining.write_scored_pauses(scored, [
            (f"u{i}", text, [alignment.Pause(0, 230.0, 0.97), alignment.Pause(1, 230.0, 0.97)])
            for i, text in enumerate((first, "一二三", "一二三"), 1)
        ])
        ref = tmp / "ref.txt"
        write_gold_corpus(ref, [seg("甲", "乙丙")] * 3)
        assert run("stats", scored, "--gold", ref) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error[SentenceMismatch]: record {number} (utterance 'u{number}')"
        )
        assert captured.out == ""

    def test_disagree_writes_tsv(self, workspace):
        tmp, gold = workspace
        a, b = tmp / "a.txt", tmp / "b.txt"
        write_gold_corpus(a, [seg("一二", "三")])
        write_gold_corpus(b, [seg("一", "二三")])
        out = tmp / "review.tsv"
        assert run("disagree", a, b, "-o", out, "--seed", "1") == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sentence_id\toutput_1\toutput_2"
        assert len(lines) == 2

    def test_disagree_seed_defaults_to_zero(self, workspace):
        tmp, gold = workspace
        a, b = tmp / "a.txt", tmp / "b.txt"
        write_gold_corpus(a, [seg("一二", "三"), seg("四五", "六")])
        write_gold_corpus(b, [seg("一", "二三"), seg("四", "五六")])
        default, zero = tmp / "default.tsv", tmp / "zero.tsv"
        assert run("disagree", a, b, "-o", default) == 0
        assert run("disagree", a, b, "-o", zero, "--seed", "0") == 0
        assert default.read_text(encoding="utf-8") == zero.read_text(encoding="utf-8")
        manifest = json.loads((tmp / "default.tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == {"seed": 0}


TRAINING = ["epochs", "learning_rate", "l2", "batch_chars", "seed", "strip_punct"]
RECIPE = ["gold.txt", "partial.txt", "-o", "out.txt", "--config", "config.json",
          "--dev", "dev.txt", "--epochs", "1"]
BASELINE = ["--baseline", "model.txt", "--baseline-out", "base.txt", "--completed-out", "done.txt"]
RECIPE_INPUTS = ["gold.txt", "partial.txt", "dev.txt", "config.json"]
# command: its arguments (names with a dot are files in the workspace), then the
# settings, inputs and outputs its manifest must list
MANIFEST_CASES = {
    "train": (["gold.txt", "-o", "out.txt", "--config", "config.json", "--dev", "dev.txt",
               "--epochs", "1"], TRAINING, ["gold.txt", "dev.txt", "config.json"], ["out.txt"]),
    "mine": (["model.txt", "a.jsonl", "b.jsonl", "-o", "out.txt", "--config", "config.json"],
             ["min_pause_ms", "tier_name", "frame_offset_ms"],
             ["model.txt", "a.jsonl", "b.jsonl", "config.json"], ["out.txt"]),
    "filter": (["scored.jsonl", "-o", "out.txt", "--config", "config.json"],
               ["threshold"], ["scored.jsonl", "config.json"], ["out.txt"]),
    "complete": (["model.txt", "partial.txt", "-o", "out.txt"],
                 ["strip_punct"], ["model.txt", "partial.txt"], ["out.txt"]),
    "ctt": (RECIPE + BASELINE, TRAINING, RECIPE_INPUTS + ["model.txt"],
            ["out.txt", "base.txt", "done.txt"]),
    "selftrain": (RECIPE + BASELINE, TRAINING, RECIPE_INPUTS + ["model.txt"],
                  ["out.txt", "base.txt", "done.txt"]),
    "partialcrf": (RECIPE, TRAINING, RECIPE_INPUTS, ["out.txt"]),
    "segment": (["model.txt", "raw.txt", "-o", "out.txt"], [], ["model.txt", "raw.txt"],
                ["out.txt"]),
    "disagree": (["gold.txt", "dev.txt", "-o", "out.txt"], ["seed"], ["gold.txt", "dev.txt"],
                 ["out.txt"]),
}


class TestManifest:
    """A manifest holds every setting a command ran with and every path it was given."""

    @pytest.mark.parametrize("command", MANIFEST_CASES)
    def test_manifest_holds_every_setting_and_path(self, workspace, command):
        arguments, settings, inputs, outputs = MANIFEST_CASES[command]
        tmp, gold = workspace
        run("train", gold, "-o", tmp / "model.txt", "--epochs", "1")
        write_gold_corpus(tmp / "dev.txt", [seg("一", "二三")] + GOLD[1:])  # text of GOLD
        (tmp / "config.json").write_text(
            json.dumps({"seed": 3, "threshold": 0.4, "min_pause_ms": 20}), encoding="utf-8"
        )
        for name in ("a.jsonl", "b.jsonl"):
            alignment.write_alignments(
                tmp / name, [CharAlignment(name, (("一", 0, 5), ("二", 30, 35)))]
            )
        mining.write_scored_pauses(
            tmp / "scored.jsonl", [("u1", "一二三", [alignment.Pause(0, 230.0, 0.97)])]
        )
        mining.write_partial_corpus(tmp / "partial.txt", [mining.PartialSentence("一二三", (1,))])
        (tmp / "raw.txt").write_text("一二三\n", encoding="utf-8")

        def path(name):
            return str(tmp / name)

        argv = [command] + [path(a) if "." in a else a for a in arguments]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp / "out.txt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["argv"] == argv
        assert list(manifest["config"]) == settings
        assert manifest["inputs"] == [path(name) for name in inputs]
        assert manifest["outputs"] == [path(name) for name in outputs]
        # values as the command resolved them: flag, then config file, then default
        resolved = {"seed": 0 if command == "disagree" else 3, "epochs": 1,
                    "threshold": 0.4, "min_pause_ms": 20.0, "frame_offset_ms": 10.0}
        for key in set(resolved) & set(settings):
            assert manifest["config"][key] == resolved[key]


class TestErrorHandling:
    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert run("train", tmp_path / "nope.txt", "-o", tmp_path / "m.txt") == 1
        assert "error[" in capsys.readouterr().err

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("train")  # missing required arguments
        assert exc.value.code == 2

    def test_invalid_training_setting_exits_one(self, workspace, capsys):
        tmp, gold = workspace
        assert run("train", gold, "-o", tmp / "m.txt", "--epochs", "0") == 1
        assert "error[InvalidConfig]" in capsys.readouterr().err
        assert not (tmp / "m.txt").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lr", "-1", "learning_rate"), ("--lr", "nan", "learning_rate"),
        ("--l2", "-1", "l2"), ("--l2", "nan", "l2"), ("--batch-chars", "-5", "batch_chars"),
    ])
    def test_optimizer_setting_that_makes_no_sense_exits_one(
        self, workspace, capsys, flag, value, field
    ):
        tmp, gold = workspace
        assert run("train", gold, "-o", tmp / "m.txt", flag, value) == 1
        assert capsys.readouterr().err.startswith(f"error[InvalidConfig]: {field} must be")
        assert not (tmp / "m.txt").exists()
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({field: float(value)}), encoding="utf-8")  # nan as NaN
        assert run("train", gold, "-o", tmp / "m.txt", "--config", cfg) == 1
        # a value from a config file is refused naming the file
        assert capsys.readouterr().err.startswith(f"error[InvalidConfig]: {cfg}: {field} must be")
        assert not (tmp / "m.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-5"])
    def test_min_pause_that_makes_no_sense_exits_one(self, workspace, capsys, value):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / "alignments.jsonl"
        alignment.write_alignments(path, [CharAlignment("u1", (("一", 0, 5), ("二", 30, 35)))])
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored, f"--min-pause-ms={value}") == 1
        assert capsys.readouterr().err.startswith("error[InvalidConfig]: min_pause_ms must be")
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({"min_pause_ms": float(value)}), encoding="utf-8")
        assert run("mine", model_path, path, "-o", scored, "--config", cfg) == 1
        assert capsys.readouterr().err.startswith(f"error[InvalidConfig]: {cfg}: min_pause_ms must be")
        assert not scored.exists()

    def test_diverging_training_exits_one_and_writes_no_model(self, workspace, capsys):
        tmp, gold = workspace
        assert run("train", gold, "-o", tmp / "m.txt", "--lr", "1e308") == 1
        err = capsys.readouterr().err
        assert "error[TrainingDiverged]" in err
        assert "epoch" in err
        assert not (tmp / "m.txt").exists()

    @pytest.mark.parametrize("name, offset", [
        *(pytest.param("u1.TextGrid", offset, id=offset)
          for offset in ("0", "-10", "nan", "1e308")),
        *(pytest.param("alignments.jsonl", offset, id=f"jsonl-{offset}")
          for offset in ("0", "-10", "nan", "1e308")),
    ])
    def test_bad_frame_offset_flag_exits_one(self, workspace, capsys, name, offset):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / name
        if name.endswith(".TextGrid"):
            path.write_text(TEXTGRID, encoding="utf-8")
        else:
            alignment.write_alignments(path, [CharAlignment("u1", (("一", 0, 5), ("二", 30, 35)))])
        scored = tmp / "scored.jsonl"
        # the setting is checked before the model or any input is read
        for model in (model_path, tmp / "missing-model.txt"):
            assert run("mine", model, path, "-o", scored, "--frame-offset-ms", offset) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[InvalidConfig]: frame offset")
            assert not scored.exists()

    @pytest.mark.parametrize("name, text, line", [
        ("alignments.jsonl", '{"utterance_id": "u", "chars": [{"c": "一", "b": 0, "e": 5}]}\n'
         '{"utterance_id": "v", "chars": [{"c": "一", "b": 20, "e": 25}, '
         '{"c": "二", "b": 4, "e": 30}]}\n', 2),  # begins decrease in the record of line 2
        ("u1.TextGrid", TEXTGRID.replace("xmax = 0.33", "xmax = 0.20"), 6),  # the tier's line
    ], ids=["json", "textgrid"])
    def test_non_monotone_frames_exit_one_naming_the_line(
        self, workspace, capsys, name, text, line
    ):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[NonMonotoneFrames]: ")
        assert err.rstrip().endswith(f"(line {line})")
        assert not scored.exists()

    def test_bad_frame_offset_in_alignment_file_exits_one(self, workspace, capsys):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / "alignments.jsonl"
        record = {"utterance_id": "u1", "frame_offset_ms": 0,
                  "chars": [{"c": "一", "b": 0, "e": 5}, {"c": "二", "b": 9, "e": 12}]}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert run("mine", model_path, path, "-o", tmp / "scored.jsonl") == 1
        err = capsys.readouterr().err
        assert "error[ParseError]" in err
        assert "line 1" in err

    def test_frame_offset_past_a_finite_pause_in_alignment_file_exits_one(
        self, workspace, capsys
    ):
        # mine once wrote "duration_ms": Infinity here, which filter then refused
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / "alignments.jsonl"
        record = {"utterance_id": "u1", "frame_offset_ms": 1e308, "chars": [
            {"c": "一", "b": 0, "e": 5}, {"c": "二", "b": 7, "e": 35}, {"c": "三", "b": 35, "e": 45},
        ]}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and "frame offset" in err
        assert err.rstrip().endswith("(line 1)")
        assert not scored.exists()

    def test_mine_of_a_textgrid_with_a_negative_time_exits_one_naming_the_tier(
        self, workspace, capsys
    ):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        tg = tmp / "u1.TextGrid"
        tg.write_text(TEXTGRID.replace("xmin = 0.28", "xmin = -0.28"), encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, tg, "-o", scored) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: ") and "[0, 2**53)" in err
        assert err.rstrip().endswith("(line 6)")  # the tier's line
        assert not scored.exists()

    @pytest.mark.parametrize("name, text", [
        ("alignments.jsonl", '{"utterance_id": "u", "chars": []}\n'),
        ("u1.TextGrid", TEXTGRID.replace('text = "一"', 'text = ""').replace('text = "二"', 'text = ""')),
    ], ids=["json", "textgrid"])
    def test_mine_of_an_alignment_without_characters_exits_one(self, workspace, capsys, name, text):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, path, "-o", scored) == 1
        err = capsys.readouterr().err
        assert "error[ParseError]" in err and "no characters" in err and "(line " in err
        assert not scored.exists()

    def test_filter_of_an_empty_sentence_exits_one(self, workspace, capsys):
        tmp, _ = workspace
        scored = tmp / "scored.jsonl"
        scored.write_text('{"utterance_id": "u", "sentence": "", "pauses": []}\n', encoding="utf-8")
        out = tmp / "partial.txt"
        assert run("filter", scored, "-o", out) == 1
        err = capsys.readouterr().err
        assert "error[ParseError]" in err and "empty sentence" in err and "line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("time, offset, line", [
        ("abc", "10", 16), ("nan", "10", 16), ("inf", "10", 16),
        ("0.28", "1e-320", 9),  # 0.0 s is frame 0 at any offset; 0.05 s is not finite
    ])
    def test_mine_of_a_textgrid_time_with_no_finite_frame_exits_one(
        self, workspace, capsys, time, offset, line
    ):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        tg = tmp / "u1.TextGrid"
        tg.write_text(TEXTGRID.replace("xmin = 0.28", f"xmin = {time}"), encoding="utf-8")
        scored = tmp / "scored.jsonl"
        assert run("mine", model_path, tg, "-o", scored, "--frame-offset-ms", offset) == 1
        err = capsys.readouterr().err
        assert "error[ParseError]" in err and "not a finite frame" in err
        assert f"(line {line})" in err
        assert not scored.exists()

    def test_completed_word_holding_whitespace_exits_one(self, workspace, capsys, monkeypatch):
        # the partial is refused before any sentence is decoded
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        decoded = []
        monkeypatch.setattr(pipeline, "complete_corpus", lambda *a: decoded.append(a))
        partial = tmp / "partial.txt"
        partial.write_text("一\u3000二|三\n", encoding="utf-8")
        out = tmp / "completed.txt"
        assert run("complete", model_path, partial, "-o", out) == 1
        assert decoded == []
        err = capsys.readouterr().err
        assert "error[WhitespaceInWord]" in err
        assert "\\u3000" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ctt", "selftrain"])
    def test_recipe_whose_completions_are_refused_writes_no_file(
        self, workspace, capsys, monkeypatch, command
    ):
        # a completion of a sentence holding whitespace cannot be written, whatever
        # its cut: the recipe stops before any model trains, and nothing is written
        trained = []
        monkeypatch.setattr(crf, "train", lambda *a, **k: trained.append(1) or crf_train(*a, **k))
        tmp, gold = workspace
        target = tmp / "target.txt"
        target.write_text("一　二|三\n", encoding="utf-8")
        model, baseline, completed = tmp / "m.txt", tmp / "b.txt", tmp / "c.txt"
        assert run(
            command, gold, target, "-o", model, "--epochs", "1",
            "--baseline-out", baseline, "--completed-out", completed,
        ) == 1
        err = capsys.readouterr().err
        assert "error[WhitespaceInWord]" in err
        assert "\\u3000" in err
        assert trained == []
        written = [model, baseline, completed, tmp / "m.txt.manifest.json"]
        assert [p.name for p in written if p.exists()] == []

    @pytest.mark.parametrize("command, code", [("ctt", 0), ("selftrain", 1)])
    def test_whitespace_in_a_target_is_refused_only_where_it_is_completed(
        self, workspace, capsys, command, code
    ):
        # ctt skips a target sentence without a boundary, so its space is never written
        tmp, gold = workspace
        target = tmp / "target.txt"
        target.write_text("一　二\n三|四五\n", encoding="utf-8")
        completed = tmp / "c.txt"
        assert run(
            command, gold, target, "-o", tmp / "m.txt", "--epochs", "1",
            "--completed-out", completed,
        ) == code
        if code:
            assert "error[WhitespaceInWord]" in capsys.readouterr().err
            assert not completed.exists()
        else:
            assert [s.chars for s in read_gold_corpus(completed)] == ["三四五"]

    @pytest.mark.parametrize("text, flags", [
        ("", []), ("\n \n", []), ("。， ！\n「」\n", ["--strip-punct"]),
    ], ids=["empty", "blank-lines", "punctuation-only"])
    def test_empty_dev_set_exits_one(self, workspace, capsys, text, flags):
        tmp, gold = workspace
        dev = tmp / "dev.txt"
        dev.write_text(text, encoding="utf-8")
        assert run("train", gold, "-o", tmp / "m.txt", "--dev", dev, *flags) == 1
        assert capsys.readouterr().err.startswith("error[EmptyDataset]: no dev sentences")
        assert not (tmp / "m.txt").exists()

    @pytest.mark.parametrize("command", ["segment", "mine"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_model_with_a_weight_that_is_not_finite_exits_one(
        self, workspace, capsys, command, value
    ):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        lines = model_path.read_text(encoding="utf-8").splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("emit "))
        emit = np.frombuffer(base64.b64decode(lines[k][len("emit "):]), "<f8").copy()
        emit[0] = float(value)
        lines[k] = "emit " + base64.b64encode(emit.tobytes()).decode("ascii")
        model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if command == "segment":
            data = tmp / "raw.txt"
            data.write_text("一二三\n", encoding="utf-8")
        else:
            data = tmp / "alignments.jsonl"
            alignment.write_alignments(data, [CharAlignment("u1", (("一", 0, 5), ("二", 30, 35)))])
        out = tmp / "out.txt"
        assert run(command, model_path, data, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]: emit record holds a weight that is not finite")
        assert err.rstrip().endswith(f"(line {k + 1})")
        assert not out.exists()

    def test_unreadable_model_reports_parse_error(self, workspace, capsys):
        tmp, gold = workspace
        bad = tmp / "bad_model.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        raw = tmp / "raw.txt"
        raw.write_text("一二三\n", encoding="utf-8")
        assert run("segment", bad, raw, "-o", tmp / "out.txt") == 1
        assert "error[ParseError]" in capsys.readouterr().err


    @pytest.mark.parametrize("text", [
        "{bad",
        "[1, 2]",
        '{"epochs": 2.7}',
        '{"batch_chars": 999.5}',
        '{"seed": 0.25}',
        '{"epochs": "3"}',
        '{"epochs": true}',
        '{"threshold": 1.5}',
        '{"learning_rate": -1}',
        '{"epochs": 0}',
        '{"min_pause_ms": -5}',
        '{"min_pause_ms": NaN}',
        pytest.param('{"seed": ' + "1" * 5000 + "}", id="5000-digit-integer"),  # past int()
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),  # past the decoder
    ])
    def test_malformed_config_file_exits_one(self, workspace, capsys, text):
        tmp, gold = workspace
        cfg = tmp / "config.json"
        cfg.write_text(text, encoding="utf-8")
        assert run("train", gold, "-o", tmp / "m.txt", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "error[InvalidConfig]" in err
        assert str(cfg) in err
        assert not (tmp / "m.txt").exists()

    def test_integral_float_in_config_file_is_a_count(self, workspace):
        tmp, gold = workspace
        cfg = tmp / "config.json"
        cfg.write_text('{"epochs": 2.0}', encoding="utf-8")
        assert run("train", gold, "-o", tmp / "m.txt", "--config", cfg) == 0
        manifest = json.loads((tmp / "m.txt.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_filter_threshold_out_of_range_exits_one(self, workspace, capsys, threshold):
        tmp, _ = workspace
        scored = tmp / "scored.jsonl"
        mining.write_scored_pauses(scored, [("u1", "一二三", [alignment.Pause(0, 230.0, 0.97)])])
        out = tmp / "partial.txt"
        assert run("filter", scored, "-o", out, "--threshold", threshold) == 1
        assert "error[InvalidConfig]" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_of_a_sentence_a_partial_line_cannot_hold_exits_one(self, workspace, capsys):
        tmp, _ = workspace
        scored = tmp / "scored.jsonl"
        mining.write_scored_pauses(scored, [("u1", "一二三", [alignment.Pause(0, 230.0, 0.97)]),
                                            ("u2", "四五\r", [])])
        out = tmp / "partial.txt"
        assert run("filter", scored, "-o", out) == 1
        err = capsys.readouterr().err
        assert "error[PausesegError]" in err and repr("四五\r") in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ctt", "--threshold", "0.5"],
        ["selftrain", "--threshold", "0.5"],
        ["partialcrf", "--threshold", "0.5"],
        ["train", "--deterministic"],
        ["ctt", "--deterministic"],
    ])
    def test_removed_flags_are_usage_errors(self, workspace, argv):
        tmp, gold = workspace
        inputs = [gold] if argv[0] == "train" else [gold, gold]
        with pytest.raises(SystemExit) as exc:
            run(argv[0], *inputs, "-o", tmp / "m.txt", *argv[1:])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["filter", "stats"])
    def test_bad_scored_pause_file_exits_one(self, workspace, capsys, command):
        tmp, _ = workspace
        scored = tmp / "scored.jsonl"
        record = {"utterance_id": "u1", "sentence": "一二三",
                  "pauses": [{"junction": 0, "duration_ms": 230.0, "probability": "high"}]}
        scored.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        argv = [command, scored] + (["-o", tmp / "partial.txt"] if command == "filter" else [])
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error[ParseError]" in err
        assert "line 1" in err
