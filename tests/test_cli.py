import json

import pytest

from pauseseg import alignment, cli, crf, mining
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
             mining.score_pauses(model, a.sentence, alignment.detect_pauses(a, 10.0))
             if len(a.sentence) > 1 else [])
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
            assert manifest["config"] == {"min_pause_ms": 10.0}
        assert outputs[0] == outputs[1]

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
        assert list(manifest["config"]) == ["epochs", "learning_rate", "l2", "batch_chars", "seed"]


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

    def test_diverging_training_exits_one_and_writes_no_model(self, workspace, capsys):
        tmp, gold = workspace
        assert run("train", gold, "-o", tmp / "m.txt", "--lr", "1e308") == 1
        err = capsys.readouterr().err
        assert "error[TrainingDiverged]" in err
        assert "epoch" in err
        assert not (tmp / "m.txt").exists()

    @pytest.mark.parametrize("offset", ["0", "-10", "nan"])
    def test_bad_frame_offset_flag_exits_one(self, workspace, capsys, offset):
        tmp, gold = workspace
        model_path = tmp / "model.txt"
        run("train", gold, "-o", model_path, "--epochs", "1")
        tg = tmp / "u1.TextGrid"
        tg.write_text(TEXTGRID, encoding="utf-8")
        scored = tmp / "scored.jsonl"
        argv = ["mine", model_path, tg, "-o", scored, "--frame-offset-ms", offset]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error[InvalidConfig]" in err
        assert "frame offset" in err
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
