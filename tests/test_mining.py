import json

import numpy as np
import pytest

import oracle
from pauseseg import crf, features, mining, tagset
from pauseseg.alignment import Pause
from pauseseg.errors import IndexOutOfRange, ParseError, UnscoredPause
from pauseseg.mining import PartialSentence
from pauseseg.segments import SegmentedSentence


def zero_model(text="一二三四五六"):
    vocab = features.FeatureVocabulary()
    vocab.add_sentence(text)
    vocab.freeze()
    return crf.CrfModel(vocab)


class TestConstraintMaskFromBoundaries:
    def test_junction_forces_end_then_start(self):
        mask = mining.build_constraint_mask("一二三四", [1])
        # position 1 must end a word (E or S)
        assert list(mask.allowed[1]) == [False, False, True, True]
        # position 2 must start one (B or S)
        assert list(mask.allowed[2]) == [True, False, False, True]
        assert mask.allowed[0].all() and mask.allowed[3].all()

    def test_adjacent_junctions_intersect(self):
        mask = mining.build_constraint_mask("一二三", [0, 1])
        # position 1 both starts and ends a word: only S survives
        assert list(mask.allowed[1]) == [False, False, False, True]

    def test_all_singles_always_legal(self):
        # every junction marked: the all-S path must survive
        mask = mining.build_constraint_mask("一二三四五", range(4))
        assert mask.allowed[:, tagset.Label.S].all()

    def test_out_of_range_junction_rejected(self):
        with pytest.raises(IndexOutOfRange):
            mining.build_constraint_mask("一二", [1])

    def test_masked_decode_honors_boundaries(self):
        m = zero_model()
        tags = crf.viterbi("一二三四", m, mining.build_constraint_mask("一二三四", [1]))
        seg = tagset.labels_to_words(tags, "一二三四")
        assert 1 in seg.boundary_junctions()

    def test_mask_admits_exactly_the_paths_with_the_asserted_boundaries(self):
        # Enumerate every boundary set for n <= 6: a legal sequence survives
        # the mask iff it breaks at each asserted junction; the unasserted
        # junctions stay free.
        import itertools

        boundary = tagset.boundary_bigrams()
        for n in range(2, 7):
            text = "一二三四五六"[:n]
            for r in range(n):
                for bounds in itertools.combinations(range(n - 1), r):
                    mask = mining.build_constraint_mask(text, bounds)
                    surviving = set(oracle.legal_sequences(n, mask.allowed))
                    expected = {
                        seq
                        for seq in oracle.legal_sequences(n)
                        if all((seq[j], seq[j + 1]) in boundary for j in bounds)
                    }
                    assert surviving == expected


class TestScoreAndFilter:
    def test_zero_model_scores_half_everywhere(self):
        m = zero_model()
        pauses = [Pause(0, 230.0), Pause(2, 110.0)]
        scored = mining.score_pauses(m, "一二三四", pauses)
        assert scored[0].probability == pytest.approx(0.5, abs=1e-12)
        assert scored[1].probability == pytest.approx(0.5, abs=1e-12)
        # the inputs are untouched
        assert pauses[0].probability is None

    def test_probabilities_are_clamped(self):
        m = zero_model()
        scored = mining.score_pauses(m, "一二", [Pause(0, 99.0)])
        assert 0.0 <= scored[0].probability <= 1.0

    def test_junction_outside_sentence_rejected(self):
        with pytest.raises(IndexOutOfRange):
            mining.score_pauses(zero_model(), "一二", [Pause(5, 10.0)])

    def test_filter_threshold_is_inclusive(self):
        pauses = [
            Pause(0, 50.0, 0.49), Pause(1, 50.0, 0.5), Pause(2, 50.0, 0.51),
        ]
        kept = mining.filter_pauses(pauses, 0.5)
        assert [p.junction for p in kept] == [1, 2]

    def test_filter_rejects_unscored(self):
        with pytest.raises(UnscoredPause):
            mining.filter_pauses([Pause(0, 50.0)], 0.5)

    def test_rising_thresholds_keep_nested_subsets(self):
        rng = np.random.default_rng(5)
        pauses = [Pause(i, 50.0, float(rng.random())) for i in range(50)]
        kept = {
            t: {p.junction for p in mining.filter_pauses(pauses, t)}
            for t in (0.1, 0.5, 0.9)
        }
        assert kept[0.9] <= kept[0.5] <= kept[0.1]

    def test_filtering_twice_equals_filtering_at_the_max(self):
        rng = np.random.default_rng(17)
        pauses = [Pause(i, 50.0, float(rng.random())) for i in range(60)]
        for t1 in (0.05, 0.3, 0.7):
            for t2 in (0.1, 0.5, 0.95):
                twice = mining.filter_pauses(mining.filter_pauses(pauses, t1), t2)
                once = mining.filter_pauses(pauses, max(t1, t2))
                assert twice == once

    def test_pauses_to_partial(self):
        partial = mining.pauses_to_partial("一二三四", [Pause(2, 60.0, 0.9)])
        assert partial.chars == "一二三四"
        assert partial.boundaries == (2,)


class TestPartialSentence:
    def test_boundaries_sorted_and_deduplicated(self):
        p = PartialSentence("一二三四", (2, 0, 2))
        assert p.boundaries == (0, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            PartialSentence("一二", (1,))
        with pytest.raises(IndexOutOfRange):
            PartialSentence("一二", (-1,))

    def test_rejects_empty_sentence(self):
        with pytest.raises(ValueError):
            PartialSentence("", ())


class TestBins:
    @pytest.mark.parametrize("p,expected", [
        (0.0, 0), (0.0999, 0),
        (0.1, 1), (0.5, 1), (0.89999, 1),
        (0.9, 2), (0.999, 2), (1.0 - 1e-9, 2),
        (1.0, 3), (1.0 - 1e-13, 3),  # snaps to the exact-1 bin
    ])
    def test_probability_bins(self, p, expected):
        assert mining.probability_bin(p) == expected

    @pytest.mark.parametrize("d,expected", [
        (10.0, 0), (49.9, 0),
        (50.0, 1), (149.0, 1),
        (150.0, 2), (499.0, 2),
        (500.0, 3), (10_000.0, 3),
    ])
    def test_duration_bins(self, d, expected):
        assert mining.duration_bin(d) == expected


class TestStatistics:
    def test_counts_land_in_the_right_cells(self):
        pauses = [[Pause(0, 30.0, 0.95), Pause(1, 200.0, 0.05)],
                  [Pause(0, 600.0, 1.0)]]
        stats = mining.pause_statistics(pauses)
        assert stats.total_pauses == 3
        assert stats.counts[0, 2] == 1  # short pause, confident
        assert stats.counts[2, 0] == 1  # medium pause, unconfident
        assert stats.counts[3, 3] == 1  # long pause, probability exactly 1
        assert stats.total_kept == 2
        assert stats.accuracy is None

    def test_gold_accuracy(self):
        gold = [SegmentedSentence.from_words(["一二", "三"])]
        pauses = [[Pause(1, 100.0, 0.8), Pause(0, 100.0, 0.8)]]
        stats = mining.pause_statistics(pauses, gold)
        assert stats.total_correct == 1  # only junction 1 is a word boundary
        assert stats.accuracy == 0.5

    def test_unscored_pause_rejected(self):
        with pytest.raises(UnscoredPause):
            mining.pause_statistics([[Pause(0, 50.0)]])

    def test_percentages_recompute_from_counts(self):
        rng = np.random.default_rng(23)
        pauses = [
            [
                Pause(j, float(rng.uniform(10, 800)), float(rng.random()))
                for j in range(int(rng.integers(1, 5)))
            ]
            for _ in range(30)
        ]
        stats = mining.pause_statistics(pauses)
        assert stats.total_pauses == int(stats.counts.sum())
        assert stats.kept_percent == 100.0 * stats.total_kept / stats.total_pauses

    def test_report_renders(self):
        stats = mining.pause_statistics([[Pause(0, 70.0, 0.92)]])
        report = mining.format_stats_report(stats)
        assert "[50, 150)" in report and "[0.9, 1.0)" in report
        assert "pauses: 1" in report


class TestPartialTextFormat:
    def test_round_trip(self):
        p = PartialSentence("一二三四五", (0, 3))
        line = mining.format_partial_line(p)
        assert line == "一|二三四|五"
        assert mining.parse_partial_line(line) == p

    def test_no_boundaries(self):
        p = PartialSentence("一二三", ())
        assert mining.format_partial_line(p) == "一二三"
        assert mining.parse_partial_line("一二三") == p

    def test_escapes_pipe_and_backslash(self):
        # literal '|' at position 1 with a boundary right after it
        p = PartialSentence("a|b\\c", (1,))
        line = mining.format_partial_line(p)
        assert line == "a\\||b\\\\c"
        assert mining.parse_partial_line(line) == p

    def test_crlf_line_ending_is_stripped(self):
        assert mining.parse_partial_line("一|二三\r\n") == PartialSentence("一二三", (0,))

    def test_blank_line_is_skipped(self):
        assert mining.parse_partial_line("   \n") is None

    def test_boundary_at_line_start_rejected(self):
        with pytest.raises(ParseError):
            mining.parse_partial_line("|一二")

    def test_boundary_after_last_char_rejected(self):
        with pytest.raises(ParseError):
            mining.parse_partial_line("一二|")

    def test_dangling_escape_rejected(self):
        with pytest.raises(ParseError):
            mining.parse_partial_line("一二\\")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "partial.txt"
        data = [PartialSentence("一二三", (1,)), PartialSentence("四五", ())]
        mining.write_partial_corpus(path, data)
        assert mining.read_partial_corpus(path) == data


class TestScoredPauseIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        records = [
            ("u1", "一二三", [Pause(0, 230.0, 0.97), Pause(1, 110.0, 0.42)]),
            ("u2", "四五", []),
        ]
        mining.write_scored_pauses(path, records)
        assert mining.read_scored_pauses(path) == records

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        path.write_text('{"utterance_id": "u", "pauses": []}\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            mining.read_scored_pauses(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("pause", [
        {"junction": 0, "duration_ms": 230.0, "probability": "high"},
        {"junction": 0, "duration_ms": 230.0, "probability": 1.5},
        {"junction": 0, "duration_ms": 230.0, "probability": -0.1},
        {"junction": 0, "duration_ms": 230.0, "probability": float("nan")},
        {"junction": 0, "duration_ms": 230.0, "probability": True},
        {"junction": 2, "duration_ms": 230.0, "probability": 0.5},  # past the last junction
        {"junction": -1, "duration_ms": 230.0, "probability": 0.5},
        {"junction": 0.5, "duration_ms": 230.0, "probability": 0.5},
        {"junction": "0", "duration_ms": 230.0, "probability": 0.5},
        {"junction": 0, "duration_ms": float("nan"), "probability": 0.5},
        {"junction": 0, "duration_ms": -5.0, "probability": 0.5},
        {"junction": 0, "duration_ms": "230", "probability": 0.5},
    ])
    def test_bad_pause_field_reports_line(self, tmp_path, pause):
        path = tmp_path / "scored.jsonl"
        good = {"utterance_id": "u1", "sentence": "一二三", "pauses": []}
        bad = {"utterance_id": "u2", "sentence": "四五六", "pauses": [pause]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            mining.read_scored_pauses(path)
        assert exc.value.line == 2

    def test_unscored_and_boundary_values_are_read(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        records = [("u1", "一二三", [Pause(0, 30.0, None), Pause(1, 40.0, 0.0)]),
                   ("u2", "四五", [Pause(0, 50.0, 1.0)])]
        mining.write_scored_pauses(path, records)
        assert mining.read_scored_pauses(path) == records
