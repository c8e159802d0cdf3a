import base64
import logging
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from pauseseg import crf, features, tagset
from pauseseg.crf import ConstraintMask, CrfModel, PartialExample, TrainConfig
from pauseseg.errors import (
    EmptyDataset,
    IllegalTagSequence,
    IndexOutOfRange,
    InvalidConfig,
    LengthMismatch,
    NoLegalPath,
    ParseError,
    SentenceTooShort,
    TrainingDiverged,
)

NEG_INF = float("-inf")
CODE_BITS = features.CODE_BITS


def zero_model(text="abcdef"):
    vocab = features.FeatureVocabulary()
    vocab.add_sentence(text)
    vocab.freeze()
    return CrfModel(vocab)


class TestLogSumExp:
    """``crf._lse``, the log-sum-exp of the log-space recursion."""

    def test_matches_naive(self):
        a = np.array([0.1, -2.0, 3.5])
        assert crf._lse(a, 0) == pytest.approx(math.log(sum(math.exp(x) for x in a)))

    def test_all_neg_inf_gives_neg_inf(self):
        with np.errstate(divide="ignore"):  # log(0), silenced by its callers
            assert crf._lse(np.array([NEG_INF, NEG_INF]), 0) == NEG_INF

    def test_partial_neg_inf(self):
        a = np.array([NEG_INF, 1.0])
        assert crf._lse(a, 0) == pytest.approx(1.0)

    def test_axis(self):
        a = np.array([[0.0, NEG_INF], [1.0, 2.0]])
        out = crf._lse(a, 1)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(np.logaddexp(1.0, 2.0))


class TestScoreSequence:
    def test_illegal_sequence_scores_neg_inf(self):
        m = zero_model()
        assert crf.score_sequence("ab", "BB", m) == NEG_INF
        assert crf.score_sequence("ab", "MM", m) == NEG_INF
        assert crf.score_sequence("ab", "BM", m) == NEG_INF  # ends in M

    def test_legal_zero_model_scores_zero(self):
        m = zero_model()
        assert crf.score_sequence("ab", "BE", m) == 0.0
        assert crf.score_sequence("ab", "SS", m) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            crf.score_sequence("abc", "BE", zero_model())

    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            for t in oracle.legal_sequences(n):
                got = crf.score_sequence(s, t, m)
                assert got == pytest.approx(oracle.path_score(m, s, t), rel=1e-12)


class TestLogPartition:
    def test_zero_model_counts_legal_sequences(self):
        m = zero_model()
        # with all-zero weights, exp(logZ) is the number of legal sequences
        for n in range(1, 6):
            expected = math.log(len(oracle.legal_sequences(n)))
            assert crf.log_partition("abcdef"[:n], m) == pytest.approx(expected)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s], scale=2.0)
            assert crf.log_partition(s, m) == pytest.approx(
                oracle.log_partition(m, s), rel=1e-10
            )

    def test_empty_sentence_raises(self):
        with pytest.raises(SentenceTooShort):
            crf.log_partition("", zero_model())

    def test_exceeds_any_single_path_score(self):
        rng = np.random.default_rng(3)
        s = oracle.random_sentence(rng, 5)
        m = oracle.make_model(rng, [s])
        log_z = crf.log_partition(s, m)
        for t in oracle.legal_sequences(5):
            assert log_z >= oracle.path_score(m, s, t)


class TestMarginals:
    def test_bigram_marginals_sum_to_one_per_junction(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            marg = crf.bigram_marginals(s, m)
            np.testing.assert_allclose(marg.sum(axis=(1, 2)), 1.0, rtol=1e-12)

    def test_illegal_bigrams_carry_exactly_zero_mass(self):
        rng = np.random.default_rng(29)
        s = oracle.random_sentence(rng, 6)
        m = oracle.make_model(rng, [s])
        marg = crf.bigram_marginals(s, m)
        illegal = ~oracle.TABLE.legal
        assert np.all(marg[:, illegal] == 0.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s], scale=1.5)
            np.testing.assert_allclose(
                crf.bigram_marginals(s, m),
                oracle.bigram_marginals(m, s),
                rtol=1e-10, atol=1e-12,
            )

    def test_too_short_raises(self):
        with pytest.raises(SentenceTooShort):
            crf.bigram_marginals("a", zero_model())


class TestBoundaryProbability:
    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            for i in range(n - 1):
                assert crf.boundary_probability(s, m, i) == pytest.approx(
                    oracle.boundary_probability(m, s, i), rel=1e-10, abs=1e-12
                )

    def test_boundary_and_complement_sum_to_one(self):
        rng = np.random.default_rng(41)
        internal = sorted((int(a), int(b)) for a, b in tagset.non_boundary_bigrams())
        for _ in range(10):
            n = int(rng.integers(2, 8))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s], scale=3.0)
            marg = crf.bigram_marginals(s, m)
            for i in range(n - 1):
                p_boundary = crf.boundary_probability(s, m, i)
                p_internal = sum(marg[i, a, b] for a, b in internal)
                assert p_boundary + p_internal == pytest.approx(1.0, abs=1e-9)

    def test_junction_out_of_range(self):
        m = zero_model()
        with pytest.raises(IndexOutOfRange):
            crf.boundary_probability("ab", m, 1)
        with pytest.raises(IndexOutOfRange):
            crf.boundary_probability("ab", m, -1)

    def test_plural_form_matches_scalar(self):
        rng = np.random.default_rng(43)
        s = oracle.random_sentence(rng, 6)
        m = oracle.make_model(rng, [s])
        probs = crf.boundary_probabilities(s, m)
        for i in range(5):
            assert probs[i] == pytest.approx(crf.boundary_probability(s, m, i))


class TestViterbi:
    def test_matches_oracle_on_continuous_weights(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s], scale=2.0)
            best_t, _ = oracle.viterbi(m, s)
            assert crf.viterbi(s, m) == tagset.tags_to_str(best_t)

    def test_tie_break_matches_oracle_on_grid_weights(self):
        # grid weights force exact score ties, exposing the tie-break rule
        rng = np.random.default_rng(53)
        ties_seen = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            s = oracle.random_sentence(rng, n, alphabet="ab")
            m = oracle.make_model(rng, [s], grid=0.25)
            best_t, best_s = oracle.viterbi(m, s)
            scores = [
                oracle.path_score(m, s, t) for t in oracle.legal_sequences(n)
            ]
            ties_seen += sum(1 for x in scores if x == best_s) > 1
            assert crf.viterbi(s, m) == tagset.tags_to_str(best_t)
        assert ties_seen > 20  # the grid actually produces ties

    def test_zero_model_prefers_low_label_ids(self):
        m = zero_model()
        assert crf.viterbi("a", m) == "S"  # B alone cannot end a sentence
        assert crf.viterbi("ab", m) == "BE"
        assert crf.viterbi("abcd", m) == "BMME"

    def test_empty_sentence_raises(self):
        with pytest.raises(SentenceTooShort):
            crf.viterbi("", zero_model())


class TestConstraintMask:
    def test_all_allowed_matches_unmasked_bitwise(self):
        rng = np.random.default_rng(59)
        s = oracle.random_sentence(rng, 6)
        m = oracle.make_model(rng, [s])
        mask = ConstraintMask(np.ones((6, 4), dtype=bool))
        assert crf.log_partition(s, m, mask) == crf.log_partition(s, m)
        assert crf.viterbi(s, m, mask) == crf.viterbi(s, m)

    def test_log_space_row_without_a_path_raises_no_legal_path(self):
        # scale 300 puts the row out of the scaled range; with no end label
        # legal, alpha + beta - log Z meets inf - inf before log Z is checked
        m = oracle.make_model(np.random.default_rng(41), ["abcdefgh"], scale=300)
        m.end[:] = -np.inf
        with pytest.raises(NoLegalPath):
            crf.bigram_marginals("abcdefgh", m)
        with pytest.raises(NoLegalPath):
            crf.log_partition("abcdefgh", m)

    def test_impossible_mask_rejected_at_construction(self):
        allowed = np.ones((3, 4), dtype=bool)
        allowed[0] = [False, True, False, False]  # sentence cannot start with M
        with pytest.raises(NoLegalPath):
            ConstraintMask(allowed)

    def test_mask_restricts_partition(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            allowed = oracle.random_mask(rng, n)
            mask = ConstraintMask(allowed)
            log_z = crf.log_partition(s, m)
            log_zc = crf.log_partition(s, m, mask)
            assert log_zc <= log_z + 1e-12
            assert log_zc == pytest.approx(
                oracle.log_partition(m, s, allowed), rel=1e-10
            )

    def test_viterbi_respects_mask(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            allowed = oracle.random_mask(rng, n)
            tags = tagset.parse_tags(crf.viterbi(s, m, ConstraintMask(allowed)))
            assert all(allowed[i][tags[i]] for i in range(n))
            best_t, _ = oracle.viterbi(m, s, allowed)
            assert tags == best_t

    def test_mask_shape_must_match_sentence(self):
        m = zero_model()
        mask = ConstraintMask(np.ones((3, 4), dtype=bool))
        with pytest.raises(LengthMismatch):
            crf.log_partition("ab", m, mask)


def reference_gold_check(tags, n):
    """The labels of one gold sequence for n characters, checked one tag at a time."""
    t = tagset.parse_tags(tags)
    if len(t) != n:
        raise LengthMismatch(f"{len(t)} tags for {n} characters")
    if not tagset.is_legal(t):
        raise IllegalTagSequence(f"illegal gold sequence {tagset.tags_to_str(t)!r}")
    return t


# legal BMES strings, one word of 1-4 characters at a time
LEGAL_TAGS = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda words: "".join("S" if w == 1 else "B" + "M" * (w - 2) + "E" for w in words)
)


class TestGradients:
    def rel_err(self, a, b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
        return np.max(np.abs(a - b) / denom) if a.size else 0.0

    def check(self, grad, fd):
        legal = oracle.TABLE.legal
        assert self.rel_err(grad.emit, fd.emit) < 1e-4
        assert self.rel_err(grad.trans[legal], fd.trans[legal]) < 1e-4
        assert self.rel_err(grad.start[oracle.TABLE.legal_start],
                            fd.start[oracle.TABLE.legal_start]) < 1e-4
        assert self.rel_err(grad.end[oracle.TABLE.legal_end],
                            fd.end[oracle.TABLE.legal_end]) < 1e-4

    def test_full_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            n = int(rng.integers(1, 6))
            s = oracle.random_sentence(rng, n, alphabet="abc")
            m = oracle.make_model(rng, [s])
            gold = oracle.legal_sequences(n)[int(rng.integers(0, len(oracle.legal_sequences(n))))]
            batch = [(s, gold)]
            _, grad = crf.nll_loss_and_grad(batch, m)
            fd = oracle.finite_difference_grad(
                lambda mm: crf.nll_loss_and_grad(batch, mm)[0], m
            )
            self.check(grad, fd)

    def test_partial_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            s = oracle.random_sentence(rng, n, alphabet="abc")
            m = oracle.make_model(rng, [s])
            mask = ConstraintMask(oracle.random_mask(rng, n))
            batch = [(s, mask)]
            _, grad = crf.partial_nll_loss_and_grad(batch, m)
            fd = oracle.finite_difference_grad(
                lambda mm: crf.partial_nll_loss_and_grad(batch, mm)[0], m
            )
            self.check(grad, fd)

    def test_full_nll_is_nonnegative(self):
        rng = np.random.default_rng(79)
        s = oracle.random_sentence(rng, 5)
        m = oracle.make_model(rng, [s])
        seqs = oracle.legal_sequences(5)
        gold = seqs[int(rng.integers(0, len(seqs)))]
        loss, _ = crf.nll_loss_and_grad([(s, gold)], m)
        assert loss >= 0.0

    def test_partial_loss_zero_under_all_true_mask(self):
        rng = np.random.default_rng(83)
        s = oracle.random_sentence(rng, 5)
        m = oracle.make_model(rng, [s])
        mask = ConstraintMask(np.ones((5, 4), dtype=bool))
        loss, grad = crf.partial_nll_loss_and_grad([(s, mask)], m)
        assert loss == 0.0  # exactly: both passes run on identical inputs
        assert np.all(grad.emit == 0.0)
        assert np.all(grad.trans[oracle.TABLE.legal] == 0.0)

    def test_partial_loss_is_nonnegative(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = oracle.random_sentence(rng, n)
            m = oracle.make_model(rng, [s])
            mask = ConstraintMask(oracle.random_mask(rng, n))
            loss, _ = crf.partial_nll_loss_and_grad([(s, mask)], m)
            assert loss >= -1e-12

    def test_partial_loss_zero_iff_mask_excludes_nothing(self):
        # Enumerate the mask's surviving paths: the loss vanishes exactly
        # when no legal path is cut.
        rng = np.random.default_rng(97)
        restricting = vacuous = 0
        for trial in range(120):
            n = int(rng.integers(1, 7))
            s = oracle.random_sentence(rng, n, alphabet="abc")
            m = oracle.make_model(rng, [s])
            allowed = (
                np.ones((n, 4), dtype=bool)
                if trial % 3 == 0
                else oracle.random_mask(rng, n)
            )
            removed = len(oracle.legal_sequences(n)) - len(
                oracle.legal_sequences(n, allowed)
            )
            loss, _ = crf.partial_nll_loss_and_grad(
                [(s, ConstraintMask(allowed))], m
            )
            if removed == 0:
                vacuous += 1
                assert loss == 0.0
            else:
                restricting += 1
                assert loss > 0.0
        assert restricting >= 20 and vacuous >= 20

    def test_illegal_gold_rejected(self):
        m = zero_model()
        with pytest.raises(IllegalTagSequence):
            crf.nll_loss_and_grad([("ab", "BB")], m)
        with pytest.raises(IllegalTagSequence, match="not an integer"):
            crf.nll_loss_and_grad([("ab", [3.5, 3])], m)

    @settings(max_examples=200, deadline=None)
    @given(tags=st.text("BMESX\u00e9", max_size=6), n=st.integers(0, 6))
    def test_gold_check_matches_tagset(self, tags, n):
        # the reference: parse, then length, then legality, one tag at a time
        try:
            t = reference_gold_check(tags, n)
        except (LengthMismatch, IllegalTagSequence) as exc:
            with pytest.raises(type(exc)) as got:
                crf._gold_labels([tags], [n])
            assert str(got.value) == str(exc)
        else:
            [gold] = crf._gold_labels([tags], [n])
            assert gold.tolist() == list(t)
            assert crf._gold_labels([list(t)], [n])[0].tolist() == list(t)

    @settings(max_examples=300, deadline=None)
    @given(corpus=st.lists(
        st.one_of(
            st.tuples(st.text("BMESX\u00e9", max_size=6), st.integers(0, 6)),
            st.tuples(st.lists(st.integers(-1, 4), max_size=6), st.integers(0, 6)),
            LEGAL_TAGS.map(lambda tags: (tags, len(tags))),
            LEGAL_TAGS.map(lambda tags: (tagset.parse_tags(tags), len(tags))),
        ),
        max_size=8,
    ))
    def test_corpus_gold_check_raises_for_the_first_bad_sequence(self, corpus):
        # one pass over the corpus gives what checking each sequence in turn gives
        tag_sequences = [tags for tags, _ in corpus]
        lengths = [n for _, n in corpus]
        want = []
        try:
            for tags, n in corpus:
                want.append(reference_gold_check(tags, n))
        except (LengthMismatch, IllegalTagSequence) as exc:
            with pytest.raises(type(exc)) as got:
                crf._gold_labels(tag_sequences, lengths)
            assert str(got.value) == str(exc)
        else:
            got = crf._gold_labels(tag_sequences, lengths)
            assert [labels.tolist() for labels in got] == [list(t) for t in want]

    def test_gradient_zero_on_illegal_entries(self):
        rng = np.random.default_rng(97)
        s = oracle.random_sentence(rng, 5)
        m = oracle.make_model(rng, [s])
        _, grad = crf.nll_loss_and_grad([(s, "BMMES"[:5])], m)
        assert np.all(grad.trans[~oracle.TABLE.legal] == 0.0)
        assert np.all(grad.start[~oracle.TABLE.legal_start] == 0.0)
        assert np.all(grad.end[~oracle.TABLE.legal_end] == 0.0)


class TestTraining:
    def small_corpus(self):
        words = [["ab", "c"], ["ab", "de"], ["c", "de"], ["fg"], ["ab"], ["fg", "c"]]
        from pauseseg.segments import SegmentedSentence
        from pauseseg import pipeline
        return pipeline.gold_examples(
            [SegmentedSentence.from_words(w) for w in words]
        )

    def test_training_is_deterministic_for_a_seed(self):
        cfg = TrainConfig(epochs=3, seed=5, batch_chars=6)
        m1 = crf.train(self.small_corpus(), cfg)
        m2 = crf.train(self.small_corpus(), cfg)
        assert np.array_equal(m1.emit_w, m2.emit_w)
        assert np.array_equal(m1.trans, m2.trans)
        assert np.array_equal(m1.start, m2.start)
        assert np.array_equal(m1.end, m2.end)

    def test_different_seeds_shuffle_differently(self):
        m1 = crf.train(self.small_corpus(), TrainConfig(epochs=3, seed=1, batch_chars=6))
        m2 = crf.train(self.small_corpus(), TrainConfig(epochs=3, seed=2, batch_chars=6))
        assert not np.array_equal(m1.emit_w, m2.emit_w)

    def test_training_reduces_loss(self):
        examples = self.small_corpus()
        cfg = TrainConfig(epochs=10, seed=0, batch_chars=6)
        model = crf.train(examples, cfg)
        batch = [(ex.sentence, ex.tags) for ex in examples]
        trained_loss, _ = crf.nll_loss_and_grad(batch, model)
        fresh = CrfModel(model.vocab)
        fresh_loss, _ = crf.nll_loss_and_grad(batch, fresh)
        assert trained_loss < fresh_loss

    def test_trained_model_fits_training_data(self):
        examples = self.small_corpus()
        model = crf.train(examples, TrainConfig(epochs=30, seed=0, batch_chars=6))
        for ex in examples:
            assert crf.viterbi(ex.sentence, model) == ex.tags

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            crf.train([], TrainConfig())

    def test_empty_dev_set_raises(self):
        with pytest.raises(EmptyDataset, match="no dev sentences"):
            crf.train(self.small_corpus(), TrainConfig(epochs=1), dev=[])

    def test_dev_selection_returns_a_snapshot(self):
        from pauseseg.segments import SegmentedSentence
        dev = [SegmentedSentence.from_words(["ab", "c"])]
        model = crf.train(self.small_corpus(), TrainConfig(epochs=5, seed=0), dev=dev)
        assert crf.viterbi("abc", model) == "BES"

    def test_dev_selection_of_the_last_epoch_returns_its_weights(self):
        # with one epoch, the dev set picks the trained model itself, uncopied
        from pauseseg.segments import SegmentedSentence
        dev = [SegmentedSentence.from_words(["ab", "c"])]
        cfg = TrainConfig(epochs=1, seed=0, batch_chars=6)
        picked = crf.train(self.small_corpus(), cfg, dev=dev)
        final = crf.train(self.small_corpus(), cfg)
        for name in ("emit_w", "trans", "start", "end"):
            assert getattr(picked, name).tobytes() == getattr(final, name).tobytes()

    def test_train_extracts_features_once_per_character(self, monkeypatch):
        # every training and every dev character is keyed once, however many
        # epochs score the dev set
        from pauseseg import mining
        from pauseseg.segments import SegmentedSentence
        keyed = []
        keys = features.FeatureVocabulary._keys
        corpus_keys = features.FeatureVocabulary._corpus_keys

        def counted(self, sentence):
            keyed.append(len(sentence))
            return keys(self, sentence)

        def corpus_counted(self, sentences):
            keyed.append(sum(len(s) for s in sentences))
            return corpus_keys(self, sentences)

        monkeypatch.setattr(features.FeatureVocabulary, "_keys", counted)
        monkeypatch.setattr(features.FeatureVocabulary, "_corpus_keys", corpus_counted)
        examples = list(self.small_corpus())
        examples.append(PartialExample("abde", mining.build_constraint_mask("abde", [1])))
        dev = [SegmentedSentence.from_words(w) for w in (["ab", "c"], ["xy", "ab"])]
        crf.train(examples, TrainConfig(epochs=3), dev=dev)
        train_chars = sum(len(ex.sentence) for ex in examples)
        assert sum(keyed) == train_chars + sum(len(s.chars) for s in dev)

    def test_mixed_full_and_partial_training(self):
        from pauseseg import mining
        examples = list(self.small_corpus())
        examples.append(PartialExample("abde", mining.build_constraint_mask("abde", [1])))
        model = crf.train(examples, TrainConfig(epochs=5, seed=0, batch_chars=6))
        assert np.isfinite(model.emit_w).all()

    def test_diverging_run_raises_naming_the_epoch(self):
        cfg = TrainConfig(epochs=3, seed=0, batch_chars=6, learning_rate=1e308)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+ of 3"):
            crf.train(self.small_corpus(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("l2", -1.0), ("l2", -1e-300), ("l2", math.nan),
        ("l2", math.inf), ("batch_chars", 0), ("batch_chars", -5),
        ("epochs", 2.5), ("batch_chars", 100.0), ("seed", 0.5),
        ("learning_rate", "0.1"), ("learning_rate", True), ("l2", None), ("l2", "0"),
    ])
    def test_optimizer_settings_that_make_no_sense_are_refused(self, field, value):
        with pytest.raises(InvalidConfig, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    def test_optimizer_settings_at_their_limits_are_accepted(self):
        # lr * l2 >= 1 takes the lazy scale to 0 or below, which train handles
        for cfg in (dict(l2=0.0), dict(learning_rate=1e308), dict(l2=3.0), dict(batch_chars=1)):
            TrainConfig(**cfg)

    def test_train_logs_its_preparation_and_each_epoch(self, caplog, capsys):
        from pauseseg.segments import SegmentedSentence
        examples = self.small_corpus()
        dev = [SegmentedSentence.from_words(["ab", "c"])]
        cfg = TrainConfig(epochs=3, seed=0, batch_chars=10**6)  # one batch per epoch
        with caplog.at_level(logging.INFO, logger="pauseseg.crf"):
            model = crf.train(examples, cfg, dev=dev)
            crf.train(examples, cfg)
        assert capsys.readouterr() == ("", "")
        records = [r for r in caplog.records if r.name == "pauseseg.crf"]
        assert [r.levelno for r in records] == [logging.INFO] * 8
        chars = sum(len(ex.sentence) for ex in examples)
        assert re.fullmatch(
            rf"prepared {len(examples)} sentences, {chars} characters,"
            rf" {model.vocab.size} features in \d+\.\d{{3}} s",
            records[0].getMessage(),
        )
        epoch = re.compile(
            r"epoch (\d)/3: loss (\S+)(, dev f1 (\S+))?, \d+\.\d{3} s, \d+ chars/s"
        )
        found = [epoch.fullmatch(r.getMessage()) for r in records[1:4] + records[5:]]
        assert all(found)
        assert [int(m[1]) for m in found] == [1, 2, 3] * 2
        assert [m[3] is not None for m in found] == [True] * 3 + [False] * 3
        # epoch 1 starts from zero weights: each sentence's loss is log(number of
        # legal sequences); epoch 2's is the loss of the model after one epoch
        log_counts = sum(math.log(len(oracle.legal_sequences(len(ex.sentence)))) for ex in examples)
        assert float(found[0][2]) == pytest.approx(log_counts, abs=1e-6)
        one_epoch = crf.train(examples, TrainConfig(epochs=1, seed=0, batch_chars=10**6))
        loss, _ = crf.nll_loss_and_grad([(ex.sentence, ex.tags) for ex in examples], one_epoch)
        assert float(found[1][2]) == pytest.approx(loss, abs=1e-6)
        assert float(found[0][2]) > float(found[1][2]) > float(found[2][2])
        assert [float(m[2]) for m in found[:3]] == [float(m[2]) for m in found[3:]]


def random_examples(seed, n, partial_every=0):
    """n gold sentences over a small alphabet; every partial_every-th one as a mask."""
    from pauseseg import mining
    from pauseseg.segments import SegmentedSentence
    rng = random.Random(seed)
    words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 3)))
             for _ in range(40)]
    out = []
    for k in range(n):
        seg = SegmentedSentence.from_words([rng.choice(words) for _ in range(rng.randint(1, 6))])
        if partial_every and k % partial_every == 0 and len(seg.chars) > 1:
            kept = sorted(rng.sample(sorted(seg.boundary_junctions()),
                                     len(seg.boundary_junctions()) // 2))
            out.append(PartialExample(seg.chars, mining.build_constraint_mask(seg.chars, kept)))
        else:
            out.append(crf.FullExample(seg.chars, tagset.words_to_labels(seg)))
    return out


def dense_train(examples, config):
    """``crf.train`` without dev, updating every weight per batch: the reference."""
    vocab, prepared = crf._prepare(examples)
    model = CrfModel(vocab)
    lengths = [len(ex.sentence) for ex in examples]
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    lr, l2 = config.learning_rate, config.l2
    for _ in range(config.epochs):
        rng.shuffle(order)
        for batch in crf._batches(order, lengths, config.batch_chars):
            _, counts = crf._loss_and_grad(model, [prepared[k] for k in batch])
            g = crf._gradient(model, counts)
            B = len(batch)
            model.emit_w -= lr * (g.emit / B + l2 * model.emit_w)
            for w, gw, legal in ((model.trans, g.trans, crf.TRANS_LEGAL),
                                 (model.start, g.start, crf.START_LEGAL),
                                 (model.end, g.end, crf.END_LEGAL)):
                w[legal] -= lr * (gw[legal] / B + l2 * w[legal])
    return model


def assert_models_close(got, want, rtol, atol):
    np.testing.assert_array_equal(got.vocab.keys(), want.vocab.keys())
    for name in ("emit_w", "trans", "start", "end"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rtol, atol=atol)


class TestLazyUpdate:
    """``train`` decays the emission weights through a scale, not row by row."""

    def test_one_step_equals_the_dense_update(self):
        examples = random_examples(3, 12, partial_every=3)
        assert any(isinstance(ex, PartialExample) for ex in examples)
        cfg = TrainConfig(epochs=1, learning_rate=0.3, l2=0.05, batch_chars=10**6)
        model = crf.train(examples, cfg)
        # one batch from zero weights: w - lr (g / B + l2 w) with w = 0
        zero = CrfModel(model.vocab)
        _, g_full = crf.nll_loss_and_grad(
            [(ex.sentence, ex.tags) for ex in examples if isinstance(ex, crf.FullExample)], zero)
        _, g_part = crf.partial_nll_loss_and_grad(
            [(ex.sentence, ex.mask) for ex in examples if isinstance(ex, PartialExample)], zero)
        B, lr = len(examples), cfg.learning_rate
        want = dense_train(examples, cfg)
        np.testing.assert_allclose(want.emit_w, -lr * (g_full.emit + g_part.emit) / B,
                                   rtol=1e-12, atol=1e-17)
        assert_models_close(model, want, rtol=1e-12, atol=1e-17)

    def test_steps_with_decay_match_the_dense_update(self):
        examples = random_examples(4, 60, partial_every=4)
        cfg = TrainConfig(epochs=3, learning_rate=0.2, l2=0.1, batch_chars=20, seed=2)
        assert_models_close(crf.train(examples, cfg), dense_train(examples, cfg),
                            rtol=1e-10, atol=1e-15)

    def test_scale_folds_before_it_underflows(self):
        # lr * l2 = 0.9 divides the scale by 10 every batch: with one
        # sentence per batch it would underflow to 0 within an epoch
        examples = random_examples(5, 420, partial_every=7)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, l2=1.8, batch_chars=1, seed=1)
        assert (1 - cfg.learning_rate * cfg.l2) ** len(examples) == 0.0
        model = crf.train(examples, cfg)
        assert np.isfinite(model.emit_w).all()
        assert np.abs(model.emit_w).max() > 0.01
        assert_models_close(model, dense_train(examples, cfg), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("l2", [2.0, 3.0])
    def test_decay_of_zero_or_below_matches_the_dense_update(self, l2):
        # lr * l2 >= 1: the scale reaches 0 or turns negative after one batch
        examples = random_examples(6, 30)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, l2=l2, batch_chars=10, seed=4)
        model = crf.train(examples, cfg)
        assert np.abs(model.emit_w).max() > 0.01
        assert_models_close(model, dense_train(examples, cfg), rtol=1e-10, atol=1e-15)


class PerTemplateUnseenIds(features.FeatureVocabulary):
    """The former numbering: ids 0..T-1 are each template's unseen id, real features follow."""

    SHIFT = len(features.TEMPLATES) - 1

    @property
    def size(self):
        return super().size + self.SHIFT

    def add_corpus(self, sentences):
        return [ids + self.SHIFT for ids in super().add_corpus(sentences)]

    def encode_corpus(self, sentences):
        return [self.encode(sentence) for sentence in sentences]

    def encode(self, sentence):
        ids, unseen = self._lookup(self._keys(sentence))
        return np.where(unseen, np.arange(len(features.TEMPLATES)), ids + self.SHIFT)


@pytest.mark.parametrize("l2", [0.01, 2.0])  # 2.0: decay below 0, so the scale turns negative
def test_unseen_rows_never_train(monkeypatch, l2):
    # one shared unseen id in place of one per template changes no trained weight
    from pauseseg.segments import SegmentedSentence

    examples = random_examples(8, 40, partial_every=4)
    dev = [SegmentedSentence.from_words(w) for w in (["ab", "xyz"], ["k", "ab", "c"], ["q"])]
    cfg = TrainConfig(epochs=4, learning_rate=0.2, l2=l2, batch_chars=30, seed=3)
    got = crf.train(examples, cfg, dev=dev)
    monkeypatch.setattr(features, "FeatureVocabulary", PerTemplateUnseenIds)
    want = crf.train(examples, cfg, dev=dev)
    T = len(features.TEMPLATES)
    assert want.vocab.size == got.vocab.size + T - 1
    assert not want.emit_w[:T].any() and not got.emit_w[0].any()
    assert got.emit_w[1:].tobytes() == want.emit_w[T:].tobytes()
    for name in ("trans", "start", "end"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert crf.viterbi_words([s.chars for s in dev], got) == crf.viterbi_words(
        [s.chars for s in dev], want)


def with_first_key(key):
    """An edit of a keys array that makes ``key`` the key of feature 1."""

    def edit(keys):
        keys[0] = key
        return keys

    return edit


# any code point, lone surrogates and the characters feature strings are built from
MODEL_TEXT_CHARS = st.one_of(
    st.characters(),
    st.sampled_from([chr(0xD800), chr(0xDFFF), features.SEP, "⟨", "⟩", "=", chr(0x10FFFF)]),
)


# A format-3 model file: the vocabulary of "ab" and "b", its keys ascending,
# and a few non-zero weights.
GOLDEN_MODEL_TEXT = (
    "pauseseg model format 3\n"
    "template U-2 -2\n"
    "template U-1 -1\n"
    "template U0 0\n"
    "template U+1 1\n"
    "template U+2 2\n"
    "template B-2 -2 -1\n"
    "template B-1 -1 0\n"
    "template B0 0 1\n"
    "template B+1 1 2\n"
    "vocab_size 18\n"
    "keys AAARAAAAAABhAAAAAAQAAAAAEQAABAAAYQAAAAAIAABiAAAAAAgAAGIAAAAADAAAAQARAAAMAAABABEAABAAAGEA"
    "AAAgFgAAAAARACAWAABiACAMABgAAGEAAAAgGgAAYgAAACAaAABiACAMABwAAAEAUQwAHAAAAQBRDAAgAAABADEA"
    "ICIAAA==\n"
    "emit " + base64.b64encode(np.array(
        [[0.0] * 4, [0.5, -1.25, 0.0, 2.0]] + [[0.0] * 4] * 6 + [[0.0, 0.0, 0.0, -0.75]]
        + [[0.0] * 4] * 9, "<f8").tobytes()).decode("ascii") + "\n"
    "trans AAAAAAAA8P8AAAAAAAD4PwAAAAAAAAAAAAAAAAAA8P8AAAAAAADw/wAAAAAAAAAAAAAAAAAAAAAAAAAAAADw/wAA"
    "AAAAAAAAAAAAAAAA8P8AAAAAAADw/wAAAAAAAAAAAAAAAAAAAAAAAAAAAADw/wAAAAAAAPD/AAAAAAAAAAA=\n"
    "start AAAAAAAAAAAAAAAAAADw/wAAAAAAAPD/AAAAAAAA0D8=\n"
    "end AAAAAAAA8P8AAAAAAADw/wAAAAAAAAjAAAAAAAAAAAA=\n"
)

# The same model in format 2, as the model writer of the nine-template feature
# set wrote it, with the keys in order of first occurrence. It is no longer read.
FORMAT_2_MODEL_TEXT = (
    "pauseseg model format 2\n"
    "template U-2 -2\n"
    "template U-1 -1\n"
    "template U0 0\n"
    "template U+1 1\n"
    "template U+2 2\n"
    "template B-2 -2 -1\n"
    "template B-1 -1 0\n"
    "template B0 0 1\n"
    "template B+1 1 2\n"
    "vocab_size 18\n"
    "keys AAARAAAAAAAAABEAAAQAAGEAAAAACAAAYgAAAAAMAAABABEAABAAAAAAEQAgFgAAYQAAACAaAABiACAMABwAAAEAU"
    "QwAIAAAYQAAAAAEAABiAAAAAAgAAAEAEQAADAAAYQAAACAWAABiACAMABgAAAEAUQwAHAAAAQAxACAiAABiAAAAIB"
    "oAAA==\n"
    "emit " + base64.b64encode(np.array(
        [[0.0] * 4, [0.5, -1.25, 0.0, 2.0]] + [[0.0] * 4] * 3 + [[0.0, 0.0, 0.0, -0.75]]
        + [[0.0] * 4] * 12, "<f8").tobytes()).decode("ascii") + "\n"
    "trans AAAAAAAA8P8AAAAAAAD4PwAAAAAAAAAAAAAAAAAA8P8AAAAAAADw/wAAAAAAAAAAAAAAAAAAAAAAAAAAAADw/wAA"
    "AAAAAAAAAAAAAAAA8P8AAAAAAADw/wAAAAAAAAAAAAAAAAAAAAAAAAAAAADw/wAAAAAAAPD/AAAAAAAAAAA=\n"
    "start AAAAAAAAAAAAAAAAAADw/wAAAAAAAPD/AAAAAAAA0D8=\n"
    "end AAAAAAAA8P8AAAAAAADw/wAAAAAAAAjAAAAAAAAAAAA=\n"
)


# a legal entry of each weight record, set to each value that is not finite
NON_FINITE_WEIGHTS = [
    (name, index, value)
    for name, index in [("emit", (1, 2)), ("trans", (0, 1)), ("start", 3), ("end", 2)]
    for value in (math.nan, math.inf, -math.inf)
]
NON_FINITE_IDS = [f"{name}-{value}" for name, _, value in NON_FINITE_WEIGHTS]


def with_entry(index, value):
    """An edit of a weight array that sets its entry ``index`` to ``value``."""

    def edit(arr):
        arr[index] = value
        return arr

    return edit


class TestSerialization:
    def test_golden_model_text_reads_and_writes_back_its_bytes(self):
        m = CrfModel.loads(GOLDEN_MODEL_TEXT)
        assert m.dumps() == GOLDEN_MODEL_TEXT
        assert m.vocab.size == 18
        assert m.emit_w[1].tolist() == [0.5, -1.25, 0.0, 2.0] and m.emit_w[8, 3] == -0.75
        assert m.vocab.feature_id("U-2=" + features.BOS) == 1
        assert m.vocab.feature_id("U+2=" + features.EOS) == 8
        assert np.count_nonzero(m.emit_w) == 4
        assert (m.trans[0, 1], m.start[3], m.end[2]) == (1.5, 0.25, -3.0)
        assert m.vocab.encode("ab").tolist() == [
            [1, 3, 4, 6, 8, 10, 12, 14, 16], [1, 2, 5, 7, 8, 9, 11, 15, 17]]
        assert m.vocab.encode("ba").tolist() == [
            [1, 3, 5, 0, 8, 10, 13, 0, 0], [1, 0, 4, 7, 8, 0, 0, 0, 17]]
        assert m.vocab.encode("bx").tolist() == [
            [1, 3, 5, 0, 8, 10, 13, 0, 0], [1, 0, 0, 7, 8, 0, 0, 0, 17]]

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(101)
        s = oracle.random_sentence(rng, 6)
        m = oracle.make_model(rng, [s, "xyz"])
        path = tmp_path / "model.txt"
        m.save(path)
        m2 = CrfModel.load(path)
        assert np.array_equal(m.emit_w, m2.emit_w)
        assert np.array_equal(m.trans, m2.trans)
        assert np.array_equal(m.start, m2.start)
        assert np.array_equal(m.end, m2.end)
        assert m2.dumps() == m.dumps()
        assert crf.viterbi(s, m2) == crf.viterbi(s, m)

    def test_line_separator_characters_round_trip(self, tmp_path):
        # U+0085, U+2028 and U+2029 end a line for splitlines(), not for the model reader
        m = oracle.make_model(np.random.default_rng(107), ["a\x85b\u2028c\u2029d"])
        path = tmp_path / "model.txt"
        m.save(path)
        assert CrfModel.load(path).dumps() == m.dumps()

    def test_crlf_file_reads_the_same(self):
        text = oracle.make_model(np.random.default_rng(109), ["abcab", "xyz"]).dumps()
        assert CrfModel.loads(text.replace("\n", "\r\n")).dumps() == text
        bad, line = self.edited("end ", "end AAAAAAAAAAA\u00e9")
        with pytest.raises(ParseError, match=rf"bad end record.*\(line {line}\)"):
            CrfModel.loads(bad.replace("\n", "\r\n"))

    def test_file_reader_keeps_a_lone_cr_in_its_line(self, tmp_path):
        # loads ends lines at LF and CRLF only, and so must load, which open() reads
        text = oracle.make_model(np.random.default_rng(109), ["abcab", "xyz"]).dumps()
        path = tmp_path / "model.txt"
        for variant in (text.replace("\n", "\r", 1), text.replace("\nvocab_size", "\rvocab_size")):
            path.write_bytes(variant.encode("utf-8"))
            with pytest.raises(ParseError) as want:
                CrfModel.loads(variant)
            with pytest.raises(ParseError) as got:
                CrfModel.load(path)
            assert str(got.value) == str(want.value)
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert CrfModel.load(path).dumps() == text

    def test_loaded_model_scores_unseen_text_identically(self, tmp_path):
        rng = np.random.default_rng(103)
        m = oracle.make_model(rng, ["abcd"])
        m2 = CrfModel.loads(m.dumps())
        # "xyz" hits the unseen-feature id 0; both models must agree
        assert crf.log_partition("xyz", m2) == crf.log_partition("xyz", m)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            CrfModel.loads("something else\n")

    def test_format_1_is_refused_at_line_1(self):
        with pytest.raises(ParseError, match=r"format 1 is no longer read.*\(line 1\)"):
            CrfModel.loads("pauseseg model format 1\ntemplate U0 0\nvocab_size 1\nemit 0 0 0 0 0\n")

    def test_format_2_is_refused_at_line_1(self):
        message = r"^pauseseg model format 2 is no longer read; retrain the model \(line 1\)$"
        with pytest.raises(ParseError, match=message):
            CrfModel.loads(FORMAT_2_MODEL_TEXT)

    @pytest.mark.parametrize("name, index, value", NON_FINITE_WEIGHTS, ids=NON_FINITE_IDS)
    def test_weight_that_is_not_finite_refused_on_save(self, name, index, value):
        m = zero_model("ab")
        m.weights()[name][index] = value
        with pytest.raises(ValueError, match=f"^{name} record holds a weight that is not finite"):
            m.dumps()

    def test_illegal_entry_that_is_not_neg_inf_refused_on_save(self):
        m = zero_model("ab")
        m.trans[0, 0] = 0.0  # B -> B
        with pytest.raises(ValueError, match="illegal trans"):
            m.dumps()

    def test_save_twice_gives_identical_bytes(self, tmp_path):
        m = oracle.make_model(np.random.default_rng(109), ["abcab", "xyz"])
        m.save(tmp_path / "a.model")
        m.save(tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.lists(st.text(MODEL_TEXT_CHARS, max_size=10), min_size=1, max_size=6),
        probes=st.lists(st.text(MODEL_TEXT_CHARS, max_size=10), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_model_file_round_trips_any_vocabulary_and_weights(self, corpus, probes, seed):
        vocab = features.FeatureVocabulary()
        vocab.add_corpus(corpus)
        vocab.freeze()
        rng = np.random.default_rng(seed)

        def finite(legal):
            # random bit patterns: huge, tiny, subnormal and signed-zero weights
            bits = rng.integers(0, 2**64, size=legal.shape, dtype=np.uint64)
            w = bits.view(np.float64)
            return np.where(legal, np.where(np.isfinite(w), w, -0.0), NEG_INF)

        m = CrfModel(
            vocab,
            finite(np.ones((vocab.size, 4), dtype=bool)),
            finite(crf.TRANS_LEGAL),
            finite(crf.START_LEGAL),
            finite(crf.END_LEGAL),
        )
        text = m.dumps()
        loaded = CrfModel.loads(text)
        assert loaded.vocab.size == vocab.size
        assert loaded.vocab.keys().tobytes() == vocab.keys().tobytes()
        for name in ("emit_w", "trans", "start", "end"):
            assert getattr(loaded, name).tobytes() == getattr(m, name).tobytes()
        assert loaded.dumps() == text
        for sentence in corpus + probes:
            np.testing.assert_array_equal(loaded.vocab.encode(sentence), vocab.encode(sentence))

    def test_round_trip_at_ten_thousand_features_is_bitwise(self):
        rng = np.random.default_rng(113)
        alphabet = [chr(0x4E00 + k) for k in range(400)] + [chr(0x1F600), chr(0x10FFFF), "\x1f"]
        corpus = ["".join(rng.choice(alphabet, size=rng.integers(1, 30))) for _ in range(200)]
        vocab = features.FeatureVocabulary()
        vocab.add_corpus(corpus)
        vocab.freeze()
        assert vocab.size > 10_000
        emit_w = rng.normal(size=(vocab.size, 4)) * 10.0 ** rng.integers(-300, 300, (vocab.size, 4))
        emit_w[1, :] = [0.0, -0.0, np.finfo(np.float64).max, 5e-324]
        m = CrfModel(vocab, emit_w)
        text = m.dumps()
        m2 = CrfModel.loads(text)
        np.testing.assert_array_equal(m2.vocab.keys(), vocab.keys())
        for name in ("emit_w", "trans", "start", "end"):
            assert getattr(m2, name).tobytes() == getattr(m, name).tobytes()
        assert m2.dumps() == text
        for sentence in corpus[:20] + ["\u4e00\u4e01xyz"]:
            np.testing.assert_array_equal(m2.vocab.encode(sentence), vocab.encode(sentence))

    @staticmethod
    def edited(prefix, new_line):
        """zero_model("ab")'s text with its line starting ``prefix`` replaced, and its number.

        ``new_line`` None deletes the line. It may be a function of the
        record's array; it then returns the array to write in its place.
        """
        m = zero_model("ab")
        lines = m.dumps().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        kind = prefix.split(" ")[0]
        if callable(new_line):
            dtype = dict(CrfModel._RECORDS)[kind]
            arrays = {"keys": m.vocab.keys(), "emit": m.emit_w, "trans": m.trans,
                      "start": m.start, "end": m.end}
            arr = new_line(np.array(arrays[kind], dtype=dtype))
            new_line = kind + " " + base64.b64encode(arr.tobytes()).decode("ascii")
        if new_line is None:
            del lines[k]
        else:
            lines[k] = new_line
        return "\n".join(lines) + "\n", k + 1

    def test_truncated_file_rejected(self):
        text, line = self.edited("emit ", lambda emit: emit)
        cut = text.index("\nemit ") + 40  # inside the emit record
        with pytest.raises(ParseError, match=rf"\(line {line}\)"):
            CrfModel.loads(text[:cut])

    def test_garbled_line_reports_location(self):
        text, line = self.edited("vocab_size ", "vocab_size x")
        with pytest.raises(ParseError, match=rf"vocab_size.*\(line {line}\)"):
            CrfModel.loads(text)

    @pytest.mark.parametrize(
        "prefix, new_line, message",
        [
            # template index 9 of 9
            ("keys ", with_first_key(9 << 2 * CODE_BITS), "feature 1 .*matches no template"),
            # "U0=⟨BOS⟩": a character position is never BOS
            ("keys ", with_first_key(2 << 2 * CODE_BITS | features.BOS_CODE),
             "feature 1 .*matches no template"),
            ("keys ", lambda keys: np.append(keys[:-1], keys[0]),
             "feature 16 .*is not above feature 15: keys must ascend"),
            ("template B0 ", "template B0 0 1 2", "fixed template line 'template B0 0 1'"),
            ("template U-1 ", "template U-2 -1", "fixed template line 'template U-1 -1'"),
            ("trans ", None, "expected the trans record"),
            ("emit ", lambda emit: emit[:-1], "emit record holds"),
            ("keys ", "keys AAAA!AAAAAAAAAA=", "bad keys record"),
            ("end ", "end AAAAAAAAAAA\u00e9", "bad end record"),
            # a lenient decoder would skip the "!" and read the right bytes
            ("end ", "end !" + base64.b64encode(
                np.array([NEG_INF, NEG_INF, 0.0, 0.0], "<f8").tobytes()).decode("ascii"),
             "bad end record"),
            ("trans ", lambda trans: np.where(trans == NEG_INF, 0.0, trans), "illegal trans"),
            ("emit ", lambda emit: np.where(emit == 0.0, np.nan, emit), "NaN"),
        ] + [
            (name + " ", with_entry(index, value), f"{name} record holds a weight that is not finite")
            for name, index, value in NON_FINITE_WEIGHTS
        ],
        ids=["no-template", "bos-at-offset-0", "repeated-key", "three-offsets",
             "repeated-template", "missing-record", "wrong-length", "not-base64",
             "not-ascii", "junk-in-base64", "illegal-transition-not-neg-inf", "nan-weight"]
        + NON_FINITE_IDS,
    )
    def test_bad_record_is_named(self, prefix, new_line, message):
        text, line = self.edited(prefix, new_line)
        with pytest.raises(ParseError, match=rf"{message}.*\(line {line}\)"):
            CrfModel.loads(text)

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: lines[:3] + lines[4:], 4, "fixed template line 'template U0 0'"),
        (lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:], 7,
         "fixed template line 'template B-2 -2 -1'"),
        (lambda lines: lines[:9] + ["template B+1 1 2 3"] + lines[10:], 10,
         "fixed template line 'template B\\+1 1 2'"),
        (lambda lines: lines[:2] + ["template U-1 -1 0"] + lines[3:], 3,
         "fixed template line 'template U-1 -1'"),
        (lambda lines: lines[:1] + ["template X -2"] + lines[2:], 2,
         "fixed template line 'template U-2 -2'"),
        (lambda lines: lines[:10] + ["template T 0"] + lines[10:], 11,
         "expected the vocab_size record"),
        (lambda lines: lines[:5], 6, "fixed template line 'template U\\+2 2'"),
    ], ids=["missing", "reordered", "extra-offset", "unigram-as-bigram", "renamed",
            "tenth-template", "cut-in-the-header"])
    def test_template_lines_other_than_the_fixed_ones_are_refused(self, edit, line, message):
        lines = edit(GOLDEN_MODEL_TEXT.splitlines())
        with pytest.raises(ParseError, match=rf"{message}.*\(line {line}\)"):
            CrfModel.loads("\n".join(lines) + "\n")

    def test_line_after_the_end_record_is_named(self):
        text = zero_model("ab").dumps()
        with pytest.raises(ParseError, match=rf"\(line {len(text.splitlines()) + 1}\)"):
            CrfModel.loads(text + "emit AAAA\n")

    def test_illegal_entries_reconstructed_as_neg_inf(self):
        m = zero_model("ab")
        m2 = CrfModel.loads(m.dumps())
        assert m2.trans[0, 0] == NEG_INF  # B -> B
        assert m2.start[1] == NEG_INF  # M
        assert m2.end[0] == NEG_INF  # B
