import math
import random

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
    LengthMismatch,
    NoLegalPath,
    ParseError,
    SentenceTooShort,
    TrainingDiverged,
)

NEG_INF = float("-inf")


def zero_model(text="abcdef"):
    vocab = features.FeatureVocabulary()
    vocab.add_sentence(text)
    vocab.freeze()
    return CrfModel(vocab)


class TestLogSumExp:
    def test_matches_naive(self):
        a = np.array([0.1, -2.0, 3.5])
        assert crf.logsumexp(a) == pytest.approx(math.log(sum(math.exp(x) for x in a)))

    def test_all_neg_inf_gives_neg_inf(self):
        assert crf.logsumexp(np.array([NEG_INF, NEG_INF])) == NEG_INF

    def test_partial_neg_inf(self):
        a = np.array([NEG_INF, 1.0])
        assert crf.logsumexp(a) == pytest.approx(1.0)

    def test_axis(self):
        a = np.array([[0.0, NEG_INF], [1.0, 2.0]])
        out = crf.logsumexp(a, axis=1)
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
        mask = ConstraintMask.all_allowed(6)
        assert crf.log_partition(s, m, mask) == crf.log_partition(s, m)
        assert crf.viterbi(s, m, mask) == crf.viterbi(s, m)

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
        mask = ConstraintMask.all_allowed(3)
        with pytest.raises(LengthMismatch):
            crf.log_partition("ab", m, mask)


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
        mask = ConstraintMask.all_allowed(5)
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

    @settings(max_examples=200, deadline=None)
    @given(tags=st.text("BMESX\u00e9", max_size=6), n=st.integers(0, 6))
    def test_gold_check_matches_tagset(self, tags, n):
        # the reference: parse, then length, then legality, one tag at a time
        ids = np.zeros((n, 1), dtype=np.intp)
        try:
            t = tagset.parse_tags(tags)
            if len(t) != n:
                raise LengthMismatch(f"{len(t)} tags for {n} characters")
            if not tagset.is_legal(t):
                raise IllegalTagSequence(f"illegal gold sequence {tagset.tags_to_str(t)!r}")
        except (LengthMismatch, IllegalTagSequence) as exc:
            with pytest.raises(type(exc)) as got:
                crf._prepare_full(ids, tags)
            assert str(got.value) == str(exc)
        else:
            _, gold, _ = crf._prepare_full(ids, tags)
            assert gold.tolist() == list(t)
            assert crf._prepare_full(ids, list(t))[1].tolist() == list(t)

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

    def test_dev_selection_returns_a_snapshot(self):
        from pauseseg.segments import SegmentedSentence
        dev = [SegmentedSentence.from_words(["ab", "c"])]
        model = crf.train(self.small_corpus(), TrainConfig(epochs=5, seed=0), dev=dev)
        assert crf.viterbi("abc", model) == "BES"

    def test_train_extracts_features_once_per_character(self, monkeypatch):
        # every training and every dev character is keyed once, however many
        # epochs score the dev set
        from pauseseg import mining
        from pauseseg.segments import SegmentedSentence
        keyed = []
        keys = features.FeatureVocabulary._keys

        def counted(self, sentences):
            keyed.append(sum(len(s) for s in sentences))
            return keys(self, sentences)

        monkeypatch.setattr(features.FeatureVocabulary, "_keys", counted)
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
    vocab = features.FeatureVocabulary()
    prepared = [
        crf._prepare_full(ids, ex.tags)
        if isinstance(ex, crf.FullExample)
        else crf._prepare_partial(ids, ex.mask)
        for ex, ids in zip(examples, vocab.add_corpus([ex.sentence for ex in examples]))
    ]
    vocab.freeze()
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
    np.testing.assert_array_equal(got.vocab.items(), want.vocab.items())
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


class TestSerialization:
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
        # U+0085, U+2028 and U+2029 stay raw in a JSON string but end a line for splitlines()
        m = oracle.make_model(np.random.default_rng(107), ["a\x85b\u2028c\u2029d"])
        path = tmp_path / "model.txt"
        m.save(path)
        assert CrfModel.load(path).dumps() == m.dumps()

    def test_loaded_model_scores_unseen_text_identically(self, tmp_path):
        rng = np.random.default_rng(103)
        m = oracle.make_model(rng, ["abcd"])
        m2 = CrfModel.loads(m.dumps())
        # "xyz" hits unknown-feature ids; both models must agree
        assert crf.log_partition("xyz", m2) == crf.log_partition("xyz", m)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            CrfModel.loads("something else\n")

    def test_truncated_file_rejected(self):
        m = zero_model("ab")
        text = m.dumps()
        lines = [l for l in text.splitlines() if not l.startswith("emit 0 ")]
        with pytest.raises(ParseError):
            CrfModel.loads("\n".join(lines))

    def test_nan_weights_refused_on_save(self):
        m = zero_model("ab")
        m.emit_w[0, 0] = float("nan")
        with pytest.raises(ValueError):
            m.dumps()

    def test_garbled_line_reports_location(self):
        m = zero_model("ab")
        text = m.dumps().replace("vocab_size", "vocab_size x")
        with pytest.raises(ParseError):
            CrfModel.loads(text)

    @staticmethod
    def edited(prefix, new_line):
        """A model text whose line starting ``prefix`` is ``new_line``, and that line's number."""
        lines = zero_model("ab").dumps().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[k] = new_line
        return "\n".join(lines) + "\n", k + 1

    @pytest.mark.parametrize(
        "prefix, new_line",
        [
            ("feature 9 ", 'feature 9 "nonsense"'),  # matches no template
            ("feature 9 ", 'feature 9 "U0=⟨BOS⟩"'),  # a character position is never BOS
            ("feature 10 ", 'feature 10 "U-2=⟨BOS⟩"'),  # repeats feature 9
            ("feature 9 ", 'feature 90 "U-2=⟨BOS⟩"'),  # id out of sequence
            ("template B0 ", "template B0 0 1 2"),  # more than two offsets
        ],
    )
    def test_line_that_can_never_fire_is_named(self, prefix, new_line):
        assert 'feature 9 "U-2=⟨BOS⟩"' in zero_model("ab").dumps().splitlines()
        text, line = self.edited(prefix, new_line)
        with pytest.raises(ParseError, match=rf"\(line {line}\)"):
            CrfModel.loads(text)

    def test_illegal_entries_reconstructed_as_neg_inf(self):
        m = zero_model("ab")
        m2 = CrfModel.loads(m.dumps())
        assert m2.trans[0, 0] == NEG_INF  # B -> B
        assert m2.start[1] == NEG_INF  # M
        assert m2.end[0] == NEG_INF  # B
