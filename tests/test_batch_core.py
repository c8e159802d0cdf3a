"""The batched inference core against one simple per-sentence reference.

The reference below is the recursion the core replaced: one sentence at a
time, in log space, with the same arithmetic per entry. Scores, marginals
and decoded paths must therefore agree bitwise, and batching must not
change any row's result. Gradients sum their counts in a different order,
so they agree to a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from pauseseg import crf, features, mining, tagset
from pauseseg.crf import ConstraintMask

NEG_INF = float("-inf")
N = tagset.N_LABELS
BOUNDARY = sorted((int(a), int(b)) for a, b in tagset.boundary_bigrams())
ALPHABET = "abcdefgh"


# ---------------------------------------------------------------------------
# Per-sentence reference


def ref_logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    s = np.exp(a - shift).sum(axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(s) + np.squeeze(shift, axis=axis)


def ref_forward_backward(Em, trans, start, end):
    """log Z, unigram [n, 4] and bigram [n-1, 4, 4] marginals of one sentence."""
    n = len(Em)
    alpha = np.empty((n, N))
    alpha[0] = start + Em[0]
    for i in range(1, n):
        alpha[i] = Em[i] + ref_logsumexp(alpha[i - 1][:, None] + trans, axis=0)
    log_z = float(ref_logsumexp(alpha[n - 1] + end, axis=0))
    beta = np.empty((n, N))
    beta[n - 1] = end
    for i in range(n - 2, -1, -1):
        beta[i] = ref_logsumexp(trans + (Em[i + 1] + beta[i + 1])[None, :], axis=1)
    unigram = np.exp(alpha + beta - log_z)
    bigram = np.exp(
        alpha[:-1, :, None] + trans[None, :, :] + (Em[1:] + beta[1:])[:, None, :] - log_z
    )
    return log_z, unigram, bigram


def ref_viterbi(Em, trans, start, end):
    n = len(Em)
    delta = np.empty((n, N))
    delta[n - 1] = Em[n - 1] + end
    for i in range(n - 2, -1, -1):
        delta[i] = Em[i] + np.max(trans + delta[i + 1][None, :], axis=1)
    tags = [int(np.argmax(start + delta[0]))]
    for i in range(1, n):
        tags.append(int(np.argmax(trans[tags[-1]] + delta[i])))
    return tagset.tags_to_str(tags)


def ref_loss_and_grad(model, sentence, tags=None, allowed=None):
    """One example's loss and gradient: full when ``tags`` is given, else partial."""
    grad = crf.Gradient.zeros(model)
    ids = model.vocab.encode(sentence)
    E = model.emit_w[ids].sum(axis=1)
    log_z, uni, bi = ref_forward_backward(E, model.trans, model.start, model.end)

    def scatter(u, b, sign):
        np.add.at(grad.emit, ids.ravel(), sign * np.repeat(u, ids.shape[1], axis=0))
        grad.trans += sign * b.sum(axis=0)
        grad.start += sign * u[0]
        grad.end += sign * u[-1]

    if tags is not None:
        t = tagset.parse_tags(tags)
        scatter(uni, bi, 1.0)
        for i, tag in enumerate(t):
            grad.emit[ids[i], tag] -= 1.0
        for a, b in zip(t, t[1:]):
            grad.trans[a, b] -= 1.0
        grad.start[t[0]] -= 1.0
        grad.end[t[-1]] -= 1.0
        return log_z - oracle.path_score(model, sentence, t), grad
    Em = np.where(allowed, E, NEG_INF)
    log_zc, uni_c, bi_c = ref_forward_backward(Em, model.trans, model.start, model.end)
    scatter(uni - uni_c, bi - bi_c, 1.0)
    return log_z - log_zc, grad


# ---------------------------------------------------------------------------
# Fixtures


def random_model(seed, scale=1.5, grid=None):
    return oracle.make_model(np.random.default_rng(seed), [ALPHABET], scale=scale, grid=grid)


def mixed_batch(rng, model, n_rows=12, max_len=11):
    """Sentences of mixed lengths (1-character ones included), every other one masked."""
    lengths = [1, 2] + [int(x) for x in rng.integers(1, max_len + 1, size=n_rows - 2)]
    sentences = [oracle.random_sentence(rng, n, alphabet=ALPHABET) for n in lengths]
    allowed = [oracle.random_mask(rng, n) if k % 2 else None for k, n in enumerate(lengths)]
    emissions = [
        model.emissions(s) if a is None else np.where(a, model.emissions(s), NEG_INF)
        for s, a in zip(sentences, allowed)
    ]
    return sentences, allowed, emissions


def pad(emissions):
    lengths = np.array([len(e) for e in emissions])
    E = np.full((len(emissions), lengths.max(), N), NEG_INF)
    for b, e in enumerate(emissions):
        E[b, : len(e)] = e
    return E, lengths


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_marginals_match_reference_on_mixed_lengths_and_masks(seed):
    rng = np.random.default_rng(seed)
    model = random_model(seed)
    _, _, emissions = mixed_batch(rng, model)
    E, lengths = pad(emissions)
    fb = crf._forward_backward(E, lengths, model.trans, model.start, model.end)
    for b, Em in enumerate(emissions):
        n = len(Em)
        log_z, uni, bi = ref_forward_backward(Em, model.trans, model.start, model.end)
        assert fb.log_z[b] == log_z
        assert np.array_equal(fb.unigram[b, :n], uni)
        assert np.array_equal(fb.bigram[b, : n - 1], bi)
        assert np.all(fb.unigram[b, n:] == 0.0)
        assert np.all(fb.bigram[b, n - 1 :] == 0.0)


def test_boundary_probabilities_match_reference():
    rng = np.random.default_rng(5)
    model = random_model(5, scale=3.0)
    sentences = [oracle.random_sentence(rng, int(n), ALPHABET) for n in rng.integers(2, 15, 40)]
    batched = crf.boundary_probabilities_batch(sentences, model)
    for s, got in zip(sentences, batched):
        _, _, bi = ref_forward_backward(model.emissions(s), model.trans, model.start, model.end)
        want = np.zeros(len(s) - 1)
        for a, b in BOUNDARY:
            want += bi[:, a, b]
        assert np.array_equal(got, want)
        assert np.array_equal(crf.boundary_probabilities(s, model), want)


@pytest.mark.parametrize("grid", [None, 0.25])
def test_viterbi_matches_reference_on_mixed_lengths_and_masks(grid):
    rng = np.random.default_rng(7)
    model = random_model(7, grid=grid)
    sentences, allowed, emissions = mixed_batch(rng, model, n_rows=30)
    masks = [None if a is None else ConstraintMask(a) for a in allowed]
    want = [ref_viterbi(Em, model.trans, model.start, model.end) for Em in emissions]
    assert crf.viterbi_batch(sentences, model, masks) == want
    assert [crf.viterbi(s, model, m) for s, m in zip(sentences, masks)] == want


def test_viterbi_ties_on_the_all_zero_model():
    model = crf.CrfModel(random_model(0).vocab)  # every weight 0: all legal paths tie
    sentences = [ALPHABET[:n] for n in (4, 1, 2, 3, 6)]
    want = ["BMME", "S", "BE", "BME", "BMMMME"]
    zero = np.zeros((1, N))
    assert [ref_viterbi(np.repeat(zero, len(s), 0), model.trans, model.start, model.end)
            for s in sentences] == want
    assert crf.viterbi_batch(sentences, model) == want
    # a boundary after character 0 forces S or E there and B or S next
    masks = [mining.build_constraint_mask(s, [0] if len(s) > 1 else []) for s in sentences]
    assert crf.viterbi_batch(sentences, model, masks) == ["SBME", "S", "SS", "SBE", "SBMMME"]


def test_batch_gradient_is_the_sum_of_per_sentence_gradients():
    rng = np.random.default_rng(11)
    model = random_model(11)
    sentences = [oracle.random_sentence(rng, n, ALPHABET) for n in (1, 5, 2, 8, 3, 1, 6)]
    full = []
    for s in sentences:
        seqs = oracle.legal_sequences(len(s))
        full.append((s, tagset.tags_to_str(seqs[int(rng.integers(0, len(seqs)))])))
    partial = [(s, ConstraintMask(oracle.random_mask(rng, len(s)))) for s in sentences]

    def check(got_loss, got_grad, refs):
        want_loss = sum(loss for loss, _ in refs)
        assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        for name in ("emit", "trans", "start", "end"):
            want = sum(getattr(g, name) for _, g in refs)
            np.testing.assert_allclose(getattr(got_grad, name), want, rtol=1e-12, atol=1e-12)

    check(*crf.nll_loss_and_grad(full, model),
          [ref_loss_and_grad(model, s, tags=t) for s, t in full])
    check(*crf.partial_nll_loss_and_grad(partial, model),
          [ref_loss_and_grad(model, s, allowed=m.allowed) for s, m in partial])

    # full and partial examples in one training batch
    items = [crf._prepare_full(model.vocab.encode(s), t) for s, t in full]
    items += [crf._prepare_partial(model.vocab.encode(s), m) for s, m in partial]
    loss, counts = crf._loss_and_grad(model, items)
    check(loss, crf._gradient(model, counts),
          [ref_loss_and_grad(model, s, tags=t) for s, t in full]
          + [ref_loss_and_grad(model, s, allowed=m.allowed) for s, m in partial])


MODEL = random_model(13, scale=2.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_do_not_depend_on_batch_composition_or_order(data):
    sentences = data.draw(
        st.lists(st.text(alphabet=ALPHABET, min_size=1, max_size=14), min_size=1, max_size=10)
    )
    masks = [
        mining.build_constraint_mask(
            s, data.draw(st.lists(st.integers(0, len(s) - 2), max_size=3)) if len(s) > 1 else []
        )
        for s in sentences
    ]
    order = data.draw(st.permutations(range(len(sentences))))
    budget = data.draw(st.integers(1, 40))

    alone_free = [crf.viterbi(s, MODEL) for s in sentences]
    alone_masked = [crf.viterbi(s, MODEL, m) for s, m in zip(sentences, masks)]
    alone_probs = [crf.boundary_probabilities(s, MODEL) if len(s) > 1 else None for s in sentences]

    shuffled = [sentences[k] for k in order]
    saved = crf.INFERENCE_BATCH_CHARS
    crf.INFERENCE_BATCH_CHARS = budget
    try:
        free = crf.viterbi_batch(shuffled, MODEL)
        masked = crf.viterbi_batch(shuffled, MODEL, [masks[k] for k in order])
        probs = crf.boundary_probabilities_batch([s for s in shuffled if len(s) > 1], MODEL)
    finally:
        crf.INFERENCE_BATCH_CHARS = saved

    assert free == [alone_free[k] for k in order]
    assert masked == [alone_masked[k] for k in order]
    want_probs = [alone_probs[k] for k in order if len(sentences[k]) > 1]
    assert len(probs) == len(want_probs)
    assert all(np.array_equal(a, b) for a, b in zip(probs, want_probs))


def test_corpus_entry_points_encode_one_batch_at_a_time(monkeypatch):
    rng = np.random.default_rng(17)
    sentences = [oracle.random_sentence(rng, int(n), ALPHABET) for n in rng.integers(2, 9, 40)]
    monkeypatch.setattr(crf, "INFERENCE_BATCH_CHARS", 16)
    batches = [[sentences[k] for k in batch] for batch in crf._corpus_batches(sentences)]
    assert len(batches) > 5
    calls = []
    encode_corpus = features.FeatureVocabulary.encode_corpus

    def recorded(self, corpus):
        calls.append(list(corpus))
        return encode_corpus(self, corpus)

    monkeypatch.setattr(features.FeatureVocabulary, "encode_corpus", recorded)
    model = random_model(17)
    tags = crf.viterbi_batch(sentences, model)
    assert calls == batches
    calls.clear()
    probs = crf.boundary_probabilities_batch(sentences, model)
    assert calls == batches
    assert tags == [crf.viterbi(s, model) for s in sentences]
    for s, p in zip(sentences, probs):
        assert np.array_equal(p, crf.boundary_probabilities(s, model))
