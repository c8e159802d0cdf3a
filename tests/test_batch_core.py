"""The batched inference core against simple per-sentence references.

The references below run one sentence at a time. The scaled one does the
core's arithmetic per entry, so scores and marginals must agree with it
bitwise; the log-space one is the recursion the core replaced, which
they match to a relative 1e-12. Decoded paths agree bitwise with the
max-sum reference, and batching must not change any row's result.
Gradients sum their counts in a different order, so they agree to a
tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from pauseseg import crf, features, mining, pipeline, tagset
from pauseseg.alignment import Pause
from pauseseg.crf import ConstraintMask
from pauseseg.errors import LengthMismatch, NoLegalPath, NonFiniteWeights, SentenceTooShort

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


def ref_scaled_forward_backward(Em, shift, trans, start, end):
    """``ref_forward_backward`` in the core's scaled space (see ``crf._forward``).

    ``shift[i]`` is the largest unmasked score at position i. Each position
    but the last is divided by its sum c[i]; beta divides by the c of the
    positions after it.
    """
    n = len(Em)
    X = np.exp(Em - shift[:, None])
    T, S, F = np.exp(trans), np.exp(start), np.exp(end)
    alpha = np.empty((n, N))
    c = np.ones(n)
    a = S * X[0]
    for i in range(n):
        if i:
            a = np.add.reduce(alpha[i - 1][:, None] * T, axis=0) * X[i]
        if i < n - 1:
            c[i] = np.add.reduce(a)
        alpha[i] = a / c[i]
    z = np.add.reduce(alpha[n - 1] * F)
    log_z = float(np.log(z) + np.cumsum(np.log(c))[-1] + np.cumsum(shift)[-1])
    beta = np.empty((n, N))
    beta[n - 1] = F
    Y = X[1:] / c[1:, None]  # Y[i] = X[i+1] beta[i+1] / c[i+1]
    for i in range(n - 2, -1, -1):
        Y[i] *= beta[i + 1]
        beta[i] = np.add.reduce(T.T * Y[i][:, None], axis=0)
    unigram = alpha * beta / z
    bigram = alpha[:-1, :, None] * T * Y[:, None, :] / z
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
            # a row can name the unseen-feature id 0 more than once
            np.add.at(grad.emit[:, tag], ids[i], -1.0)
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


def corpus_tags(sentences, model, masks=None):
    """The paths of ``crf.viterbi_words``, the corpus decode, as tag strings, each under
    ``masks[k]`` (None, a ``ConstraintMask`` or a raw array), checked as ``viterbi`` does."""
    allowed = None if masks is None else [
        crf._allowed_array(m, len(s)) for s, m in zip(sentences, masks, strict=True)]
    return [tagset.words_to_labels(w) for w in crf.viterbi_words(sentences, model, allowed)]


def corpus_probabilities(sentences, model):
    """Every junction's boundary probability, one array per sentence, from one
    ``crf.boundary_probabilities_at`` call over the corpus."""
    counts = [len(s) - 1 for s in sentences]
    rows = np.repeat(np.arange(len(sentences)), counts)
    junctions = [j for n in counts for j in range(n)]
    flat = crf.boundary_probabilities_at(sentences, model, rows, junctions)
    first = np.cumsum([0] + counts)
    return [flat[a:b] for a, b in zip(first[:-1], first[1:])]


# ---------------------------------------------------------------------------
# Tests


def assert_matches_references(log_z, unigram, bigram, Em, shift, model):
    """One row of the core against both references: bitwise, and to 1e-12."""
    n = len(Em)
    weights = (model.trans, model.start, model.end)
    want = ref_scaled_forward_backward(Em, shift, *weights)
    assert log_z == want[0]
    assert np.array_equal(unigram[:n], want[1])
    assert np.array_equal(bigram[: n - 1], want[2])
    assert np.all(unigram[n:] == 0.0)
    assert np.all(bigram[n - 1 :] == 0.0)
    log_ref = ref_forward_backward(Em, *weights)
    assert log_z == pytest.approx(log_ref[0], rel=1e-12)
    np.testing.assert_allclose(unigram[:n], log_ref[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(bigram[: n - 1], log_ref[2], rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_marginals_match_reference_on_mixed_lengths_and_masks(seed):
    rng = np.random.default_rng(seed)
    model = random_model(seed)
    sentences, allowed, emissions = mixed_batch(rng, model)
    E, lengths, shift, spread = crf._emission_batch(
        model, [model.vocab.encode(s) for s in sentences], allowed
    )
    assert crf._in_range(lengths, spread, model.trans, model.start, model.end).all()
    fb = crf._forward_backward(E, lengths, shift, spread, model.trans, model.start, model.end)
    for b, (s, Em) in enumerate(zip(sentences, emissions)):
        row_shift = model.emissions(s).max(axis=1)  # of the unmasked scores
        assert np.array_equal(shift[b, : len(s)], row_shift)
        assert_matches_references(fb.log_z[b], fb.unigram[b], fb.bigram[b], Em, row_shift, model)


def test_boundary_probabilities_match_reference():
    rng = np.random.default_rng(5)
    model = random_model(5, scale=3.0)
    sentences = [oracle.random_sentence(rng, int(n), ALPHABET) for n in rng.integers(2, 15, 40)]
    batched = corpus_probabilities(sentences, model)
    for s, got in zip(sentences, batched):
        Em = model.emissions(s)
        _, _, bi = ref_scaled_forward_backward(
            Em, Em.max(axis=1), model.trans, model.start, model.end
        )
        _, _, log_bi = ref_forward_backward(Em, model.trans, model.start, model.end)
        want = np.zeros(len(s) - 1)
        log_want = np.zeros(len(s) - 1)
        for a, b in BOUNDARY:
            want += bi[:, a, b]
            log_want += log_bi[:, a, b]
        assert np.array_equal(got, want)
        assert np.array_equal(crf.boundary_probabilities(s, model), want)
        np.testing.assert_allclose(got, log_want, rtol=1e-12, atol=0)


def masked_marginals(model, sentence, allowed):
    """log Z and bigram marginals of one sentence under ``allowed`` (None: no mask), by the core."""
    ids = [model.vocab.encode(sentence)]
    fb = crf._forward_backward(
        *crf._emission_batch(model, ids, [allowed]), model.trans, model.start, model.end
    )
    return fb.log_z[0], fb.bigram[0]


@pytest.mark.parametrize("scale", [300.0, 1000.0])
def test_large_weights_match_the_oracle(scale):
    """Weights far beyond the scaled range go through log space, still exact."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        s = oracle.random_sentence(rng, n)
        model = oracle.make_model(rng, [s], scale=scale)
        for allowed in (None, oracle.random_mask(rng, n)):
            mask = None if allowed is None else ConstraintMask(allowed)
            want = oracle.log_partition(model, s, allowed)
            assert crf.log_partition(s, model, mask) == pytest.approx(want, rel=1e-9)
            log_z, bigram = masked_marginals(model, s, allowed)
            assert log_z == pytest.approx(want, rel=1e-9)
            if n > 1:
                want_bigram = oracle.bigram_marginals(model, s, allowed)
                np.testing.assert_allclose(bigram, want_bigram, rtol=1e-9, atol=1e-300)
                if allowed is None:
                    np.testing.assert_allclose(
                        crf.bigram_marginals(s, model), want_bigram, rtol=1e-9, atol=1e-300
                    )


@pytest.mark.parametrize("scale", [1.5, 300.0])
@pytest.mark.parametrize("blocked", [0, 2], ids=["first-position", "last-position"])
def test_raw_mask_without_a_legal_path_raises(scale, blocked):
    # refused as ConstraintMask refuses it, whichever recursion the row would take
    model = random_model(41, scale=scale)
    allowed = np.ones((3, N), dtype=bool)
    allowed[blocked] = [False, True, False, False]  # M cannot start or end a sentence
    _, lengths, _, spread = crf._emission_batch(model, [model.vocab.encode("abc")])
    assert crf._in_range(lengths, spread, model.trans, model.start, model.end)[0] == (scale < 10)
    with pytest.raises(NoLegalPath):
        crf.log_partition("abc", model, allowed)
    with pytest.raises(NoLegalPath, match="^constraint mask admits no legal tag sequence$"):
        crf.partial_nll_loss_and_grad([("abc", allowed)], model)


@pytest.mark.parametrize("scale", [1.5, 300.0])
@pytest.mark.parametrize("dead", ["start", "end"])
def test_model_without_a_legal_path_raises_naming_the_model(scale, dead):
    # a dead prefix divides 0 by 0 in scaled space, a dead end takes log(0)
    model = random_model(41, scale=scale)
    getattr(model, dead)[:] = NEG_INF
    _, lengths, _, spread = crf._emission_batch(model, [model.vocab.encode("abc")])
    assert crf._in_range(lengths, spread, model.trans, model.start, model.end)[0] == (scale < 10)
    message = "^the model admits no legal tag sequence$"
    for decode in (crf.log_partition, crf.viterbi, lambda s, m: crf.viterbi_words([s], m)):
        with pytest.raises(NoLegalPath, match=message):
            decode("abc", model)


def test_rows_in_and_out_of_the_scaled_range_share_a_batch():
    rng = np.random.default_rng(37)
    model = oracle.make_model(rng, [ALPHABET], scale=12.0)
    weights = (model.trans, model.start, model.end)
    lists = [w.tolist() for w in weights]
    # the second batch has rows ending at every position, each masked and unmasked
    for row_lengths in [(1, 7, 2, 6, 3, 5, 4), [n for n in range(1, 10) for _ in range(2)]]:
        sentences = [oracle.random_sentence(rng, n, ALPHABET) for n in row_lengths]
        allowed = [
            oracle.random_mask(rng, len(s)) if k % 2 else None for k, s in enumerate(sentences)
        ]
        ids = [model.vocab.encode(s) for s in sentences]
        E, lengths, shift, spread = crf._emission_batch(model, ids, allowed)
        scaled = crf._in_range(lengths, spread, *weights)
        assert scaled.any() and not scaled.all()
        fb = crf._forward_backward(E, lengths, shift, spread, *weights)
        paths, feasible = crf._viterbi(E, lengths, *weights)
        assert feasible.all()
        for b, (s, a) in enumerate(zip(sentences, allowed)):
            # each row as it comes out alone, and as the oracle has it
            alone = crf._forward_backward(*crf._emission_batch(model, [ids[b]], [a]), *weights)
            n = len(s)
            assert fb.log_z[b] == alone.log_z[0]
            assert np.array_equal(fb.unigram[b, :n], alone.unigram[0])
            assert np.array_equal(fb.bigram[b, : n - 1], alone.bigram[0])
            assert paths[b, :n].tolist() == crf._viterbi_one(E[b, :n].tolist(), *lists)
            assert fb.log_z[b] == pytest.approx(oracle.log_partition(model, s, a), rel=1e-9)
            if n > 1:
                np.testing.assert_allclose(
                    fb.bigram[b, : n - 1], oracle.bigram_marginals(model, s, a),
                    rtol=1e-9, atol=1e-300,
                )


@pytest.mark.parametrize("grid", [None, 0.25])
def test_viterbi_matches_reference_on_mixed_lengths_and_masks(grid):
    rng = np.random.default_rng(7)
    model = random_model(7, grid=grid)
    sentences, allowed, emissions = mixed_batch(rng, model, n_rows=30)
    masks = [None if a is None else ConstraintMask(a) for a in allowed]
    want = [ref_viterbi(Em, model.trans, model.start, model.end) for Em in emissions]
    assert corpus_tags(sentences, model, masks) == want
    assert [crf.viterbi(s, model, m) for s, m in zip(sentences, masks)] == want


def test_viterbi_ties_on_the_all_zero_model():
    model = crf.CrfModel(random_model(0).vocab)  # every weight 0: all legal paths tie
    sentences = [ALPHABET[:n] for n in (4, 1, 2, 3, 6)]
    want = ["BMME", "S", "BE", "BME", "BMMMME"]
    zero = np.zeros((1, N))
    assert [ref_viterbi(np.repeat(zero, len(s), 0), model.trans, model.start, model.end)
            for s in sentences] == want
    assert corpus_tags(sentences, model) == want
    assert [crf.viterbi(s, model) for s in sentences] == want
    # a boundary after character 0 forces S or E there and B or S next
    masks = [mining.build_constraint_mask(s, [0] if len(s) > 1 else []) for s in sentences]
    assert corpus_tags(sentences, model, masks) == ["SBME", "S", "SS", "SBE", "SBMMME"]
    assert [crf.viterbi(s, model, m) for s, m in zip(sentences, masks)] == [
        "SBME", "S", "SS", "SBE", "SBMMME"]


# dyadic weights in {-0.25, 0, 0.25}: exact score ties are frequent
GRID_MODELS = [random_model(seed, grid=0.25) for seed in (19, 23)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_sentence_viterbi_equals_the_batched_core(data):
    model = data.draw(st.sampled_from(GRID_MODELS))
    sentence = data.draw(st.text(alphabet=ALPHABET, min_size=1, max_size=9))
    Em = model.emissions(sentence)
    mask = None
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mask = oracle.random_mask(rng, len(sentence))
        Em = np.where(mask, Em, NEG_INF)
        if data.draw(st.booleans()):
            mask = ConstraintMask(mask)
    want = ref_viterbi(Em, model.trans, model.start, model.end)
    assert crf.viterbi(sentence, model, mask) == want
    assert corpus_tags([sentence], model, [mask]) == [want]


ILLEGAL = {"trans": ~crf.TRANS_LEGAL, "start": ~crf.START_LEGAL, "end": ~crf.END_LEGAL}
N_ILLEGAL = sum(int(where.sum()) for where in ILLEGAL.values())
CLEAN_MODELS = {(seed, scale): random_model(seed, scale=scale, grid=grid)
                for seed, scale, grid in [(29, 1.5, 0.25), (37, 1.5, None), (41, 300.0, None)]}


def with_illegal_entries(model, values):
    """A copy of ``model`` whose illegal trans, start and end entries hold ``values``, in turn."""
    dirty = model.copy()
    values = iter(values)
    for name, where in ILLEGAL.items():
        weights = getattr(dirty, name)
        weights[where] = [next(values) for _ in range(int(where.sum()))]
    return dirty


def inference_outputs(model, sentences, partials, tags):
    """Every inference output of ``model`` over a corpus, as bytes, strings and segmentations.

    ``tags`` are a legal tag sequence per sentence.
    """
    masks = [mining.partial_to_mask(p) for p in partials]
    pairs = [s for s in sentences if len(s) > 1]
    pauses = [[Pause(j, 10.0) for j in p.boundaries] for p in partials]
    rows = [k for k, p in enumerate(partials) for _ in p.boundaries]
    junctions = [j for p in partials for j in p.boundaries]

    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def gradient(loss, g):
        return bits(loss) + b"".join(bits(w) for w in (g.emit, g.trans, g.start, g.end))

    return {
        "viterbi": [crf.viterbi(s, model) for s in sentences],
        "viterbi masked": [crf.viterbi(s, model, m) for s, m in zip(sentences, masks)],
        "viterbi_labels": [crf.viterbi_labels(s, model) for s in sentences],
        "viterbi_labels masked": [crf.viterbi_labels(s, model, m.allowed)
                                  for s, m in zip(sentences, masks)],
        "viterbi_words tags": corpus_tags(sentences, model),
        "viterbi_words tags masked": corpus_tags(sentences, model, masks),
        "segment_corpus": pipeline.segment_corpus(model, sentences),
        "viterbi_words": crf.viterbi_words(sentences, model),
        "complete_annotation": [pipeline.complete_annotation(model, p) for p in partials],
        "complete_corpus": pipeline.complete_corpus(model, partials),
        "log_partition": bits([crf.log_partition(s, model) for s in sentences]),
        "log_partition masked": bits([crf.log_partition(s, model, m)
                                      for s, m in zip(sentences, masks)]),
        "bigram_marginals": [bits(crf.bigram_marginals(s, model)) for s in pairs],
        "boundary_probabilities_at every junction": [
            bits(p) for p in corpus_probabilities(pairs, model)],
        "boundary_probabilities_at": bits(
            crf.boundary_probabilities_at(sentences, model, rows, junctions)),
        "score_pauses": [mining.score_pauses(model, s, ps) for s, ps in zip(sentences, pauses)],
        "score_sequence": bits([crf.score_sequence(s, t, model) for s, t in zip(sentences, tags)]),
        "nll_loss_and_grad": gradient(*crf.nll_loss_and_grad(list(zip(sentences, tags)), model)),
        "partial_nll_loss_and_grad": gradient(
            *crf.partial_nll_loss_and_grad(list(zip(sentences, masks)), model)),
    }


def illegal_entries_model():
    """Model 29 with finite illegal entries, larger than its legal ones."""
    model = random_model(29, grid=0.25)
    model.trans = np.where(crf.TRANS_LEGAL, model.trans, 0.5)
    model.start = np.where(crf.START_LEGAL, model.start, 0.25)
    model.end = np.where(crf.END_LEGAL, model.end, 0.25)
    return model


def test_one_sentence_viterbi_visits_only_legal_successors():
    # the raw arrays' best paths use the finite illegal entries, while every
    # decoder, one sentence or batched, takes only legal transitions
    model = illegal_entries_model()
    rng = np.random.default_rng(29)
    sentences = [oracle.random_sentence(rng, n, ALPHABET) for n in (1, 2, 3, 4, 7, 12)]
    scanned = [ref_viterbi(model.emissions(s), model.trans, model.start, model.end)
               for s in sentences]
    assert not all(tagset.is_legal(t) for t in scanned)
    legal_trans = np.where(crf.TRANS_LEGAL, model.trans, NEG_INF)
    legal_start = np.where(crf.START_LEGAL, model.start, NEG_INF)
    legal_end = np.where(crf.END_LEGAL, model.end, NEG_INF)
    want = [ref_viterbi(model.emissions(s), legal_trans, legal_start, legal_end)
            for s in sentences]
    assert want != scanned
    assert all(tagset.is_legal(t) for t in want)
    assert [crf.viterbi(s, model) for s in sentences] == want
    assert corpus_tags(sentences, model) == want


def test_corpus_decoding_refuses_an_illegal_best_path():
    # the model above, through the pipeline: where the raw arrays' best path is
    # illegal, corpus decoding returns the best legal path's words instead
    model = illegal_entries_model()
    rng = np.random.default_rng(29)
    sentences = [oracle.random_sentence(rng, n, ALPHABET) for n in (1, 2, 3, 4, 7, 12)]
    scanned = [ref_viterbi(model.emissions(s), model.trans, model.start, model.end)
               for s in sentences]
    assert any(not tagset.is_legal(t) for t in scanned)
    legal = [crf.viterbi(s, model) for s in sentences]
    words = [tagset.labels_to_words(t, s) for t, s in zip(legal, sentences)]
    assert pipeline.segment_corpus(model, sentences) == words
    partials = [mining.PartialSentence(s, ()) for s in sentences]
    assert pipeline.complete_corpus(model, partials) == words


@st.composite
def partial_corpora(draw):
    """Partial sentences of 1 to 12 characters, each with up to 3 known boundaries."""
    sentences = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=12), min_size=1, max_size=6))
    return [mining.PartialSentence(s, tuple(draw(st.sets(st.integers(0, len(s) - 2), max_size=3))
                                            if len(s) > 1 else ())) for s in sentences]


# sentences on which the example's model, its finite illegal entries read as they
# were, decoded illegal paths, plus "eeb"
_RNG = np.random.default_rng(29)
FOUND_SENTENCES = [oracle.random_sentence(_RNG, n, ALPHABET) for n in (1, 2, 3, 4, 7, 12)] + ["eeb"]


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(list(CLEAN_MODELS)),
    values=st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(NEG_INF)),
                    min_size=N_ILLEGAL, max_size=N_ILLEGAL),
    partials=partial_corpora(),
    inf_at=st.integers(0, N_ILLEGAL - 1),
)
@example(key=(29, 1.5), values=[0.5] * 8 + [0.25] * 4,
         partials=[mining.PartialSentence(s, ()) for s in FOUND_SENTENCES], inf_at=0)
def test_inference_reads_illegal_entries_as_minus_infinity(key, values, partials, inf_at):
    # whatever a model holds on its illegal entries, finite or -inf, every
    # output is bitwise the clean model's, and every decode is a legal path
    clean = CLEAN_MODELS[key]
    dirty = with_illegal_entries(clean, values)
    sentences = [p.chars for p in partials]
    tags = corpus_tags(sentences, clean)
    want = inference_outputs(clean, sentences, partials, tags)
    got = inference_outputs(dirty, sentences, partials, tags)
    for name in want:
        assert got[name] == want[name], name
    assert all(tagset.is_legal(t) for t in got["viterbi"] + got["viterbi masked"])
    # the one-sentence decoder, which visits only legal successors, against the
    # max-sum reference over the legal entries
    legal_trans = np.where(crf.TRANS_LEGAL, dirty.trans, NEG_INF)
    legal_start = np.where(crf.START_LEGAL, dirty.start, NEG_INF)
    legal_end = np.where(crf.END_LEGAL, dirty.end, NEG_INF)
    assert got["viterbi"] == [ref_viterbi(dirty.emissions(s), legal_trans, legal_start, legal_end)
                              for s in sentences]
    # an illegal path scores -inf, whatever its entries hold
    for s, t in zip(sentences, tags):
        illegal = "M" + t[1:]
        assert crf.score_sequence(s, illegal, dirty) == NEG_INF
        assert crf.score_sequence(s, illegal, clean) == NEG_INF

    # +inf on an illegal entry reads as NaN, refused (not a RuntimeWarning)
    inf_model = with_illegal_entries(
        clean, [math.inf if j == inf_at else v for j, v in enumerate(values)])
    s = max(sentences, key=len) + "ab"
    partial = mining.PartialSentence(s, (0,))
    refusing = [
        lambda: crf.viterbi(s, inf_model),
        lambda: crf.viterbi_labels(s, inf_model),
        lambda: crf.viterbi_words([s], inf_model),
        lambda: pipeline.segment_corpus(inf_model, [s]),
        lambda: pipeline.complete_annotation(inf_model, partial),
        lambda: pipeline.complete_corpus(inf_model, [partial]),
        lambda: crf.log_partition(s, inf_model),
        lambda: crf.bigram_marginals(s, inf_model),
        lambda: corpus_probabilities([s], inf_model),
        lambda: crf.boundary_probabilities_at([s], inf_model, [0], [0]),
        lambda: mining.score_pauses(inf_model, s, [Pause(0, 10.0)]),
        lambda: crf.score_sequence(s, crf.viterbi(s, clean), inf_model),
    ]
    for call in refusing:
        with pytest.raises(NonFiniteWeights, match="not finite"):
            call()


def test_one_sentence_viterbi_raises_as_the_batched_core_does():
    model = random_model(31)
    blocked = np.ones((3, N), dtype=bool)
    blocked[0] = [False, True, False, False]  # a raw mask: no sentence starts with M
    cases = [
        ("abc", blocked, NoLegalPath),
        ("", None, SentenceTooShort),
        ("abc", ConstraintMask(np.ones((2, N), dtype=bool)), LengthMismatch),
        ("abc", np.ones((4, N), dtype=bool), LengthMismatch),
    ]
    for sentence, mask, error in cases:
        with pytest.raises(error):
            crf.viterbi(sentence, model, mask)
        with pytest.raises(error):
            corpus_tags([sentence], model, [mask])


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
    gold = crf._gold_labels([t for _, t in full], [len(s) for s, _ in full])
    items = [(model.vocab.encode(s), labels, None) for (s, _), labels in zip(full, gold)]
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
        free = corpus_tags(shuffled, MODEL)
        masked = corpus_tags(shuffled, MODEL, [masks[k] for k in order])
        probs = corpus_probabilities([s for s in shuffled if len(s) > 1], MODEL)
    finally:
        crf.INFERENCE_BATCH_CHARS = saved

    assert free == [alone_free[k] for k in order]
    assert masked == [alone_masked[k] for k in order]
    want_probs = [alone_probs[k] for k in order if len(sentences[k]) > 1]
    assert len(probs) == len(want_probs)
    assert all(np.array_equal(a, b) for a, b in zip(probs, want_probs))


def test_corpus_entry_points_encode_the_corpus_once(monkeypatch):
    # one encode of the whole corpus, sliced into its many batches
    rng = np.random.default_rng(17)
    sentences = [oracle.random_sentence(rng, int(n), ALPHABET) for n in rng.integers(2, 9, 40)]
    monkeypatch.setattr(crf, "INFERENCE_BATCH_CHARS", 16)
    assert len(list(crf._corpus_batches(sentences))) > 5
    calls = []
    encode_corpus = features.FeatureVocabulary.encode_corpus

    def recorded(self, corpus):
        calls.append(list(corpus))
        return encode_corpus(self, corpus)

    monkeypatch.setattr(features.FeatureVocabulary, "encode_corpus", recorded)
    model = random_model(17)
    tags = corpus_tags(sentences, model)
    assert calls == [sentences]
    calls.clear()
    probs = corpus_probabilities(sentences, model)
    assert calls == [sentences]
    calls.clear()
    at = crf.boundary_probabilities_at(sentences, model, [3, 1, 3], [0, 0, 1])
    assert calls == [[sentences[1], sentences[3]]]
    calls.clear()
    words = crf.viterbi_words(sentences, model)
    assert calls == [sentences]
    assert tags == [crf.viterbi(s, model) for s in sentences]
    assert words == [tagset.labels_to_words(t, s) for s, t in zip(sentences, tags)]
    for s, p in zip(sentences, probs):
        assert np.array_equal(p, crf.boundary_probabilities(s, model))
    assert at.tolist() == [probs[3][0], probs[1][0], probs[3][1]]
