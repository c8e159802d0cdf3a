"""Brute-force reference implementations for CRF quantities.

Everything here enumerates all legal tag sequences outright (4^n paths at
most, so n stays small) and computes scores, the partition function,
marginals and the argmax path directly from the definitions. The real
dynamic programs are tested against these, never the other way round.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from pauseseg import crf, features, tagset

TABLE = tagset.legal_transitions()
BOUNDARY = sorted((int(a), int(b)) for a, b in tagset.boundary_bigrams())
N = tagset.N_LABELS


@functools.lru_cache(maxsize=None)
def _legal_sequences(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for t in itertools.product(range(N), repeat=n):
        if not TABLE.legal_start[t[0]] or not TABLE.legal_end[t[-1]]:
            continue
        if any(not TABLE.legal[t[i]][t[i + 1]] for i in range(n - 1)):
            continue
        out.append(t)
    return tuple(out)


def legal_sequences(n: int, allowed: np.ndarray | None = None):
    """All legal tag tuples of length n, in lexicographic order."""
    seqs = _legal_sequences(n)
    if allowed is None:
        return list(seqs)
    return [t for t in seqs if all(allowed[i][t[i]] for i in range(n))]


def path_score(model: crf.CrfModel, sentence: str, t, E=None) -> float:
    """The score of path ``t``; ``E``, when given, is ``model.emissions(sentence)``.

    Callers that score many paths pass the table computed once per call of
    their own: the weights may change between calls (``finite_difference_grad``).
    """
    if E is None:
        E = model.emissions(sentence)
    s = model.start[t[0]] + E[0, t[0]]
    for i in range(1, len(t)):
        s += model.trans[t[i - 1], t[i]] + E[i, t[i]]
    return float(s + model.end[t[-1]])


def log_partition(model: crf.CrfModel, sentence: str, allowed=None) -> float:
    E = model.emissions(sentence)
    scores = [
        path_score(model, sentence, t, E)
        for t in legal_sequences(len(sentence), allowed)
    ]
    scores = [s for s in scores if s != float("-inf")]
    if not scores:
        return float("-inf")
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def bigram_marginals(model: crf.CrfModel, sentence: str, allowed=None) -> np.ndarray:
    n = len(sentence)
    log_z = log_partition(model, sentence, allowed)
    E = model.emissions(sentence)
    out = np.zeros((n - 1, N, N))
    for t in legal_sequences(n, allowed):
        p = math.exp(path_score(model, sentence, t, E) - log_z)
        for i in range(n - 1):
            out[i, t[i], t[i + 1]] += p
    return out


def boundary_probability(model: crf.CrfModel, sentence: str, i: int) -> float:
    marg = bigram_marginals(model, sentence)
    return float(sum(marg[i, a, b] for a, b in BOUNDARY))


def viterbi(model: crf.CrfModel, sentence: str, allowed=None):
    """Max-score path; ties go to the lexicographically smallest label ids.

    legal_sequences yields tuples in lexicographic order, so the first
    sequence attaining the maximum is the tie-break winner.
    """
    E = model.emissions(sentence)
    best_t, best_s = None, float("-inf")
    for t in legal_sequences(len(sentence), allowed):
        s = path_score(model, sentence, t, E)
        if s > best_s:
            best_t, best_s = t, s
    return best_t, best_s


# ---------------------------------------------------------------------------
# Random model construction


def make_model(
    rng: np.random.Generator,
    sentences,
    scale: float = 1.0,
    grid: float | None = None,
) -> crf.CrfModel:
    """A model with random weights over the given sentences' features.

    With ``grid`` set, every weight is an integer multiple of ``grid``;
    dyadic grids (0.25, 0.125) make path scores exact in float64, so score
    ties are exact and tie-breaking becomes observable.
    """
    vocab = features.FeatureVocabulary()
    for s in sentences:
        vocab.add_sentence(s)
    vocab.freeze()
    model = crf.CrfModel(vocab)

    def draw(shape):
        if grid is not None:
            # few distinct values keep exact path-score collisions frequent
            return rng.integers(-1, 2, size=shape).astype(float) * grid
        return rng.normal(0.0, scale, size=shape)

    model.emit_w[:] = draw(model.emit_w.shape)
    model.trans[TABLE.legal] = draw(int(TABLE.legal.sum()))
    model.start[TABLE.legal_start] = draw(int(TABLE.legal_start.sum()))
    model.end[TABLE.legal_end] = draw(int(TABLE.legal_end.sum()))
    return model


def random_sentence(rng: np.random.Generator, n: int, alphabet: str = "abcdef") -> str:
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))


def random_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random per-position allowed-set that still admits a legal path.

    Position sets are drawn nonempty at random; if the combination blocks
    every legal sequence, loosen random positions until one survives.
    """
    allowed = rng.random((n, N)) < 0.7
    for i in range(n):
        if not allowed[i].any():
            allowed[i, rng.integers(0, N)] = True
    while not legal_sequences(n, allowed):
        allowed[rng.integers(0, n)] = True
    return allowed


def finite_difference_grad(loss_fn, model: crf.CrfModel, h: float = 1e-5):
    """Central finite differences of ``loss_fn(model)`` in every legal weight."""
    g = crf.Gradient.zeros(model)

    def probe(arr, idx):
        orig = arr[idx]
        arr[idx] = orig + h
        up = loss_fn(model)
        arr[idx] = orig - h
        down = loss_fn(model)
        arr[idx] = orig
        return (up - down) / (2 * h)

    for fid in range(model.emit_w.shape[0]):
        for l in range(N):
            g.emit[fid, l] = probe(model.emit_w, (fid, l))
    for p in range(N):
        for q in range(N):
            if TABLE.legal[p, q]:
                g.trans[p, q] = probe(model.trans, (p, q))
    for l in range(N):
        if TABLE.legal_start[l]:
            g.start[l] = probe(model.start, (l,))
        if TABLE.legal_end[l]:
            g.end[l] = probe(model.end, (l,))
    return g
