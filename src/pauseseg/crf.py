"""Exact linear-chain CRF inference and training over the BMES tag space.

All dynamic programming runs in log space on float64 arrays, over padded
batches of sentences. Hard constraints are uniform: illegal transitions,
illegal start/end labels and constraint-mask exclusions are -inf score
entries, so a single forward / backward pair serves the partition
function, marginals and both losses, and a single Viterbi serves
(constrained) decoding.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import tagset
from .errors import (
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
from .segments import SegmentedSentence, split_lines

NEG_INF = float("-inf")
N = tagset.N_LABELS

_TABLE = tagset.legal_transitions()
TRANS_LEGAL = _TABLE.legal
START_LEGAL = _TABLE.legal_start
END_LEGAL = _TABLE.legal_end

_BOUNDARY_PAIRS = sorted((int(a), int(b)) for a, b in tagset.boundary_bigrams())


# Stands in for the max of an all -inf slice when shifting log-sum-exp:
# below every finite score the models produce, and exp(-inf - _FLOOR) is 0.
_FLOOR = -1e300


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """``logsumexp`` without silencing log(0); the core's loops do that once."""
    m = np.maximum(np.maximum.reduce(a, axis=axis, keepdims=True), _FLOOR)
    return np.log(np.add.reduce(np.exp(a - m), axis=axis)) + m.squeeze(axis)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-sum-exp of finite or -inf scores; -inf (not NaN) when all are -inf."""
    with np.errstate(divide="ignore"):
        return _lse(a, axis)


# ---------------------------------------------------------------------------
# Model


class CrfModel:
    """Emission feature weights plus transition/start/end weights.

    Illegal transition, start and end entries are exactly -inf and are never
    updated; all other weights are finite floats.
    """

    def __init__(
        self,
        vocab: feat.FeatureVocabulary,
        emit_w: np.ndarray | None = None,
        trans: np.ndarray | None = None,
        start: np.ndarray | None = None,
        end: np.ndarray | None = None,
    ):
        self.vocab = vocab
        self.templates = vocab.templates
        self.emit_w = np.zeros((vocab.size, N)) if emit_w is None else emit_w
        self.trans = np.where(TRANS_LEGAL, 0.0, NEG_INF) if trans is None else trans
        self.start = np.where(START_LEGAL, 0.0, NEG_INF) if start is None else start
        self.end = np.where(END_LEGAL, 0.0, NEG_INF) if end is None else end

    def emissions(self, sentence: str) -> np.ndarray:
        return feat.emission_scores(self.vocab.encode(sentence), self.emit_w)

    def copy(self) -> "CrfModel":
        return CrfModel(
            self.vocab,
            self.emit_w.copy(),
            self.trans.copy(),
            self.start.copy(),
            self.end.copy(),
        )

    # -- persistence --------------------------------------------------------
    # A line-based text format: header, templates, vocabulary, then every
    # finite weight as a 17-significant-digit decimal (which round-trips
    # float64 bitwise). Illegal entries are omitted and rebuilt as -inf.

    FORMAT_HEADER = "pauseseg model format 1"

    def dumps(self) -> str:
        for arr in (self.emit_w, self.trans, self.start, self.end):
            if np.isnan(arr).any():
                raise ValueError("model contains NaN weights")
        lines = [self.FORMAT_HEADER]
        for name, offsets in self.templates:
            lines.append("template " + name + " " + " ".join(str(o) for o in offsets))
        lines.append(f"vocab_size {self.vocab.size}")
        for feature, fid in self.vocab.items():
            lines.append(f"feature {fid} " + json.dumps(feature, ensure_ascii=False))
        for fid in range(self.vocab.size):
            ws = " ".join(f"{w:.17g}" for w in self.emit_w[fid])
            lines.append(f"emit {fid} {ws}")
        for p in range(N):
            for q in range(N):
                if TRANS_LEGAL[p, q]:
                    lines.append(
                        f"trans {tagset.LABEL_CHARS[p]} {tagset.LABEL_CHARS[q]} "
                        f"{self.trans[p, q]:.17g}"
                    )
        for l in range(N):
            if START_LEGAL[l]:
                lines.append(f"start {tagset.LABEL_CHARS[l]} {self.start[l]:.17g}")
        for l in range(N):
            if END_LEGAL[l]:
                lines.append(f"end {tagset.LABEL_CHARS[l]} {self.end[l]:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CrfModel":
        lines = split_lines(text)
        if not lines or lines[0] != cls.FORMAT_HEADER:
            raise ParseError("not a pauseseg model file (bad header)", line=1)
        templates: list[tuple[str, tuple[int, ...]]] = []
        items: list[tuple[str, int]] = []
        item_lines: list[int] = []
        vocab_size = vocab_size_line = None
        emit_rows: dict[int, list[float]] = {}
        trans = np.where(TRANS_LEGAL, np.nan, NEG_INF)
        start = np.where(START_LEGAL, np.nan, NEG_INF)
        end = np.where(END_LEGAL, np.nan, NEG_INF)
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            kind, _, rest = line.partition(" ")
            try:
                if kind == "template":
                    parts = rest.split()
                    templates.append(feat.check_template(parts[0], [int(x) for x in parts[1:]]))
                elif kind == "vocab_size":
                    vocab_size, vocab_size_line = int(rest), lineno
                elif kind == "feature":
                    fid_str, _, payload = rest.partition(" ")
                    items.append((json.loads(payload), int(fid_str)))
                    item_lines.append(lineno)
                elif kind == "emit":
                    parts = rest.split()
                    emit_rows[int(parts[0])] = [float(x) for x in parts[1:]]
                elif kind == "trans":
                    p, q, w = rest.split()
                    trans[tagset.LABEL_CHARS.index(p), tagset.LABEL_CHARS.index(q)] = float(w)
                elif kind == "start":
                    l, w = rest.split()
                    start[tagset.LABEL_CHARS.index(l)] = float(w)
                elif kind == "end":
                    l, w = rest.split()
                    end[tagset.LABEL_CHARS.index(l)] = float(w)
                else:
                    raise ValueError(f"unknown record {kind!r}")
            except (ValueError, IndexError, json.JSONDecodeError) as exc:
                raise ParseError(f"bad model line: {exc}", line=lineno) from exc
        if vocab_size is None:
            raise ParseError("missing vocab_size record")
        try:
            vocab = feat.FeatureVocabulary.restore(tuple(templates), items, vocab_size)
        except feat.BadFeature as exc:
            raise ParseError(f"bad feature: {exc}", line=item_lines[exc.index]) from exc
        except ValueError as exc:
            raise ParseError(f"bad vocabulary: {exc}", line=vocab_size_line) from exc
        emit_w = np.zeros((vocab_size, N))
        for fid, row in emit_rows.items():
            if not 0 <= fid < vocab_size or len(row) != N:
                raise ParseError(f"bad emission row for feature {fid}")
            emit_w[fid] = row
        if len(emit_rows) != vocab_size:
            raise ParseError(
                f"expected {vocab_size} emission rows, found {len(emit_rows)}"
            )
        for arr in (trans, start, end):
            if np.isnan(arr).any():
                raise ParseError("missing transition/start/end weights")
        return cls(vocab, emit_w, trans, start, end)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "CrfModel":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


# ---------------------------------------------------------------------------
# Constraint masks

_LABEL_BITS = 1 << np.arange(N)
_START_BITS = int(_LABEL_BITS[START_LEGAL].sum())
_END_BITS = int(_LABEL_BITS[END_LEGAL].sum())
# _SUCCESSORS[s]: the labels a legal transition reaches from label set s
_SUCCESSORS = [
    int(_LABEL_BITS[TRANS_LEGAL[_LABEL_BITS & s > 0].any(axis=0)].sum()) for s in range(1 << N)
]


class ConstraintMask:
    """Per-position allowed-label sets encoding a partial annotation.

    Construction verifies that at least one legal tag sequence survives the
    mask; everything downstream may then assume a path exists.
    """

    def __init__(self, allowed: np.ndarray):
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.ndim != 2 or allowed.shape[1] != N or allowed.shape[0] == 0:
            raise ValueError(f"mask must be [n, {N}], got {allowed.shape}")
        self.allowed = allowed
        if not self._has_legal_path():
            raise NoLegalPath("constraint mask admits no legal tag sequence")

    def __len__(self) -> int:
        return len(self.allowed)

    def _has_legal_path(self) -> bool:
        # label sets as 4-bit ints: bit l is set when label l is allowed/reachable
        rows = (self.allowed @ _LABEL_BITS).tolist()
        reach = _START_BITS & rows[0]
        for bits in rows[1:]:
            reach = _SUCCESSORS[reach] & bits
        return bool(reach & _END_BITS)

    @classmethod
    def all_allowed(cls, n: int) -> "ConstraintMask":
        return cls(np.ones((n, N), dtype=bool))


def _allowed_array(mask, n: int) -> np.ndarray | None:
    if mask is None:
        return None
    allowed = mask.allowed if isinstance(mask, ConstraintMask) else np.asarray(mask, dtype=bool)
    if allowed.shape != (n, N):
        raise LengthMismatch(f"mask shape {allowed.shape} for sentence of length {n}")
    return allowed


# ---------------------------------------------------------------------------
# Batched inference core
#
# One forward, one backward and one Viterbi recursion serve every caller.
# They take a batch of sentences padded to ``[B, L, 4]``: row b holds the
# emissions of a sentence of ``lengths[b]`` characters followed by -inf
# padding, and constraint-mask exclusions are -inf entries as well. The
# recursions run on a ``[L, 4, B]`` copy, so that each step is a few
# vectorised operations over contiguous per-label rows of the batch. No
# row's arithmetic depends on the other rows, so a sentence gets bitwise
# the same result alone (B = 1) or in any batch.
#
# alpha[i, l, b]: log-sum over prefixes ending at i with label l, including
# the start weight and emissions up to i. beta[i, l, b]: log-sum over
# suffixes from i with label l, excluding emission i, including the end
# weight. Marginals are exp(alpha + beta - log Z); on hard-excluded entries
# and on padding the -inf scores make them exactly 0.

# Characters per batch when a corpus goes through the core.
INFERENCE_BATCH_CHARS = 2048


@dataclass
class _FB:
    log_z: np.ndarray  # [B]
    unigram: np.ndarray  # [B, L, 4]
    bigram: np.ndarray  # [B, L-1, 4, 4]


def _label_major(E: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(E.transpose(1, 2, 0))


def _row_ends(lengths: np.ndarray, L: int) -> dict[int, np.ndarray]:
    """Rows that end before position L-1, grouped by their last position."""
    if lengths.min() == L:
        return {}
    last = lengths - 1
    return {int(i): np.flatnonzero(last == i) for i in np.unique(last[last < L - 1])}


def _forward(Et, lengths, trans, start, end):
    """alpha [L, 4, B] and log Z [B] of a label-major batch."""
    L, _, B = Et.shape
    alpha = np.empty_like(Et)
    alpha[0] = start[:, None] + Et[0]
    trans_pq = trans[:, :, None]
    with np.errstate(divide="ignore"):
        for i in range(1, L):
            alpha[i] = Et[i] + _lse(alpha[i - 1][:, None, :] + trans_pq, 0)
        log_z = _lse(alpha[lengths - 1, :, np.arange(B)].T + end[:, None], 0)
    return alpha, log_z


def _backward(Et, lengths, trans, end):
    """beta [L, 4, B] of a label-major batch."""
    L = len(Et)
    ends = _row_ends(lengths, L)
    beta = np.empty_like(Et)
    beta[L - 1] = end[:, None]
    trans_qp = trans.T[:, :, None]
    with np.errstate(divide="ignore"):
        for i in range(L - 2, -1, -1):
            beta[i] = _lse(trans_qp + (Et[i + 1] + beta[i + 1])[:, None, :], 0)
            rows = ends.get(i)
            if rows is not None:
                beta[i][:, rows] = end[:, None]
    return beta


def _forward_backward(E, lengths, trans, start, end) -> _FB:
    """log Z and marginals of a padded batch; rows without a path get log Z = -inf."""
    Et = _label_major(E)
    alpha, log_z = _forward(Et, lengths, trans, start, end)
    beta = _backward(Et, lengths, trans, end)
    # in place, so that one [L-1, 4, 4, B] array is alive at a time
    unigram = alpha + beta
    unigram -= log_z
    np.exp(unigram, out=unigram)
    bigram = alpha[:-1, :, None, :] + trans[:, :, None]
    bigram += (Et[1:] + beta[1:])[:, None, :, :]
    bigram -= log_z
    np.exp(bigram, out=bigram)
    return _FB(log_z, unigram.transpose(2, 0, 1), bigram.transpose(3, 0, 1, 2))


def _viterbi(E, lengths, trans, start, end) -> tuple[list[list[int]], np.ndarray]:
    """Best label sequence of each row, and whether the row has a legal path.

    A backward max-sum gives delta[i, l, b], the best suffix score from
    position i with label l. A greedy forward pass then picks each label
    with argmax, which takes the first (lowest-id) maximum: ties go to the
    lower label id at the earliest position where tied paths differ.
    """
    Et = _label_major(E)
    L, _, B = Et.shape
    ends = _row_ends(lengths, L)
    delta = np.empty_like(Et)
    delta[L - 1] = Et[L - 1] + end[:, None]
    trans_qp = trans.T[:, :, None]
    for i in range(L - 2, -1, -1):
        delta[i] = Et[i] + np.maximum.reduce(trans_qp + delta[i + 1][:, None, :], axis=0)
        rows = ends.get(i)
        if rows is not None:
            delta[i][:, rows] = Et[i][:, rows] + end[:, None]
    first = start[:, None] + delta[0]
    # after label p at position i-1, the best label at i: nxt[i-1][p][b]
    nxt = np.argmax(trans[None, :, :, None] + delta[1:, None, :, :], axis=2).tolist()
    paths = []
    for b, t in enumerate(np.argmax(first, axis=0).tolist()):
        path = [t]
        for step in nxt[: lengths[b] - 1]:
            t = step[t][b]
            path.append(t)
        paths.append(path)
    return paths, np.max(first, axis=0) > NEG_INF


def _emission_batch(model: "CrfModel", ids, allowed=None):
    """Padded [B, L, 4] emissions of encoded sentences, and their lengths.

    Row b is -inf on padding and, when ``allowed[b]`` is given, wherever
    it is False.
    """
    lengths = np.array([len(x) for x in ids])
    scores = feat.emission_scores(np.concatenate(ids), model.emit_w)
    E = np.full((len(ids), int(lengths.max()), N), NEG_INF)
    s = 0
    for b, n in enumerate(lengths.tolist()):
        where = True if allowed is None or allowed[b] is None else allowed[b]
        np.copyto(E[b, :n], scores[s : s + n], where=where)
        s += n
    return E, lengths


def _batches(order, lengths, budget: int):
    """Consecutive runs of ``order`` holding at least ``budget`` characters each."""
    batch: list[int] = []
    chars = 0
    for idx in order:
        batch.append(idx)
        chars += lengths[idx]
        if chars >= budget:
            yield batch
            batch, chars = [], 0
    if batch:
        yield batch


def _corpus_batches(sentences):
    """Index batches over a corpus, sorted by length so that little is padding."""
    lengths = [len(s) for s in sentences]
    order = sorted(range(len(sentences)), key=lengths.__getitem__)
    return _batches(order, lengths, INFERENCE_BATCH_CHARS)


def _require_paths(log_z: np.ndarray, what: str) -> None:
    if (log_z == NEG_INF).any():
        raise NoLegalPath(f"{what} admits no legal tag sequence")


def _boundary_mass(bigram: np.ndarray) -> np.ndarray:
    """Sum of the boundary bigrams' marginals, over the last two axes."""
    out = np.zeros(bigram.shape[:-2])
    for a, b in _BOUNDARY_PAIRS:
        out += bigram[..., a, b]
    return out


# ---------------------------------------------------------------------------
# Inference operations


def _path_score(E, t, trans, start, end) -> float:
    s = start[t[0]] + E[0, t[0]]
    for i in range(1, len(t)):
        s = s + trans[t[i - 1], t[i]] + E[i, t[i]]
    return float(s + end[t[-1]])


def score_sequence(sentence: str, tags, model: CrfModel) -> float:
    """Unnormalized path score; -inf iff any start/transition/end is illegal."""
    t = tagset.parse_tags(tags)
    if len(t) != len(sentence):
        raise LengthMismatch(f"{len(t)} tags for {len(sentence)} characters")
    if not t:
        raise SentenceTooShort("empty sentence")
    return _path_score(model.emissions(sentence), t, model.trans, model.start, model.end)


def log_partition(sentence: str, model: CrfModel, mask=None) -> float:
    """log of the summed exp-scores of all legal sequences (respecting mask)."""
    if not sentence:
        raise SentenceTooShort("empty sentence")
    allowed = _allowed_array(mask, len(sentence))
    E, lengths = _emission_batch(model, [model.vocab.encode(sentence)], [allowed])
    _, log_z = _forward(_label_major(E), lengths, model.trans, model.start, model.end)
    _require_paths(log_z, "constraint mask")
    return float(log_z[0])


def _bigram_batch(ids, model: CrfModel) -> tuple[np.ndarray, np.ndarray]:
    """Bigram marginals [B, L-1, 4, 4] and lengths of encoded sentences of 2+ characters."""
    for x in ids:
        if len(x) < 2:
            raise SentenceTooShort("bigram marginals need at least 2 characters")
    E, lengths = _emission_batch(model, ids)
    fb = _forward_backward(E, lengths, model.trans, model.start, model.end)
    _require_paths(fb.log_z, "the model")
    return fb.bigram, lengths


def bigram_marginals(sentence: str, model: CrfModel) -> np.ndarray:
    """p(l, l' | junction i) as a [n-1, 4, 4] tensor; illegal bigrams are 0."""
    bigram, _ = _bigram_batch([model.vocab.encode(sentence)], model)
    return bigram[0]


def boundary_probabilities(sentence: str, model: CrfModel) -> np.ndarray:
    """Boundary probability at every junction, shape [n-1]."""
    return _boundary_mass(bigram_marginals(sentence, model))


def boundary_probabilities_batch(sentences, model: CrfModel) -> list[np.ndarray]:
    """``boundary_probabilities`` of every sentence, encoded and computed batch by batch."""
    out: list[np.ndarray] = [None] * len(sentences)  # type: ignore[list-item]
    for batch in _corpus_batches(sentences):
        ids = model.vocab.encode_corpus([sentences[k] for k in batch])
        bigram, lengths = _bigram_batch(ids, model)
        mass = _boundary_mass(bigram)
        for k, row, n in zip(batch, mass, lengths):
            out[k] = row[: n - 1]
    return out


def boundary_probability(sentence: str, model: CrfModel, i: int) -> float:
    """Probability of a word boundary between characters i and i+1."""
    if not 0 <= i < len(sentence) - 1:
        raise IndexOutOfRange(f"junction {i} outside sentence of length {len(sentence)}")
    return float(boundary_probabilities(sentence, model)[i])


def _viterbi_strings(ids, model: CrfModel, allowed=None) -> list[str]:
    """Tag strings of one batch of encoded sentences."""
    for x in ids:
        if not len(x):
            raise SentenceTooShort("empty sentence")
    E, lengths = _emission_batch(model, ids, allowed)
    paths, feasible = _viterbi(E, lengths, model.trans, model.start, model.end)
    if not feasible.all():
        raise NoLegalPath("constraint mask admits no legal tag sequence")
    return [tagset.tags_to_str(path) for path in paths]


def viterbi(sentence: str, model: CrfModel, mask=None) -> str:
    """Highest-scoring legal sequence respecting ``mask``.

    Ties are broken toward the lower label id (B<M<E<S) at the earliest
    position where tied paths differ, which makes decoding deterministic.
    """
    allowed = _allowed_array(mask, len(sentence))
    return _viterbi_strings([model.vocab.encode(sentence)], model, [allowed])[0]


def _viterbi_corpus(corpus, model: CrfModel, allowed=None, encode=None) -> list[str]:
    """Tag strings of a corpus decoded in length-sorted batches.

    The corpus holds encoded sentences, or sentences that ``encode`` turns
    into a batch's ids as that batch is decoded.
    """
    out: list[str] = [""] * len(corpus)
    for batch in _corpus_batches(corpus):
        masks = None if allowed is None else [allowed[k] for k in batch]
        ids = [corpus[k] for k in batch]
        decoded = _viterbi_strings(ids if encode is None else encode(ids), model, masks)
        for k, tags in zip(batch, decoded):
            out[k] = tags
    return out


def viterbi_batch(sentences, model: CrfModel, masks=None) -> list[str]:
    """``viterbi`` of every sentence (under ``masks[k]`` when given), in batches."""
    allowed = None
    if masks is not None:
        allowed = [_allowed_array(masks[k], len(s)) for k, s in enumerate(sentences)]
    return _viterbi_corpus(sentences, model, allowed, model.vocab.encode_corpus)


# ---------------------------------------------------------------------------
# Losses and gradients


@dataclass
class Gradient:
    """Gradient arrays shaped like the model parameters (0 on illegal entries)."""

    emit: np.ndarray
    trans: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def zeros(cls, model: CrfModel) -> "Gradient":
        return cls(
            np.zeros_like(model.emit_w),
            np.zeros((N, N)),
            np.zeros(N),
            np.zeros(N),
        )


@dataclass
class _Counts:
    """Expected minus observed counts of a batch, emissions kept per position.

    Row c of ``coef`` counts once for every feature in row c of ``ids``; the
    transition, start and end counts are dense.
    """

    ids: np.ndarray  # [C, n_templates] feature ids
    coef: np.ndarray  # [C, 4]
    trans: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def scatter(self, emit: np.ndarray, factor: float = 1.0) -> None:
        """Add ``factor`` times the emission counts into the rows of ``emit`` they touch."""
        flat = self.ids.ravel()
        per_row = self.ids.shape[1]
        for label in range(N):
            np.add.at(emit[:, label], flat, np.repeat(factor * self.coef[:, label], per_row))


def _gradient(model: CrfModel, counts: _Counts) -> Gradient:
    emit = np.zeros_like(model.emit_w)
    counts.scatter(emit)
    return Gradient(emit, counts.trans, counts.start, counts.end)


# ASCII code -> label id, -1 where the character is not a label
_LABEL_OF_CODE = np.full(128, -1, dtype=np.intp)
_LABEL_OF_CODE[[ord(c) for c in tagset.LABEL_CHARS]] = np.arange(N)


def _prepare_full(ids: np.ndarray, tags):
    """(feature ids, gold labels, None) after checking the gold sequence."""
    if isinstance(tags, str):
        # a non-ASCII character becomes "?", which is no label either
        gold = _LABEL_OF_CODE[np.frombuffer(tags.encode("ascii", "replace"), dtype=np.uint8)]
        if (gold < 0).any():
            raise IllegalTagSequence(f"unknown label character in {tags!r}")
    else:
        gold = np.array(tagset.parse_tags(tags), dtype=np.intp)
    if len(gold) != len(ids):
        raise LengthMismatch(f"{len(gold)} tags for {len(ids)} characters")
    if not (
        len(gold)
        and START_LEGAL[gold[0]]
        and END_LEGAL[gold[-1]]
        and TRANS_LEGAL[gold[:-1], gold[1:]].all()
    ):
        raise IllegalTagSequence(f"illegal gold sequence {tagset.tags_to_str(gold)!r}")
    return ids, gold, None


def _prepare_partial(ids: np.ndarray, mask):
    """(feature ids, None, allowed labels) for a constraint-mask example."""
    return ids, None, _allowed_array(mask, len(ids))


def _loss_and_grad(model: CrfModel, items, emit_scale: float = 1.0) -> tuple[float, _Counts]:
    """Summed loss of prepared examples, and their expected minus observed counts.

    The emission weights are ``emit_scale * model.emit_w``. One
    forward-backward covers the batch: the unconstrained pass of every
    example, then the constrained pass of each partial example. A full
    example contributes log Z minus its gold path score, a partial one
    log Z minus its constrained log Z.
    """
    B = len(items)
    part = np.array([b for b, it in enumerate(items) if it[2] is not None], dtype=np.intp)
    rows = [it[0] for it in items] + [items[b][0] for b in part]
    E, lengths = _emission_batch(model, rows, [None] * B + [items[b][2] for b in part])
    E *= emit_scale
    fb = _forward_backward(E, lengths, model.trans, model.start, model.end)
    lengths = lengths[:B]
    ids = np.concatenate(rows[:B])
    row = np.repeat(np.arange(B), lengths)
    col = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    unigram, bigram = fb.unigram[:B], fb.bigram[:B]
    # subtract marginals before scattering: when a mask excludes nothing
    # the difference is exactly zero, so the update is too
    unigram[part] -= fb.unigram[B:]
    bigram[part] -= fb.bigram[B:]
    loss = float(np.sum(fb.log_z[part] - fb.log_z[B:]))

    full = [b for b, it in enumerate(items) if it[1] is not None]
    if full:
        on_full = np.isin(row, full)
        frow, fcol = row[on_full], col[on_full]
        gold = np.concatenate([items[b][1] for b in full])
        first, last = fcol == 0, np.append(fcol[1:] == 0, True)
        step = np.flatnonzero(~first)  # positions with a gold transition into them
        prev, cur = gold[step - 1], gold[step]
        loss += float(
            np.sum(fb.log_z[full])
            - E[frow, fcol, gold].sum()
            - model.trans[prev, cur].sum()
            - model.start[gold[first]].sum()
            - model.end[gold[last]].sum()
        )
        unigram[frow, fcol, gold] -= 1.0
        bigram[frow[step], fcol[step] - 1, prev, cur] -= 1.0

    return loss, _Counts(
        ids,
        unigram[row, col],
        bigram.sum(axis=(0, 1)),
        unigram[:, 0].sum(axis=0),
        unigram[np.arange(B), lengths - 1].sum(axis=0),
    )


def _batch_loss_and_grad(model: CrfModel, items) -> tuple[float, Gradient]:
    if not items:
        return 0.0, Gradient.zeros(model)
    loss, counts = _loss_and_grad(model, items)
    return loss, _gradient(model, counts)


def nll_loss_and_grad(batch, model: CrfModel) -> tuple[float, Gradient]:
    """Negative log-likelihood of gold sequences, summed over the batch.

    The gradient is expected feature counts minus gold counts, covering
    emissions, transitions and start/end weights.
    """
    items = [_prepare_full(model.vocab.encode(sentence), tags) for sentence, tags in batch]
    return _batch_loss_and_grad(model, items)


def partial_nll_loss_and_grad(batch, model: CrfModel) -> tuple[float, Gradient]:
    """Marginalized loss log Z - log Z_constrained, summed over the batch.

    Minimizing it pushes probability mass onto the sequences a constraint
    mask allows; the gradient is (full - constrained) expected counts.
    """
    items = [_prepare_partial(model.vocab.encode(sentence), mask) for sentence, mask in batch]
    return _batch_loss_and_grad(model, items)


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig:
    """Optimizer settings for ``train``."""

    epochs: int = 10
    learning_rate: float = 0.1
    l2: float = 1e-5
    batch_chars: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")


@dataclass(frozen=True)
class FullExample:
    sentence: str
    tags: str


class PartialExample:
    """A sentence whose annotation is a constraint mask."""

    def __init__(self, sentence: str, mask: ConstraintMask):
        if len(mask) != len(sentence):
            raise LengthMismatch(f"mask of length {len(mask)} for {len(sentence)} characters")
        self.sentence = sentence
        self.mask = mask


def _dev_f1(model: CrfModel, dev: list[SegmentedSentence], dev_ids) -> float:
    from .evaluate import prf  # local import: evaluate does not import crf

    preds = [
        tagset.labels_to_words(tags, s.chars)
        for tags, s in zip(_viterbi_corpus(dev_ids, model), dev)
    ]
    return prf(dev, preds).f1


def _finite(model: CrfModel) -> bool:
    return bool(
        np.isfinite(model.emit_w).all()
        and np.isfinite(model.trans[TRANS_LEGAL]).all()
        and np.isfinite(model.start[START_LEGAL]).all()
        and np.isfinite(model.end[END_LEGAL]).all()
    )


def train(
    examples,
    config: TrainConfig,
    dev: list[SegmentedSentence] | None = None,
) -> CrfModel:
    """Mini-batch gradient descent on full and/or partial examples.

    Builds a fresh vocabulary from the training sentences, then optimizes
    with a fixed learning rate and per-update L2 decay. Returns the epoch
    with the best dev F1 when ``dev`` is given, otherwise the final epoch.
    Deterministic for a fixed seed. Raises ``TrainingDiverged`` when an
    epoch leaves a weight infinite or NaN.

    The L2 decay of the emission weights is lazy: within an epoch they are
    ``scale * model.emit_w``, each update multiplies ``scale`` by
    ``1 - learning_rate * l2`` and writes only the rows of the features in
    the batch, so an update costs the batch's size, not the vocabulary's.
    The scale is folded into the weights at the end of every epoch, and
    whenever it falls to 1e-100 or below. This is the dense update
    ``w - learning_rate * (g / B + l2 * w)`` with the operations in another
    order, so weights differ from a dense update's in their low-order bits;
    reruns with one seed stay bitwise identical.
    """
    examples = list(examples)
    if not examples:
        raise EmptyDataset("no training sentences")

    vocab = feat.FeatureVocabulary()
    prepared = [
        _prepare_full(ids, ex.tags)
        if isinstance(ex, FullExample)
        else _prepare_partial(ids, ex.mask)
        for ex, ids in zip(examples, vocab.add_corpus([ex.sentence for ex in examples]))
    ]
    vocab.freeze()
    model = CrfModel(vocab)
    lengths = [len(ex.sentence) for ex in examples]
    dev_ids = vocab.encode_corpus([s.chars for s in dev]) if dev else None

    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    best: CrfModel | None = None
    best_f1 = -1.0
    lr = config.learning_rate
    decay = 1.0 - lr * config.l2
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        scale = 1.0
        # a diverging run overflows before the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in _batches(order, lengths, config.batch_chars):
                _, counts = _loss_and_grad(model, [prepared[idx] for idx in batch], scale)
                inv_b = 1.0 / len(batch)
                scale *= decay
                # fold the scale in before it underflows, or once decay <= 0 has
                # taken it to 0 or below
                if not scale > 1e-100:
                    model.emit_w *= scale
                    scale = 1.0
                counts.scatter(model.emit_w, -lr * inv_b / scale)
                model.trans[TRANS_LEGAL] -= lr * (
                    inv_b * counts.trans[TRANS_LEGAL] + config.l2 * model.trans[TRANS_LEGAL]
                )
                model.start[START_LEGAL] -= lr * (
                    inv_b * counts.start[START_LEGAL] + config.l2 * model.start[START_LEGAL]
                )
                model.end[END_LEGAL] -= lr * (
                    inv_b * counts.end[END_LEGAL] + config.l2 * model.end[END_LEGAL]
                )
            model.emit_w *= scale
        if not _finite(model):
            raise TrainingDiverged(
                f"weights became infinite or NaN in epoch {epoch} of {config.epochs}"
                f" (learning rate {lr:g})"
            )
        if dev:
            f1 = _dev_f1(model, dev, dev_ids)
            if f1 > best_f1:
                best_f1 = f1
                best = model.copy()
    return best if best is not None else model
