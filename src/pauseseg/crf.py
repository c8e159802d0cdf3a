"""Exact linear-chain CRF inference and training over the BMES tag space.

Dynamic programming runs on float64 arrays, over padded batches of
sentences. Hard constraints are uniform: illegal transitions, illegal
start/end labels and constraint-mask exclusions are -inf score entries
(0 once exponentiated), so a single forward / backward pair serves the
partition function, marginals and both losses, and a single Viterbi
recursion serves (constrained) decoding: over batches for corpora, and on
Python floats for one sentence. Forward-backward runs in scaled
probability space, and in log space for a sentence whose weights span
too wide a range for that; batched Viterbi is the log-space backward with max.

One rule holds for every model, read from a file or changed in memory:
inference reads illegal entries as -inf; a NaN or +inf anywhere is refused
(``NonFiniteWeights``). Every operation reads the transition, start and end
weights through ``_inference_weights``, a view computed once per weight
state: it is keyed on the weights' content, not on the model object, so an
edit in place is seen by the next call.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import logging
import math
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

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
    NonFiniteWeights,
    ParseError,
    SentenceTooShort,
    TrainingDiverged,
)
from .segments import SegmentedSentence, read_text, split_lines, write_text

log = logging.getLogger(__name__)

NEG_INF = float("-inf")
N = tagset.N_LABELS

_TABLE = tagset.legal_transitions()
TRANS_LEGAL = _TABLE.legal
START_LEGAL = _TABLE.legal_start
END_LEGAL = _TABLE.legal_end

_BOUNDARY_PAIRS = sorted((int(a), int(b)) for a, b in tagset.boundary_bigrams())

# 0 on the legal entries of trans, start and end, -inf on the illegal ones: a
# new model's weights, and what inference adds to a model's
_TRANS_0, _START_0, _END_0 = (
    np.where(legal, 0.0, NEG_INF) for legal in (TRANS_LEGAL, START_LEGAL, END_LEGAL)
)


# Stands in for the max of an all -inf slice when shifting log-sum-exp:
# below every finite score the models produce, and exp(-inf - _FLOOR) is 0.
_FLOOR = -1e300


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of finite or -inf scores; -inf (not NaN) when all are -inf.

    log(0) is not silenced here; the log-space loops do that once.
    """
    m = np.maximum(np.maximum.reduce(a, axis=axis, keepdims=True), _FLOOR)
    return np.log(np.add.reduce(np.exp(a - m), axis=axis)) + m.squeeze(axis)


# ---------------------------------------------------------------------------
# Model


class CrfModel:
    """Emission feature weights plus transition/start/end weights.

    ``train``, ``dumps`` and ``loads`` keep illegal transition, start and end
    entries at exactly -inf and every other weight finite (``weight_fault``).
    Inference reads illegal entries as -inf whatever they hold, and refuses
    a NaN or +inf weight with ``NonFiniteWeights``. A -inf on a legal entry
    acts as a hard constraint.
    """

    # the legal entries of each weight record; every emit entry is legal
    _LEGAL = {"emit": np.ones(N, bool), "trans": TRANS_LEGAL, "start": START_LEGAL, "end": END_LEGAL}

    def __init__(
        self,
        vocab: feat.FeatureVocabulary,
        emit_w: np.ndarray | None = None,
        trans: np.ndarray | None = None,
        start: np.ndarray | None = None,
        end: np.ndarray | None = None,
    ):
        self.vocab = vocab
        self.emit_w = np.zeros((vocab.size, N)) if emit_w is None else emit_w
        self.trans = _TRANS_0.copy() if trans is None else trans
        self.start = _START_0.copy() if start is None else start
        self.end = _END_0.copy() if end is None else end

    def emissions(self, sentence: str) -> np.ndarray:
        return feat.emission_scores(self.vocab.encode(sentence), self.emit_w)

    def weights(self) -> dict[str, np.ndarray]:
        """The weight arrays by record name, in file order."""
        return {"emit": self.emit_w, "trans": self.trans, "start": self.start, "end": self.end}

    @classmethod
    def weight_fault(cls, name: str, arr: np.ndarray) -> str | None:
        """How the weights ``arr`` of record ``name`` break the invariant, or None."""
        legal = cls._LEGAL[name]
        if not (np.isfinite(arr) | ~legal).all():
            return f"{name} record holds a weight that is not finite (NaN or inf)"
        if not (legal | (arr == NEG_INF)).all():
            return f"illegal {name} entries must be -inf"
        return None

    def copy(self) -> "CrfModel":
        return CrfModel(self.vocab, *(w.copy() for w in self.weights().values()))

    # -- persistence --------------------------------------------------------
    # A short text header (format line, fixed templates, vocabulary size), then
    # one line per array holding the base64 of its raw little-endian bytes,
    # which round-trip every float bitwise. Base64 keeps the file text, read
    # and written as UTF-8 like every other file of the package.

    FORMAT_HEADER = "pauseseg model format 3"
    # the lines before the vocab_size line: the format line, then the feature set
    _HEADER = (FORMAT_HEADER,) + tuple(
        f"template {name} " + " ".join(map(str, offsets)) for name, offsets in feat.TEMPLATES
    )
    # (record, dtype) in file order after the vocab_size line
    _RECORDS = (("keys", "<i8"), ("emit", "<f8"), ("trans", "<f8"), ("start", "<f8"), ("end", "<f8"))

    def dumps(self) -> str:
        weights = self.weights()
        for name, arr in weights.items():
            if fault := self.weight_fault(name, arr):
                raise ValueError(fault)
        lines = [*self._HEADER, f"vocab_size {self.vocab.size}"]
        arrays = {"keys": self.vocab.keys(), **weights}
        for name, dtype in self._RECORDS:
            raw = np.ascontiguousarray(arrays[name], dtype=dtype).tobytes()
            lines.append(name + " " + base64.b64encode(raw).decode("ascii"))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CrfModel":
        lines = split_lines(text)
        if lines[0] in ("pauseseg model format 1", "pauseseg model format 2"):
            raise ParseError(f"{lines[0]} is no longer read; retrain the model", line=1)
        if lines[0] != cls.FORMAT_HEADER:
            raise ParseError("not a pauseseg model file (bad header)", line=1)
        lines += [""] * (len(cls._HEADER) + len(cls._RECORDS))  # a missing line reads as blank
        for k in range(1, len(cls._HEADER)):
            if lines[k] != cls._HEADER[k]:
                message = f"expected the fixed template line {cls._HEADER[k]!r}"
                raise ParseError(message, line=k + 1)
        k = len(cls._HEADER)  # the index of the next line

        def payload(name: str) -> str:
            kind, _, rest = lines[k].partition(" ")
            if kind != name:
                raise ParseError(f"expected the {name} record", line=k + 1)
            return rest

        try:
            size = int(payload("vocab_size"))
            if size < 1:
                raise ValueError(f"vocabulary size {size} is below 1")
        except ValueError as exc:
            raise ParseError(f"bad vocab_size: {exc}", line=k + 1) from exc
        k += 1
        shapes = {"keys": (size - 1,), "emit": (size, N), "trans": (N, N), "start": (N,), "end": (N,)}
        arrays: dict[str, np.ndarray] = {}
        for name, dtype in cls._RECORDS:
            try:
                raw = base64.b64decode(payload(name), validate=True)
            except ValueError as exc:
                raise ParseError(f"bad {name} record: {exc}", line=k + 1) from exc
            shape = shapes[name]
            if len(raw) != 8 * math.prod(shape):
                raise ParseError(
                    f"{name} record holds {len(raw)} bytes, expected {8 * math.prod(shape)}",
                    line=k + 1,
                )
            arr = np.frombuffer(raw, dtype).reshape(shape).astype(dtype[1:])  # native, writable
            if name == "keys":
                try:
                    vocab = feat.FeatureVocabulary.from_keys(arr)
                except ValueError as exc:
                    raise ParseError(f"bad key: {exc}", line=k + 1) from exc
            elif fault := cls.weight_fault(name, arr):
                raise ParseError(fault, line=k + 1)
            arrays[name] = arr
            k += 1
        extra = next((j for j in range(k, len(lines)) if lines[j].strip()), None)
        if extra is not None:
            raise ParseError("unexpected line after the end record", line=extra + 1)
        return cls(vocab, arrays["emit"], arrays["trans"], arrays["start"], arrays["end"])

    def save(self, path) -> None:
        write_text(path, self.dumps())

    @classmethod
    def load(cls, path) -> "CrfModel":
        return cls.loads(read_text(path))


# ---------------------------------------------------------------------------
# Constraint masks

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
        if not tagset.admits_legal_path(allowed):
            raise NoLegalPath("constraint mask admits no legal tag sequence")

    def __len__(self) -> int:
        return len(self.allowed)


def _allowed_array(mask, n: int) -> np.ndarray | None:
    """``mask``'s allowed labels; a raw array is checked as ``ConstraintMask`` checks it."""
    if mask is None:
        return None
    allowed = mask.allowed if isinstance(mask, ConstraintMask) else np.asarray(mask, dtype=bool)
    if allowed.shape != (n, N):
        raise LengthMismatch(f"mask shape {allowed.shape} for sentence of length {n}")
    if n and not isinstance(mask, ConstraintMask):
        ConstraintMask(allowed)
    return allowed


# ---------------------------------------------------------------------------
# Batched inference core
#
# One forward-backward and one Viterbi recursion serve every caller
# (``viterbi`` runs the same Viterbi on Python floats for one sentence,
# see ``_viterbi_one``). They take a batch of sentences padded to
# ``[B, L, 4]``: row b holds the emissions of a sentence of ``lengths[b]``
# characters followed by -inf padding, and constraint-mask exclusions are
# -inf entries as well. One mask (``_end_mask``) marks each row's last
# position and its padding, where every recursion restarts from the end
# weights. The recursions run on a ``[L, 4, B]`` copy, so
# that each step is a few vectorised operations over contiguous per-label
# rows of the batch. No row's arithmetic depends on the other rows, so a
# sentence gets bitwise the same result alone (B = 1) or in any batch:
# each sum over labels is an ``np.add.reduce`` over a leading axis of 4,
# which adds in label order whatever B is (a BLAS matmul would not), and
# each sum over positions is a ``cumsum``. An emission score adds its nine
# template weights in template order too (``features.emission_scores``).
#
# Forward-backward runs in scaled probability space (Rabiner 1989, §V.A;
# CRFsuite's crf1d_context). The emissions become X = exp(E - shift), where
# shift[b, i] is the largest unmasked score at position i, and the weights
# T = exp(trans), S = exp(start), F = exp(end); illegal, masked and padding
# entries are exactly 0. alpha[i, l, b] is the mass of prefixes ending at i
# with label l (start weight and emissions up to i included), divided by
# c[i, b], its sum over l; at and after a row's last position c is 1, so
# that labels which cannot end a sentence (B, M) enter no c, and a mask
# that excludes only them leaves log Z bitwise unchanged. beta[i, l, b] is
# the mass of suffixes from i with label l (emission i excluded, end weight
# included), divided by the c of every later position; it is F at and after
# a row's last position, where alpha and X are 0 past the end. With
# Z' = sum_l alpha[n-1, l] F[l] and Y[i] = X[i+1] beta[i+1] / c[i+1]:
#     log Z = log Z' + sum_i log c[i] + sum_i shift[i]
#     unigram[i, l] = alpha[i, l] beta[i, l] / Z'
#     bigram[i, p, q] = alpha[i, p] T[p, q] Y[i, q] / Z'
# Illegal bigrams, excluded labels and padding get exactly 0.
#
# Range guard. Let W be the largest |w| over the entries of trans, start
# and end that are not -inf, and D_i the max - min of the unmasked scores
# at position i, so every nonzero X lies in [exp(-D_i), 1] and every
# nonzero T, S, F in [exp(-W), exp(W)]. A path of n positions weighs a
# product of n factors X and n + 1 factors T, S or F, and a sum over
# paths has at most 4**n terms. Every nonzero number the scaled recursion
# forms (alpha and its products with T, c, beta, Y, Z', the marginals'
# products) is such a sum of prefix, suffix or whole-path weights over
# another such sum, times at most one more factor, so its log lies within
# +-G, with
#     G = sum_i D_i + (n + 1) (2 W + log 4).
# A row with G <= _SCALED_RANGE = 600 therefore stays within the normal
# floats (|log| < 708), where every operation keeps float64's relative
# precision. The log-space recursion below takes the other rows: large
# weights, or long rows of widely spread scores. G depends on neither the
# mask nor the other rows, so a sentence takes the same recursion masked
# and unmasked, alone and in any batch.

# Characters per batch when a corpus goes through the core.
INFERENCE_BATCH_CHARS = 2048

# The largest G (see the range guard above) of a row in scaled space.
_SCALED_RANGE = 600.0
_LOG4 = math.log(4.0)


@dataclass
class _FB:
    log_z: np.ndarray  # [B]
    unigram: np.ndarray  # [B, L, 4]
    bigram: np.ndarray  # [B, L-1, 4, 4]


def _label_major(E: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(E.transpose(1, 2, 0))


def _end_mask(lengths: np.ndarray, L: int) -> tuple[np.ndarray, int]:
    """[L, B] mask of each row's last position and its padding, and the first position it marks."""
    return np.arange(L)[:, None] >= lengths - 1, int(lengths.min()) - 1


def _in_range(lengths, spread, trans, start, end) -> np.ndarray:
    """Whether each row's G is at most ``_SCALED_RANGE`` (see the range guard)."""
    w = np.concatenate([trans.ravel(), start, end])
    two_w = 2.0 * np.abs(w[w != NEG_INF]).max(initial=0.0)  # NaN or inf: no row
    return spread + (lengths + 1) * (two_w + _LOG4) <= _SCALED_RANGE


def _exponentiate(E, shift, trans, start, end):
    """X = exp(E - shift) [L, 4, B], label-major, and T, S, F."""
    B, L, _ = E.shape
    X = np.subtract(E.transpose(1, 2, 0), shift.T[:, None, :], out=np.empty((L, N, B)))
    np.exp(X, out=X)
    return X, np.exp(trans), np.exp(start), np.exp(end)


def _forward(X, lengths, shift, T, S, F):
    """Scaled alpha [L, 4, B], its divisors c [L, B], Z' [B] and log Z [B].

    A row without a legal path gets log Z = -inf.
    """
    L, _, B = X.shape
    alpha = np.empty_like(X)
    c = np.empty((L, B))
    last, first_last = _end_mask(lengths, L)
    T_pq = T[:, :, None]
    prod = np.empty((N, N, B))
    a = S[:, None] * X[0]
    # a row without a legal path divides 0 by 0 and takes log(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(L):
            if i:
                np.multiply(alpha[i - 1][:, None, :], T_pq, out=prod)
                np.add.reduce(prod, axis=0, out=a)
                a *= X[i]
            np.add.reduce(a, axis=0, out=c[i])
            if i >= first_last:
                np.copyto(c[i], 1.0, where=last[i])
            np.divide(a, c[i], out=alpha[i])
        z = np.add.reduce(alpha[lengths - 1, :, np.arange(B)].T * F[:, None], axis=0)
        log_z = np.log(z) + np.cumsum(np.log(c), axis=0)[-1] + np.cumsum(shift, axis=1)[:, -1]
    log_z[~(z > 0)] = NEG_INF
    return alpha, c, z, log_z


def _backward(X, lengths, c, T, F):
    """Scaled beta [L, 4, B], and Y [L-1, 4, B] (see above)."""
    L, _, B = X.shape
    last, first_last = _end_mask(lengths, L)
    beta = np.empty_like(X)
    beta[L - 1] = F[:, None]
    Y = X[1:] / c[1:, None, :]
    T_qp = T.T[:, :, None]
    prod = np.empty((N, N, B))
    for i in range(L - 2, -1, -1):
        Y[i] *= beta[i + 1]
        np.multiply(T_qp, Y[i][:, None, :], out=prod)
        np.add.reduce(prod, axis=0, out=beta[i])
        if i >= first_last:
            np.copyto(beta[i], F[:, None], where=last[i])
    return beta, Y


def _scaled_forward_backward(E, lengths, shift, trans, start, end) -> _FB:
    X, T, S, F = _exponentiate(E, shift, trans, start, end)
    alpha, c, z, log_z = _forward(X, lengths, shift, T, S, F)
    beta, Y = _backward(X, lengths, c, T, F)
    bigram = alpha[:-1, :, None, :] * T[:, :, None]
    bigram *= Y[:, None, :, :]
    bigram /= z
    alpha *= beta
    alpha /= z
    return _FB(log_z, alpha.transpose(2, 0, 1), bigram.transpose(3, 0, 1, 2))


def _forward_backward(E, lengths, shift, spread, trans, start, end) -> _FB:
    """log Z and marginals of a padded batch; rows without a path get log Z = -inf.

    Rows ``_in_range`` go through the scaled recursion, the others through
    the log-space one.
    """
    scaled = _in_range(lengths, spread, trans, start, end)
    if scaled.all():
        return _scaled_forward_backward(E, lengths, shift, trans, start, end)
    B, L, _ = E.shape
    fb = _FB(np.empty(B), np.zeros((B, L, N)), np.zeros((B, L - 1, N, N)))
    for rows in (np.flatnonzero(scaled), np.flatnonzero(~scaled)):
        if not len(rows):
            continue
        n = int(lengths[rows].max())
        if scaled[rows[0]]:
            part = _scaled_forward_backward(
                E[rows, :n], lengths[rows], shift[rows, :n], trans, start, end
            )
        else:
            part = _log_forward_backward(E[rows, :n], lengths[rows], trans, start, end)
        fb.log_z[rows] = part.log_z
        fb.unigram[rows, :n] = part.unigram
        fb.bigram[rows, : n - 1] = part.bigram
    return fb


# The log-space recursion, for the rows out of the scaled range.
# alpha[i, l, b]: log-sum over prefixes ending at i with label l, including
# the start weight and emissions up to i. beta[i, l, b]: log-sum over
# suffixes from i with label l, excluding emission i, including the end
# weight; the end weights at and after a row's last position. Marginals are
# exp(alpha + beta - log Z); on hard-excluded entries and on padding the
# -inf scores make them exactly 0.


def _log_forward(Et, lengths, trans, start, end):
    """alpha [L, 4, B] and log Z [B] of a label-major batch, in log space."""
    L, _, B = Et.shape
    alpha = np.empty_like(Et)
    trans_pq = trans[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0); inf - inf for weights not finite
        alpha[0] = start[:, None] + Et[0]
        for i in range(1, L):
            alpha[i] = Et[i] + _lse(alpha[i - 1][:, None, :] + trans_pq, 0)
        log_z = _lse(alpha[lengths - 1, :, np.arange(B)].T + end[:, None], 0)
    return alpha, log_z


def _log_backward(Et, lengths, trans, end, reduce=_lse):
    """beta [L, 4, B] of a label-major batch, in log space; ``reduce(a, 0)`` sums
    over the next label: ``_lse``, or ``np.maximum.reduce`` for Viterbi."""
    L = len(Et)
    last, first_last = _end_mask(lengths, L)
    beta = np.empty_like(Et)
    beta[L - 1] = end[:, None]
    trans_qp = trans.T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(L - 2, -1, -1):
            beta[i] = reduce(trans_qp + (Et[i + 1] + beta[i + 1])[:, None, :], 0)
            if i >= first_last:
                np.copyto(beta[i], end[:, None], where=last[i])
    return beta


def _log_forward_backward(E, lengths, trans, start, end) -> _FB:
    Et = _label_major(E)
    alpha, log_z = _log_forward(Et, lengths, trans, start, end)
    beta = _log_backward(Et, lengths, trans, end)
    # -inf - -inf in a row without a legal path, as 0 / 0 in the scaled one:
    # its marginals are NaN, and _require_paths refuses its log Z
    with np.errstate(invalid="ignore"):
        # in place, so that one [L-1, 4, 4, B] array is alive at a time
        unigram = alpha + beta
        unigram -= log_z
        np.exp(unigram, out=unigram)
        bigram = alpha[:-1, :, None, :] + trans[:, :, None]
        bigram += (Et[1:] + beta[1:])[:, None, :, :]
        bigram -= log_z
        np.exp(bigram, out=bigram)
    return _FB(log_z, unigram.transpose(2, 0, 1), bigram.transpose(3, 0, 1, 2))


def _viterbi(E, lengths, trans, start, end) -> tuple[np.ndarray, np.ndarray]:
    """[B, L] labels, row b beginning with row b's best path, and its score (``_require_paths``).

    The log-space backward with max in place of log-sum-exp, plus the
    emissions, gives delta[i, l, b], the best suffix score from position i
    with label l. A greedy forward pass over all rows then picks each label
    with argmax, which takes the first (lowest-id) maximum: ties go to the
    lower label id at the earliest position where tied paths differ.
    """
    Et = _label_major(E)
    L, _, B = Et.shape
    delta = _log_backward(Et, lengths, trans, end, np.maximum.reduce)
    with np.errstate(invalid="ignore"):  # inf - inf for weights that are not finite
        delta += Et
        first = start[:, None] + delta[0]
        # after label p at position i-1, the best label at i: nxt[i-1, p * B + b]
        nxt = np.argmax(trans[None, :, :, None] + delta[1:, None, :, :], axis=2).reshape(L - 1, N * B)
    paths = np.empty((L, B), dtype=np.intp)
    paths[0] = np.argmax(first, axis=0)
    rows = np.arange(B)
    for i in range(1, L):
        paths[i] = nxt[i - 1].take(paths[i - 1] * B + rows)
    return paths.T, np.max(first, axis=0)


def _emission_batch(model: "CrfModel", ids, allowed=None, scale: float = 1.0):
    """Padded emissions of encoded sentences, with their lengths, shifts and spreads.

    Returns E [B, L, 4], lengths [B], shift [B, L] and spread [B]; the
    scores are ``scale`` times the model's. Row b of E is -inf on padding
    and, when ``allowed[b]`` is given, wherever it is False. shift[b, i] is
    the largest unmasked score at position i (0 on padding), and spread[b]
    sums max - min of the unmasked scores over the row's positions. Neither
    depends on the mask, so the masked and unmasked passes of a sentence
    share them.
    """
    lengths = np.array([len(x) for x in ids])
    scores = feat.emission_scores(np.concatenate(ids), model.emit_w)
    scores *= scale
    B, L = len(ids), int(lengths.max())
    inside = np.arange(L) < lengths[:, None]
    E = np.full((B, L, N), NEG_INF)
    E[inside] = scores
    for b, where in enumerate(allowed or ()):
        if where is not None:
            E[b, : lengths[b]][~where] = NEG_INF
    by_label = np.ascontiguousarray(scores.T)  # a reduction over 4 rows is fast
    top = np.maximum.reduce(by_label)
    shift = np.zeros((B, L))
    shift[inside] = top
    spread = np.zeros((B, L))
    with np.errstate(invalid="ignore"):  # inf - inf, for infinite weights
        spread[inside] = top - np.minimum.reduce(by_label)
    return E, lengths, shift, np.cumsum(spread, axis=1)[:, -1]


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


_NON_FINITE = "the model holds a weight that is not finite (NaN or +inf)"


def _require_paths(best) -> None:
    """Refuse unless each best path score, or log Z, of a batch (an array or one float) is finite.

    -inf means no legal path. Masks reach the core admitting one
    (``_allowed_array``), so that is the model's doing. NaN or +inf comes
    only from weights that are not finite.
    """
    values = best.tolist() if isinstance(best, np.ndarray) else [best]
    if not all(v < math.inf for v in values):  # NaN fails too
        raise NonFiniteWeights(_NON_FINITE)
    if NEG_INF in values:
        raise NoLegalPath("the model admits no legal tag sequence")


class _WeightView(NamedTuple):
    """(trans, start, end) as inference reads them, as read-only arrays and as
    (nested) tuples of Python floats, and whether they hold no NaN or +inf."""

    arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    floats: tuple[tuple, tuple, tuple]
    finite: bool


def _refuse_non_finite(E, weights: _WeightView) -> None:
    """``NonFiniteWeights`` if emissions ``E`` or the weights hold a NaN or +inf."""
    if not (weights.finite and np.maximum.reduce(E, axis=None) < math.inf):  # NaN fails too
        raise NonFiniteWeights(_NON_FINITE)


def _inference_weights(model: CrfModel) -> _WeightView:
    """``model``'s (trans, start, end) as every inference operation reads them.

    The arrays plus 0 on legal entries and -inf on illegal ones: a finite
    illegal entry reads as -inf, a NaN or +inf one as NaN (inf + -inf),
    which the output checks refuse. A model that keeps the invariant of
    ``weight_fault`` reads bitwise as it is (x + 0.0 == x).

    The view is computed once per weight state: it is cached on the
    weights' dtype, shape and bytes, never on the model object, because
    models are edited in place.
    """
    t, s, e = model.trans, model.start, model.end
    return _weight_view(
        (t.dtype, t.shape, t.tobytes()),
        (s.dtype, s.shape, s.tobytes()),
        (e.dtype, e.shape, e.tobytes()),
    )


@functools.lru_cache(maxsize=8)
def _weight_view(*content) -> _WeightView:
    """``_inference_weights`` of the trans, start and end whose (dtype, shape, bytes)
    are ``content``."""
    with np.errstate(invalid="ignore"):
        arrays = tuple(
            np.frombuffer(data, dtype).reshape(shape) + zero
            for (dtype, shape, data), zero in zip(content, (_TRANS_0, _START_0, _END_0))
        )
    for w in arrays:
        w.setflags(write=False)
    trans, start, end = (w.tolist() for w in arrays)
    floats = tuple(map(tuple, trans)), tuple(start), tuple(end)
    top = np.maximum.reduce(np.concatenate([w.ravel() for w in arrays]))
    return _WeightView(arrays, floats, bool(top < math.inf))


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
    """Unnormalized path score; -inf iff any start/transition/end is illegal.

    Inference reads illegal entries as -inf; a NaN or +inf anywhere (in the
    sentence's emissions or the weights) is refused with ``NonFiniteWeights``.
    """
    t = tagset.parse_tags(tags)
    if len(t) != len(sentence):
        raise LengthMismatch(f"{len(t)} tags for {len(sentence)} characters")
    if not t:
        raise SentenceTooShort("empty sentence")
    E = model.emissions(sentence)
    weights = _inference_weights(model)
    _refuse_non_finite(E, weights)
    return _path_score(E, t, *weights.arrays)


def log_partition(sentence: str, model: CrfModel, mask=None) -> float:
    """log of the summed exp-scores of all legal sequences (respecting mask)."""
    if not sentence:
        raise SentenceTooShort("empty sentence")
    allowed = _allowed_array(mask, len(sentence))
    E, lengths, shift, spread = _emission_batch(model, [model.vocab.encode(sentence)], [allowed])
    weights = _inference_weights(model).arrays
    if _in_range(lengths, spread, *weights)[0]:
        X, T, S, F = _exponentiate(E, shift, *weights)
        *_, log_z = _forward(X, lengths, shift, T, S, F)
    else:
        _, log_z = _log_forward(_label_major(E), lengths, *weights)
    _require_paths(log_z)
    return float(log_z[0])


def _bigram_batch(ids, model: CrfModel) -> tuple[np.ndarray, np.ndarray]:
    """Bigram marginals [B, L-1, 4, 4] and lengths of encoded sentences of 2+ characters."""
    for x in ids:
        if len(x) < 2:
            raise SentenceTooShort("bigram marginals need at least 2 characters")
    E, lengths, shift, spread = _emission_batch(model, ids)
    fb = _forward_backward(E, lengths, shift, spread, *_inference_weights(model).arrays)
    _require_paths(fb.log_z)
    return fb.bigram, lengths


def bigram_marginals(sentence: str, model: CrfModel) -> np.ndarray:
    """p(l, l' | junction i) as a [n-1, 4, 4] tensor; illegal bigrams are 0."""
    bigram, _ = _bigram_batch([model.vocab.encode(sentence)], model)
    return bigram[0]


def boundary_probabilities(sentence: str, model: CrfModel) -> np.ndarray:
    """Boundary probability at every junction, shape [n-1]."""
    return _boundary_mass(bigram_marginals(sentence, model))


def boundary_probabilities_at(sentences, model: CrfModel, rows, junctions) -> np.ndarray:
    """The boundary probability at junction ``junctions[k]`` of ``sentences[rows[k]]``, for each k.

    Only the sentences that ``rows`` names are scored: they are encoded at
    once, their marginals computed batch by batch, and the probabilities
    gathered with one fancy index. A junction outside its sentence raises
    ``IndexOutOfRange`` before anything is scored.
    """
    rows = np.asarray(rows, dtype=np.intp)
    junctions = np.asarray(junctions, dtype=np.intp)
    n = np.fromiter(map(len, sentences), np.intp, len(sentences))[rows]
    outside = (junctions < 0) | (junctions >= n - 1)
    if outside.any():
        k = int(np.argmax(outside))
        raise IndexOutOfRange(f"junction {junctions[k]} outside sentence of length {n[k]}")
    named = np.zeros(len(sentences), dtype=bool)
    named[rows] = True
    at = (np.cumsum(named) - 1)[rows]  # each pair's sentence among the named ones
    scored = [sentences[k] for k in np.flatnonzero(named)]
    ids = model.vocab.encode_corpus(scored)
    mass: list[np.ndarray] = [None] * len(scored)  # type: ignore[list-item]
    for batch in _corpus_batches(scored):
        bigram, lengths = _bigram_batch([ids[k] for k in batch], model)
        for k, row, length in zip(batch, _boundary_mass(bigram), lengths):
            mass[k] = row[: length - 1]
    first = np.cumsum([0] + [len(m) for m in mass])  # where each one's junctions begin
    return np.concatenate([np.empty(0), *mass])[first[at] + junctions]


def boundary_probability(sentence: str, model: CrfModel, i: int) -> float:
    """Probability of a word boundary between characters i and i+1."""
    if not 0 <= i < len(sentence) - 1:
        raise IndexOutOfRange(f"junction {i} outside sentence of length {len(sentence)}")
    return float(boundary_probabilities(sentence, model)[i])


def _viterbi_one(E: list, trans, start, end) -> list[int]:
    """``_viterbi`` of one sentence on Python floats, its score checked by ``_require_paths``.

    ``E`` is the sentence's [n][4] emission rows (-inf where a mask
    excludes a label), the weights are ``_inference_weights``' Python
    floats. The recursion is written out for BMES's two successor pairs:
    after B or M comes M or E, after E or S comes B or S. So it reads only
    those eight trans entries, and weighs each label's two successors in
    ascending id where ``_viterbi`` scans all four: the others read -inf,
    so the additions, the path and its first-maximum tie-breaks are
    ``_viterbi``'s. ``d0..d3`` are the best suffix scores of B, M, E, S
    and ``e0..e3`` a position's emissions.
    """
    # t_pq: the weight of label q after label p
    (_, t_bm, t_be, _), (_, t_mm, t_me, _), (t_eb, _, _, t_es), (t_sb, _, _, t_ss) = trans
    e0, e1, e2, e3 = E[-1]
    x0, x1, x2, x3 = end
    d0, d1, d2, d3 = e0 + x0, e1 + x1, e2 + x2, e3 + x3
    back = []  # back[k][p]: the best label after p, for positions n-1 down to 1
    for e0, e1, e2, e3 in E[-2::-1]:
        # x is the lower-id successor, y the higher one; ties go to x
        x, y = t_bm + d1, t_be + d2
        if y > x:
            nb, a0 = 2, e0 + y
        else:
            nb, a0 = 1, e0 + x
        x, y = t_mm + d1, t_me + d2
        if y > x:
            nm, a1 = 2, e1 + y
        else:
            nm, a1 = 1, e1 + x
        x, y = t_eb + d0, t_es + d3
        if y > x:
            ne, a2 = 3, e2 + y
        else:
            ne, a2 = 0, e2 + x
        x, y = t_sb + d0, t_ss + d3
        if y > x:
            ns, a3 = 3, e3 + y
        else:
            ns, a3 = 0, e3 + x
        d0, d1, d2, d3 = a0, a1, a2, a3
        back.append((nb, nm, ne, ns))
    x0, x1, x2, x3 = start
    first = [x0 + d0, x1 + d1, x2 + d2, x3 + d3]
    best = max(first)
    _require_paths(best)
    t = first.index(best)
    path = [t]
    for best_next in reversed(back):
        t = best_next[t]
        path.append(t)
    return path


def viterbi_labels(sentence: str, model: CrfModel, allowed: np.ndarray | None = None) -> list[int]:
    """The label ids of ``viterbi``'s path, decoded on Python floats (``_viterbi_one``).

    ``allowed``, when given, is an [n, 4] bool array of the labels each
    position may take, which the caller knows admits a legal path (it is
    not checked here, as ``ConstraintMask`` would).
    """
    if not sentence:
        raise SentenceTooShort("empty sentence")
    E = model.emissions(sentence)
    if allowed is not None:
        E[~allowed] = NEG_INF
    weights = _inference_weights(model)
    # _viterbi_one's comparisons drop a NaN that only some paths meet: refuse what
    # the batched core refuses, a NaN or +inf in an unmasked emission or any weight
    _refuse_non_finite(E, weights)
    return _viterbi_one(E.tolist(), *weights.floats)


def viterbi(sentence: str, model: CrfModel, mask=None) -> str:
    """Highest-scoring legal sequence respecting ``mask``.

    Ties are broken toward the lower label id (B<M<E<S) at the earliest
    position where tied paths differ, which makes decoding deterministic.
    One sentence is decoded on Python floats (``viterbi_labels``); corpora
    go through the batched core (``viterbi_words``), with the same path for
    each sentence.
    """
    allowed = _allowed_array(mask, len(sentence))
    return tagset.tags_to_str(viterbi_labels(sentence, model, allowed))


def _viterbi_corpus(sentences, model: CrfModel, allowed=None, ids=None):
    """(batch, ``_viterbi``'s labels, lengths) of each length-sorted batch of a corpus, under
    ``allowed[k]`` (the labels each position of sentence k may take) when given. ``ids``
    are the sentences' feature ids, or None to encode the corpus at once."""
    if not all(sentences):
        raise SentenceTooShort("empty sentence")
    if ids is None:
        ids = model.vocab.encode_corpus(sentences)
    weights = _inference_weights(model).arrays
    for batch in _corpus_batches(sentences):
        masks = None if allowed is None else [allowed[k] for k in batch]
        E, lengths, _, _ = _emission_batch(model, [ids[k] for k in batch], masks)
        labels, best = _viterbi(E, lengths, *weights)
        _require_paths(best)
        yield batch, labels, lengths


def viterbi_words(sentences, model: CrfModel, allowed=None, ids=None) -> list[SegmentedSentence]:
    """The corpus decode: ``labels_to_words`` of each sentence's ``viterbi`` path, with
    ``_viterbi_corpus``'s arguments (``allowed[k]`` is an [n, 4] bool array or None, not
    checked, as in ``viterbi_labels``). A batch's words end where a label is word-final.
    """
    out: list[SegmentedSentence] = [None] * len(sentences)  # type: ignore[list-item]
    for batch, labels, lengths in _viterbi_corpus(sentences, model, allowed, ids):
        inside = np.arange(labels.shape[1]) < lengths[:, None]
        rows, ends = np.nonzero(tagset.WORD_FINAL[labels] & inside)
        ends = (ends + 1).tolist()
        stops = np.cumsum(np.bincount(rows, minlength=len(batch))).tolist()
        for k, start, stop in zip(batch, [0] + stops, stops):
            cut = ends[start:stop]
            out[k] = SegmentedSentence(sentences[k], tuple(zip([0] + cut[:-1], cut)))
    return out


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

    ids: np.ndarray  # [C, 9] feature ids
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


def _gold_labels(tag_sequences, lengths) -> list[np.ndarray]:
    """The label arrays of gold tag sequences for sentences of ``lengths`` characters.

    Checks every sequence in one pass over their concatenation. The first
    bad one, in order, raises what checking it alone would: an unknown label
    (``tagset.parse_tags``' error for a sequence of ints), else a length
    mismatch, else an illegal start, end or transition.
    """
    texts = []
    for k, tags in enumerate(tag_sequences):
        if not isinstance(tags, str):
            try:
                tags = tagset.tags_to_str(tagset.parse_tags(tags))
            except Exception:
                _gold_labels(tag_sequences[:k], lengths[:k])  # an earlier error comes first
                raise
        texts.append(tags)
    n_tags = np.fromiter(map(len, texts), np.intp, len(texts))
    ends = np.cumsum(n_tags)
    starts = ends - n_tags
    # a non-ASCII character becomes "?", which is no label either
    labels = _LABEL_OF_CODE[np.frombuffer("".join(texts).encode("ascii", "replace"), np.uint8)]
    # position i starts its sequence when is_first[i], ends it when is_first[i + 1]
    is_first = np.zeros(len(labels) + 1, dtype=bool)
    is_first[starts] = True
    is_first[-1] = True
    prev = np.roll(labels, 1)  # the label before each position, where there is one
    illegal = np.where(is_first[:-1], ~START_LEGAL[labels], ~TRANS_LEGAL[prev, labels])
    illegal |= is_first[1:] & ~END_LEGAL[labels]

    def per_sequence(at: np.ndarray) -> np.ndarray:
        """Whether ``at`` holds at some position of each sequence."""
        count = np.concatenate([[0], np.cumsum(at)])
        return count[ends] > count[starts]

    unknown = per_sequence(labels < 0)
    wrong_length = n_tags != np.asarray(lengths, dtype=np.intp)
    bad = unknown | wrong_length | per_sequence(illegal) | (n_tags == 0)
    if bad.any():
        k = int(np.argmax(bad))
        if unknown[k]:
            raise IllegalTagSequence(f"unknown label character in {texts[k]!r}")
        if wrong_length[k]:
            raise LengthMismatch(f"{n_tags[k]} tags for {lengths[k]} characters")
        raise IllegalTagSequence(f"illegal gold sequence {texts[k]!r}")
    return [labels[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


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
    E, lengths, shift, spread = _emission_batch(
        model, rows, [None] * B + [items[b][2] for b in part], emit_scale
    )
    trans, start, end = _inference_weights(model).arrays
    fb = _forward_backward(E, lengths, shift, spread, trans, start, end)
    lengths = lengths[:B]
    ids = np.concatenate(rows[:B])
    row = np.repeat(np.arange(B), lengths)
    col = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    unigram, bigram = fb.unigram[:B], fb.bigram[:B]
    loss = 0.0
    if part.size:
        # subtract marginals before scattering: when a mask excludes nothing
        # the difference is exactly zero, so the update is too
        unigram[part] -= fb.unigram[B:]
        bigram[part] -= fb.bigram[B:]
        loss = float(np.sum(fb.log_z[part] - fb.log_z[B:]))

    full = [b for b, it in enumerate(items) if it[1] is not None]
    if full:
        frow, fcol = row, col
        if len(full) < B:  # the positions of the full examples, each one whole
            is_full = np.zeros(B, dtype=bool)
            is_full[full] = True
            on_full = is_full[row]
            frow, fcol = row[on_full], col[on_full]
        gold = np.concatenate([items[b][1] for b in full])
        first, last = fcol == 0, np.append(fcol[1:] == 0, True)
        step = np.flatnonzero(~first)  # positions with a gold transition into them
        prev, cur = gold[step - 1], gold[step]
        loss += float(
            np.sum(fb.log_z[full])
            - E[frow, fcol, gold].sum()
            - trans[prev, cur].sum()
            - start[gold[first]].sum()
            - end[gold[last]].sum()
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
    sentences = [sentence for sentence, _ in batch]
    gold = _gold_labels([tags for _, tags in batch], [len(s) for s in sentences])
    items = [(model.vocab.encode(s), labels, None) for s, labels in zip(sentences, gold)]
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
        for name in ("epochs", "batch_chars", "seed"):
            if type(getattr(self, name)) is not int:
                raise InvalidConfig(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        lr, l2 = self.learning_rate, self.l2
        if not (type(lr) in (int, float) and math.isfinite(lr) and lr > 0):
            raise InvalidConfig(f"learning_rate must be finite and > 0, not {lr!r}")
        if not (type(l2) in (int, float) and math.isfinite(l2) and l2 >= 0):
            raise InvalidConfig(f"l2 must be finite and >= 0, not {l2!r}")
        if self.batch_chars < 1:
            raise InvalidConfig(f"batch_chars must be >= 1, not {self.batch_chars!r}")


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

    return prf(dev, viterbi_words([s.chars for s in dev], model, ids=dev_ids)).f1


def _prepare(examples) -> tuple[feat.FeatureVocabulary, list]:
    """A frozen vocabulary of the examples' features, and the examples as ``_loss_and_grad`` items.

    An item is (feature ids, gold labels, None) or (feature ids, None,
    allowed labels). The gold sequences are checked before the vocabulary
    is built, all at once.
    """
    full = [ex for ex in examples if isinstance(ex, FullExample)]
    gold = iter(_gold_labels([ex.tags for ex in full], [len(ex.sentence) for ex in full]))
    vocab = feat.FeatureVocabulary()
    prepared = [
        (ids, next(gold), None) if isinstance(ex, FullExample) else _prepare_partial(ids, ex.mask)
        for ex, ids in zip(examples, vocab.add_corpus([ex.sentence for ex in examples]))
    ]
    vocab.freeze()
    return vocab, prepared


try:  # glibc's malloc_trim(0) gives the free pages inside the heap back to the system
    _trim_heap = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # another C library: the heap stays as it is
    _trim_heap = lambda pad: None  # noqa: E731


def train(
    examples,
    config: TrainConfig,
    dev: list[SegmentedSentence] | None = None,
) -> CrfModel:
    """Mini-batch gradient descent on full and/or partial examples.

    Builds a fresh vocabulary from the training sentences, then optimizes
    with a fixed learning rate and per-update L2 decay. Returns the epoch
    with the best dev F1 when ``dev`` is given, otherwise the final epoch;
    an empty ``dev`` raises ``EmptyDataset``.
    Deterministic for a fixed seed. Raises ``TrainingDiverged`` when an
    epoch leaves a weight infinite or NaN.

    Logs to ``pauseseg.crf`` at INFO: one record for the preparation
    (sentences, characters, features, seconds), then one per epoch: the
    summed loss of its mini-batches, each taken before its update, the dev
    F1 when ``dev`` is given, and the seconds and characters per second of
    its updates.

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
    if dev is not None and not dev:
        raise EmptyDataset("no dev sentences")

    started = time.perf_counter()
    vocab, prepared = _prepare(examples)
    # building it leaves MB of freed temporaries in holes of the heap. Whether a
    # vocabulary-sized table then fits a resident hole or takes new pages depends on
    # how the heap fragmented; trimmed, it takes its own pages either way
    _trim_heap(0)
    model = CrfModel(vocab)
    lengths = [len(ex.sentence) for ex in examples]
    dev_ids = vocab.encode_corpus([s.chars for s in dev]) if dev else None
    chars = sum(lengths)
    log.info(
        "prepared %d sentences, %d characters, %d features in %.3f s",
        len(examples), chars, vocab.size, time.perf_counter() - started,
    )

    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    best: CrfModel | None = None
    best_f1 = -1.0
    lr = config.learning_rate
    decay = 1.0 - lr * config.l2
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        rng.shuffle(order)
        scale = 1.0
        loss = 0.0
        # a diverging run overflows before the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in _batches(order, lengths, config.batch_chars):
                batch_loss, counts = _loss_and_grad(model, [prepared[idx] for idx in batch], scale)
                loss += batch_loss
                inv_b = 1.0 / len(batch)
                scale *= decay
                # fold the scale in before it underflows, or once decay <= 0 has
                # taken it to 0 or below
                if not scale > 1e-100:
                    model.emit_w *= scale
                    scale = 1.0
                counts.scatter(model.emit_w, -lr * inv_b / scale)
                for name in ("trans", "start", "end"):
                    w, g, legal = getattr(model, name), getattr(counts, name), CrfModel._LEGAL[name]
                    w[legal] -= lr * (inv_b * g[legal] + config.l2 * w[legal])
            model.emit_w *= scale
        seconds = time.perf_counter() - started
        if any(model.weight_fault(name, w) for name, w in model.weights().items()):
            raise TrainingDiverged(
                f"weights became infinite or NaN in epoch {epoch} of {config.epochs}"
                f" (learning rate {lr:g})"
            )
        dev_note = ""
        if dev:
            f1 = _dev_f1(model, dev, dev_ids)
            dev_note = f", dev f1 {f1:.4f}"
            if f1 > best_f1:
                best_f1 = f1
                best = model if epoch == config.epochs else model.copy()
        log.info(
            "epoch %d/%d: loss %.6f%s, %.3f s, %.0f chars/s",
            epoch, config.epochs, loss, dev_note, seconds, chars / seconds,
        )
    _trim_heap(0)  # and the epochs' temporaries
    return best if best is not None else model
