"""Mine Chinese word boundaries from speech pauses and train a segmenter.

The pieces, in pipeline order: character alignments give pause durations
(:mod:`pauseseg.alignment`); a source-domain CRF scores each pause's chance
of being a word boundary (:mod:`pauseseg.crf`); confident pauses become
partial annotations (:mod:`pauseseg.mining`); constrained decoding turns
those into full segmentations for retraining (:mod:`pauseseg.pipeline`).
"""

from .alignment import (
    CharAlignment,
    Pause,
    detect_pauses,
    pause_durations,
)
from .crf import (
    ConstraintMask,
    CrfModel,
    FullExample,
    PartialExample,
    TrainConfig,
    boundary_probabilities,
    boundary_probabilities_batch,
    boundary_probability,
    bigram_marginals,
    log_partition,
    nll_loss_and_grad,
    partial_nll_loss_and_grad,
    score_sequence,
    train,
    viterbi,
    viterbi_batch,
)
from .evaluate import PrfScore, prf, single_char_word_rate
from .mining import (
    PartialSentence,
    build_constraint_mask,
    filter_pauses,
    pause_statistics,
    score_pauses,
)
from .pipeline import (
    CttResult,
    complete_annotation,
    complete_corpus,
    run_ctt,
    run_partial_crf,
    segment_corpus,
    self_train_corpus,
    train_baseline,
)
from .segments import SegmentedSentence, read_gold_corpus, write_gold_corpus
from .tagset import Label, labels_to_words, words_to_labels

__version__ = "0.1.0"

__all__ = [
    "CharAlignment",
    "ConstraintMask",
    "CrfModel",
    "CttResult",
    "FullExample",
    "Label",
    "PartialExample",
    "PartialSentence",
    "Pause",
    "PrfScore",
    "SegmentedSentence",
    "TrainConfig",
    "__version__",
    "bigram_marginals",
    "boundary_probabilities",
    "boundary_probabilities_batch",
    "boundary_probability",
    "build_constraint_mask",
    "complete_annotation",
    "complete_corpus",
    "detect_pauses",
    "filter_pauses",
    "labels_to_words",
    "log_partition",
    "nll_loss_and_grad",
    "partial_nll_loss_and_grad",
    "pause_durations",
    "pause_statistics",
    "prf",
    "read_gold_corpus",
    "run_ctt",
    "run_partial_crf",
    "score_pauses",
    "score_sequence",
    "segment_corpus",
    "self_train_corpus",
    "single_char_word_rate",
    "train",
    "train_baseline",
    "viterbi",
    "viterbi_batch",
    "words_to_labels",
    "write_gold_corpus",
]
