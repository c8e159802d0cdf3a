import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from pauseseg import tagset
from pauseseg.errors import IllegalTagSequence, LengthMismatch
from pauseseg.segments import SegmentedSentence
from pauseseg.tagset import Label


def test_label_ids_are_stable():
    assert (Label.B, Label.M, Label.E, Label.S) == (0, 1, 2, 3)
    assert tagset.LABEL_CHARS == "BMES"


def test_legal_transition_set_is_exactly_eight():
    table = tagset.legal_transitions()
    legal = {
        (p, q)
        for p in range(4)
        for q in range(4)
        if table.legal[p, q]
    }
    expected = {
        (Label.B, Label.M), (Label.B, Label.E),
        (Label.M, Label.M), (Label.M, Label.E),
        (Label.E, Label.B), (Label.E, Label.S),
        (Label.S, Label.B), (Label.S, Label.S),
    }
    assert legal == expected


def test_legal_starts_and_ends():
    table = tagset.legal_transitions()
    assert list(table.legal_start) == [True, False, False, True]  # B, S
    assert list(table.legal_end) == [False, False, True, True]  # E, S


def test_boundary_bigrams_partition_the_legal_set():
    table = tagset.legal_transitions()
    boundary = tagset.boundary_bigrams()
    internal = tagset.non_boundary_bigrams()
    assert boundary == {
        (Label.S, Label.S), (Label.S, Label.B),
        (Label.E, Label.S), (Label.E, Label.B),
    }
    assert internal == {
        (Label.B, Label.M), (Label.B, Label.E),
        (Label.M, Label.M), (Label.M, Label.E),
    }
    assert boundary & internal == set()
    legal = {(p, q) for p in range(4) for q in range(4) if table.legal[p, q]}
    assert boundary | internal == legal


def test_tables_are_read_only():
    table = tagset.legal_transitions()
    with pytest.raises(ValueError):
        table.legal[0, 0] = True


def test_parse_tags_accepts_strings_and_ints():
    assert tagset.parse_tags("BES") == (0, 2, 3)
    assert tagset.parse_tags([0, 2, 3]) == (0, 2, 3)
    assert tagset.parse_tags(np.array([0, 2, 3], dtype=np.int8)) == (0, 2, 3)
    assert tagset.parse_tags([Label.B, Label.E, np.int64(3)]) == (0, 2, 3)
    assert tagset.tags_to_str((0, 2, 3)) == "BES"


def test_parse_tags_rejects_unknown_symbols():
    with pytest.raises(IllegalTagSequence):
        tagset.parse_tags("BXE")
    with pytest.raises(IllegalTagSequence):
        tagset.parse_tags([0, 7])
    for not_ids in ([1.7, 2], ["3", "3"], [np.float64(3.0)], [None]):
        with pytest.raises(IllegalTagSequence, match="not an integer"):
            tagset.parse_tags(not_ids)


@pytest.mark.parametrize("bad", ["BB", "SM", "MES", "BMS", "BES"[:2] + "B"])
def test_is_legal_rejects_bad_sequences(bad):
    assert not tagset.is_legal(tagset.parse_tags(bad))


@pytest.mark.parametrize("good", ["S", "BE", "SS", "BME", "SBE", "BESS", "BMME"])
def test_is_legal_accepts_good_sequences(good):
    assert tagset.is_legal(tagset.parse_tags(good))


def test_words_to_labels_examples():
    assert tagset.words_to_labels(SegmentedSentence.from_words(["a"])) == "S"
    assert tagset.words_to_labels(SegmentedSentence.from_words(["ab"])) == "BE"
    assert tagset.words_to_labels(SegmentedSentence.from_words(["abc", "d", "ef"])) == "BMESBE"


def test_labels_to_words_examples():
    assert tagset.labels_to_words("BMESBE", "abcdef").words == ["abc", "d", "ef"]
    assert tagset.labels_to_words("SS", "ab").words == ["a", "b"]


def test_labels_to_words_rejects_illegal_and_mismatched():
    with pytest.raises(IllegalTagSequence):
        tagset.labels_to_words("BB", "ab")
    with pytest.raises(LengthMismatch):
        tagset.labels_to_words("BE", "abc")


def numpy_is_legal(tags):
    """``is_legal`` as it was, indexing the numpy table once per bigram."""
    t = tagset.parse_tags(tags)
    table = tagset.legal_transitions()
    if not t:
        return False
    if not table.legal_start[t[0]] or not table.legal_end[t[-1]]:
        return False
    return all(table.legal[a, b] for a, b in zip(t, t[1:]))


def two_pass_labels_to_words(tags, sentence):
    """``labels_to_words`` as it was, parsing the tags again in ``is_legal``."""
    t = tagset.parse_tags(tags)
    if len(t) != len(sentence):
        raise LengthMismatch(f"{len(t)} tags for {len(sentence)} characters")
    if not numpy_is_legal(t):
        raise IllegalTagSequence(f"illegal tag sequence {tagset.tags_to_str(t)!r}")
    spans = []
    start = 0
    for i, tag in enumerate(t):
        if tag in (Label.E, Label.S):
            spans.append((start, i + 1))
            start = i + 1
    return SegmentedSentence(sentence, tuple(spans))


def outcome(f, *args):
    try:
        return f(*args)
    except (IllegalTagSequence, LengthMismatch) as exc:
        return type(exc), str(exc)


@given(
    st.text(alphabet="BMESX", max_size=6) | st.lists(st.integers(-1, 4), max_size=6),
    st.sampled_from([0, 0, -1, 1]),
)
def test_labels_to_words_matches_the_two_pass_reference(tags, misfit):
    sentence = "abcdefg"[: max(0, len(tags) + misfit)]
    assert outcome(tagset.labels_to_words, tags, sentence) == outcome(
        two_pass_labels_to_words, tags, sentence)
    assert outcome(tagset.is_legal, tags) == outcome(numpy_is_legal, tags)


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8)
)
def test_word_label_round_trip(lengths):
    chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"
    words, k = [], 0
    for n in lengths:
        words.append(chars[k : k + n])
        k += n
    seg = SegmentedSentence.from_words(words)
    tags = tagset.words_to_labels(seg)
    assert tagset.is_legal(tagset.parse_tags(tags))
    assert tagset.labels_to_words(tags, seg.chars) == seg


def test_legal_sequences_biject_with_segmentations():
    # For each n the legal tag sequences are exactly the segmentations of an
    # n-char sentence: one sequence per choice of boundary at each of the
    # n-1 junctions, so 2**(n-1) of them, all decoding distinctly.
    chars = "abcdefgh"
    for n in range(1, 9):
        text = chars[:n]
        legal = [
            seq
            for seq in itertools.product(range(4), repeat=n)
            if tagset.is_legal(seq)
        ]
        assert len(legal) == 2 ** (n - 1)
        decoded = set()
        for seq in legal:
            seg = tagset.labels_to_words(seq, text)
            assert tagset.parse_tags(tagset.words_to_labels(seg)) == seq
            decoded.add(tuple(seg.spans))
        assert len(decoded) == len(legal)


def test_boundary_junctions_match_labels():
    seg = SegmentedSentence.from_words(["abc", "d", "ef"])
    tags = tagset.words_to_labels(seg)
    junctions = seg.boundary_junctions()
    boundary = tagset.boundary_bigrams()
    for i in range(len(tags) - 1):
        pair = (tagset.parse_tags(tags)[i], tagset.parse_tags(tags)[i + 1])
        assert (i in junctions) == (pair in boundary)


def test_admits_legal_path_matches_enumeration():
    # every mask of up to three positions, rows that allow no label included
    for n in range(1, 4):
        for cells in itertools.product((False, True), repeat=4 * n):
            allowed = np.array(cells).reshape(n, 4)
            assert tagset.admits_legal_path(allowed) == bool(oracle.legal_sequences(n, allowed))
    rng = np.random.default_rng(11)
    seen = set()
    for n in range(4, 9):
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(50):
                allowed = rng.random((n, 4)) < density
                admits = tagset.admits_legal_path(allowed)
                assert admits == bool(oracle.legal_sequences(n, allowed))
                seen.add(admits)
    assert seen == {False, True}
