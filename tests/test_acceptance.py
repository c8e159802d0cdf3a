"""End-to-end acceptance checks.

One test per guarantee, each printing a single pass/fail line. The exact
inference checks compare against brute-force enumeration (tests/oracle.py);
the pipeline checks run on the synthetic two-domain world (tests/synthetic.py).
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracle
import synthetic
import pauseseg
from pauseseg import crf, evaluate, mining, pipeline, tagset
from pauseseg.crf import ConstraintMask, TrainConfig
from pauseseg.segments import write_gold_corpus


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def world():
    return synthetic.build_world()


def mine_at_thresholds(baseline, alignments):
    """Partial corpora at thresholds 0.5 and 0.0 from one scoring pass."""
    partials_all, scored = pipeline.mine_partials(baseline, alignments, threshold=0.0)
    partials_05 = [
        mining.pauses_to_partial(p.chars, mining.filter_pauses(s, 0.5))
        for p, s in zip(partials_all, scored)
    ]
    return partials_05, partials_all, scored


def target_f1(model, test):
    preds = pipeline.segment_corpus(model, [s.chars for s in test])
    return evaluate.prf(test, preds).f1


def test_01_exact_inference_matches_enumeration():
    """Partition, marginals and decoding agree with brute force on >=1000
    random (model, sentence, optional mask) triples, within 60 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    n_triples = 0
    max_rel = 0.0
    for trial in range(1100):
        n = int(rng.integers(1, 9))
        s = oracle.random_sentence(rng, n)
        grid = 0.25 if rng.random() < 0.3 else None
        model = oracle.make_model(rng, [s], scale=1.5, grid=grid)
        allowed = oracle.random_mask(rng, n) if rng.random() < 0.4 else None
        n_triples += 1

        got_z = crf.log_partition(s, model, ConstraintMask(allowed) if allowed is not None else None)
        want_z = oracle.log_partition(model, s, allowed)
        rel = abs(got_z - want_z) / max(abs(want_z), 1.0)
        max_rel = max(max_rel, rel)
        assert rel <= 1e-10, f"partition off by {rel} on n={n}"

        if allowed is None and n >= 2:
            got_m = crf.bigram_marginals(s, model)
            want_m = oracle.bigram_marginals(model, s)
            np.testing.assert_allclose(got_m, want_m, rtol=1e-10, atol=1e-12)
            for i in range(n - 1):
                got_b = crf.boundary_probability(s, model, i)
                want_b = oracle.boundary_probability(model, s, i)
                assert abs(got_b - want_b) <= 1e-10

        got_path = crf.viterbi(s, model, ConstraintMask(allowed) if allowed is not None else None)
        want_path, want_score = oracle.viterbi(model, s, allowed)
        assert got_path == tagset.tags_to_str(want_path), (
            f"decode mismatch on n={n}: {got_path} vs {tagset.tags_to_str(want_path)}"
        )
        got_score = crf.score_sequence(s, got_path, model)
        rel_v = abs(got_score - want_score) / max(abs(want_score), 1.0)
        assert rel_v <= 1e-10, f"viterbi score off by {rel_v} on n={n}"
    elapsed = time.time() - t0
    report(
        "exact inference vs enumeration",
        n_triples >= 1000 and elapsed <= 60.0,
        f"{n_triples} triples, max partition rel err {max_rel:.2e}, {elapsed:.1f}s",
    )


def test_02_analytic_gradients_match_finite_differences():
    """Full and partial loss gradients match central differences (h=1e-5)
    to 1e-4 relative on >=100 instances, within 60 seconds."""
    rng = np.random.default_rng(515)
    t0 = time.time()
    n_checked = 0
    worst = 0.0

    def rel_err(a, b):
        if a.size == 0:
            return 0.0
        return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)))

    for trial in range(110):
        n = int(rng.integers(1, 5))
        s = oracle.random_sentence(rng, n, alphabet="abc")
        model = oracle.make_model(rng, [s])
        if trial % 2 == 0 or n < 2:
            seqs = oracle.legal_sequences(n)
            gold = seqs[int(rng.integers(0, len(seqs)))]
            batch = [(s, gold)]
            _, grad = crf.nll_loss_and_grad(batch, model)
            fd = oracle.finite_difference_grad(
                lambda m: crf.nll_loss_and_grad(batch, m)[0], model, h=1e-5
            )
        else:
            mask = ConstraintMask(oracle.random_mask(rng, n))
            batch = [(s, mask)]
            _, grad = crf.partial_nll_loss_and_grad(batch, model)
            fd = oracle.finite_difference_grad(
                lambda m: crf.partial_nll_loss_and_grad(batch, m)[0], model, h=1e-5
            )
        legal = oracle.TABLE.legal
        err = max(
            rel_err(grad.emit, fd.emit),
            rel_err(grad.trans[legal], fd.trans[legal]),
            rel_err(grad.start[oracle.TABLE.legal_start], fd.start[oracle.TABLE.legal_start]),
            rel_err(grad.end[oracle.TABLE.legal_end], fd.end[oracle.TABLE.legal_end]),
        )
        worst = max(worst, err)
        assert err <= 1e-4, f"gradient rel err {err} on n={n}"
        n_checked += 1
    elapsed = time.time() - t0
    report(
        "analytic gradients vs finite differences",
        n_checked >= 100 and elapsed <= 60.0,
        f"{n_checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_03_boundary_probability_is_a_proper_complement():
    """Boundary and non-boundary probability sum to 1 within 1e-9 at every
    junction; illegal bigrams carry exactly zero marginal mass."""
    rng = np.random.default_rng(77)
    internal = sorted((int(a), int(b)) for a, b in tagset.non_boundary_bigrams())
    illegal = ~oracle.TABLE.legal
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        s = oracle.random_sentence(rng, n)
        model = oracle.make_model(rng, [s], scale=float(rng.uniform(0.5, 5.0)))
        marg = crf.bigram_marginals(s, model)
        assert np.all(marg[:, illegal] == 0.0), "illegal bigram has nonzero mass"
        probs = crf.boundary_probabilities(s, model)
        for i in range(n - 1):
            p_no = float(sum(marg[i, a, b] for a, b in internal))
            gap = abs(probs[i] + p_no - 1.0)
            worst = max(worst, gap)
            assert gap <= 1e-9, f"complement gap {gap} at junction {i}"
    report(
        "boundary probability complement",
        True,
        f"200 models, worst |p_b + p_nb - 1| = {worst:.2e}, illegal mass exactly 0",
    )


def test_04_constrained_inference_honors_masks():
    """Constrained decoding stays inside the mask, and the constrained
    partition never exceeds the unconstrained one, with equality exactly
    when the mask removes no legal sequence."""
    rng = np.random.default_rng(99)
    n_restricting = n_vacuous = n_completed = 0
    for trial in range(300):
        n = int(rng.integers(1, 7))
        s = oracle.random_sentence(rng, n)
        model = oracle.make_model(rng, [s])
        if trial % 3 == 0:
            # masks that only exclude structurally impossible entries
            allowed = np.ones((n, 4), dtype=bool)
            allowed[0, tagset.Label.M] = False
            allowed[0, tagset.Label.E] = False
            allowed[n - 1, tagset.Label.B] = False
            if n > 1:
                allowed[n - 1, tagset.Label.M] = False
        else:
            allowed = oracle.random_mask(rng, n)
        mask = ConstraintMask(allowed)
        tags = tagset.parse_tags(crf.viterbi(s, model, mask))
        assert all(allowed[i][tags[i]] for i in range(n)), "decode left the mask"
        log_z = crf.log_partition(s, model)
        log_zc = crf.log_partition(s, model, mask)
        removed = len(oracle.legal_sequences(n)) - len(oracle.legal_sequences(n, allowed))
        if removed == 0:
            assert log_zc == log_z, "vacuous mask changed the partition"
            n_vacuous += 1
        else:
            assert log_zc < log_z, "restricting mask did not shrink the partition"
            n_restricting += 1
        if n >= 2:
            bounds = tuple(
                j for j in range(n - 1) if rng.random() < 0.4
            )
            completed = pipeline.complete_annotation(
                model, mining.PartialSentence(s, bounds)
            )
            assert set(bounds) <= completed.boundary_junctions(), (
                f"completion dropped an asserted boundary on n={n}"
            )
            n_completed += 1
    report(
        "constraint honoring and partition ordering",
        n_restricting >= 50 and n_vacuous >= 50 and n_completed >= 100,
        f"{n_restricting} restricting and {n_vacuous} vacuous masks behaved; "
        f"{n_completed} completions realized every asserted boundary",
    )


def test_05_uniform_model_fixtures():
    """With all-zero weights the partition counts legal sequences exactly
    and every junction is a coin flip; expecteds come from enumeration."""
    from pauseseg import features

    vocab = features.FeatureVocabulary()
    vocab.add_sentence("abc")
    vocab.freeze()
    model = crf.CrfModel(vocab)

    for text in ("a", "ab", "abc"):
        n = len(text)
        assert len(oracle.legal_sequences(n)) == 2 ** (n - 1)
        assert crf.log_partition(text, model) == np.log(float(2 ** (n - 1)))
        assert crf.log_partition(text, model) == oracle.log_partition(model, text)
        for i in range(n - 1):
            want = oracle.boundary_probability(model, text, i)
            assert want == 0.5
            assert crf.boundary_probability(text, model, i) == want

    mask = mining.build_constraint_mask("ab", [0])
    survivors = oracle.legal_sequences(2, mask.allowed)
    assert survivors == [(tagset.Label.S, tagset.Label.S)]
    assert crf.log_partition("ab", model, mask) == oracle.log_partition(
        model, "ab", mask.allowed
    )
    assert crf.log_partition("ab", model, mask) == 0.0
    assert crf.viterbi("ab", model, mask) == "SS"
    report(
        "uniform model fixtures",
        True,
        "logZ counts the enumerated legal paths (1/2/4), junction "
        "probability 1/2, forced boundary leaves SS alone",
    )


def test_06_filtered_completion_beats_baseline_and_unfiltered(world):
    """On the synthetic two-domain world, complete-then-train with the 0.5
    probability filter beats both the source-only baseline and unfiltered
    complete-then-train on target F1 for most seeds, within 10 minutes."""
    t0 = time.time()
    outcomes = []
    for seed in (1, 2, 3):
        cfg = TrainConfig(epochs=10, seed=seed)
        baseline = pipeline.train_baseline(world.source_train, cfg, dev=world.target_dev)
        partials_05, partials_all, _ = mine_at_thresholds(baseline, world.target_alignments)
        ctt_05 = pipeline.run_ctt(
            world.source_train, partials_05, cfg, dev=world.target_dev, baseline=baseline
        ).model
        ctt_00 = pipeline.run_ctt(
            world.source_train, partials_all, cfg, dev=world.target_dev, baseline=baseline
        ).model
        f_base = target_f1(baseline, world.target_test)
        f_05 = target_f1(ctt_05, world.target_test)
        f_00 = target_f1(ctt_00, world.target_test)
        outcomes.append((seed, f_base, f_05, f_00, f_05 > f_base and f_05 > f_00))
    elapsed = time.time() - t0
    wins = sum(1 for *_, ok in outcomes if ok)
    detail = "; ".join(
        f"seed {s}: base={fb:.4f} filtered={f5:.4f} unfiltered={f0:.4f}"
        for s, fb, f5, f0, _ in outcomes
    )
    report(
        "filtered completion beats baseline and unfiltered",
        wins >= 2 and elapsed <= 600.0,
        f"{wins}/3 seeds, {elapsed:.0f}s; {detail}",
    )


def test_07_marginalized_partial_training_over_segments(world):
    """Training directly on the marginalized partial loss drives the
    single-character word rate above the baseline's."""
    cfg = TrainConfig(epochs=10, seed=1)
    baseline = pipeline.train_baseline(world.source_train, cfg, dev=world.target_dev)
    partials_05, _, _ = mine_at_thresholds(baseline, world.target_alignments)
    pc_model = pipeline.run_partial_crf(world.source_train, partials_05, cfg)

    test_chars = [s.chars for s in world.target_test]
    rate_base = evaluate.single_char_word_rate(pipeline.segment_corpus(baseline, test_chars))
    rate_pc = evaluate.single_char_word_rate(pipeline.segment_corpus(pc_model, test_chars))
    report(
        "marginalized partial loss over-segments",
        rate_pc > rate_base,
        f"single-char word rate {rate_pc:.3f} vs baseline {rate_base:.3f}",
    )


def test_08_end_to_end_rerun_is_bit_identical(world, tmp_path):
    """Two deterministic ctt runs over the same files, in separate
    processes, produce byte-identical models."""
    source = tmp_path / "source.txt"
    target = tmp_path / "target.txt"
    write_gold_corpus(source, world.source_train[:300])
    partials = [
        mining.PartialSentence(s.chars, tuple(sorted(s.boundary_junctions())[::2]))
        for s in world.target_train[:300]
    ]
    mining.write_partial_corpus(target, partials)

    def run(out):
        cmd = [
            sys.executable, "-m", "pauseseg.cli", "ctt",
            str(source), str(target), "-o", str(out),
            "--epochs", "3", "--seed", "11",
        ]
        # the child imports pauseseg from where this process found it
        src = os.path.dirname(os.path.dirname(pauseseg.__file__))
        paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    bytes_a = run(tmp_path / "run_a.txt")
    bytes_b = run(tmp_path / "run_b.txt")
    report(
        "deterministic rerun is bit-identical",
        bytes_a == bytes_b,
        f"two subprocess runs, {len(bytes_a)} bytes each, identical={bytes_a == bytes_b}",
    )


def test_09_round_trips_and_filter_monotonicity(world, tmp_path):
    """Serialized artifacts survive round trips unchanged and the pause
    filter keeps nested subsets as the threshold rises."""
    from pauseseg import alignment as almod

    cfg = TrainConfig(epochs=6, seed=4)
    model = pipeline.train_baseline(world.source_train[:800], cfg)
    model_path = tmp_path / "model.txt"
    model.save(model_path)
    back = crf.CrfModel.load(model_path)
    model_ok = (
        np.array_equal(model.emit_w, back.emit_w)
        and np.array_equal(model.trans, back.trans)
        and np.array_equal(model.start, back.start)
        and np.array_equal(model.end, back.end)
        and back.dumps() == model.dumps()
    )

    align_path = tmp_path / "alignments.jsonl"
    almod.write_alignments(align_path, world.target_alignments[:50])
    align_ok = almod.read_alignments(align_path) == world.target_alignments[:50]

    baseline = model
    _, _, scored = mine_at_thresholds(baseline, world.target_alignments[:200])
    scored_path = tmp_path / "scored.jsonl"
    records = [
        (a.utterance_id, a.sentence, s)
        for a, s in zip(world.target_alignments[:200], scored)
    ]
    mining.write_scored_pauses(scored_path, records)
    scored_ok = mining.read_scored_pauses(scored_path) == records

    partial_path = tmp_path / "partial.txt"
    partials = [
        mining.pauses_to_partial(sent, mining.filter_pauses(s, 0.5))
        for _, sent, s in records
    ]
    mining.write_partial_corpus(partial_path, partials)
    partial_ok = mining.read_partial_corpus(partial_path) == partials

    flat = [p for s in scored for p in s]
    kept = {
        t: {(id(p)) for p in mining.filter_pauses(flat, t)}
        for t in (0.1, 0.5, 0.9)
    }
    monotone = kept[0.9] <= kept[0.5] <= kept[0.1]
    counts = tuple(len(kept[t]) for t in (0.1, 0.5, 0.9))
    strict = counts[0] > counts[1] > counts[2] > 0

    report(
        "round trips and filter monotonicity",
        model_ok and align_ok and scored_ok and partial_ok and monotone and strict,
        f"model/alignment/scored/partial round trips ok, kept {counts} at 0.1/0.5/0.9",
    )
