"""pauseseg benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload ctt --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one extra traced repetition, which follows the untraced ones. Workloads,
sizes and the timing rule are described in ``perfbench/WORKLOADS.md``.
Working files go to ``.bench_work/``; results, spans and the per-seed
expectations that later runs are checked against go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-ups are repeated between repetitions, inside the measured window, so
# that set-up and repetition times sample the same stretch of host load.
SETUP_SHARE = 0.1  # share of the window spent setting up, when set-up is cheap
MIN_SETUPS = 5  # spread evenly over the window, when set-up is not
MIN_REPETITIONS = 2


def import_package():
    """Import pauseseg from this checkout's source tree and nowhere else."""
    package_dir = os.path.join(SRC, "pauseseg")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        sys.exit(f"perfbench: no package source at {package_dir}")
    sys.path.insert(0, SRC)
    import pauseseg

    if os.path.dirname(os.path.abspath(pauseseg.__file__)) != package_dir:
        sys.exit(f"perfbench: imported pauseseg from {pauseseg.__file__}, not {package_dir}")


import_package()

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pauseseg import (  # noqa: E402
    alignment,
    cli,
    crf,
    evaluate,
    features,
    mining,
    pipeline,
    segments,
)

CLI_COMMANDS = ("train", "mine", "filter", "ctt", "segment", "eval")
EXAMPLE_LOSS_HELPERS = ("_full_example_loss", "_partial_example_loss")
# Exact counts: every traced run of one seed must reproduce them.
EXACT_COUNTS = (
    "features.vocab_size",
    "features.extract_calls_per_char",
    "crf.viterbi_calls",
    "mining.junctions",
    "mining.pauses_detected",
    "mining.pauses_kept",
)


# ---------------------------------------------------------------------------
# Environment


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    return _read(os.path.join(ROOT, ".git", head[5:]))


def source_digest() -> str:
    """SHA-256 over the package's and the benchmark's sources, for checkouts without git."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(SRC, "pauseseg", "*.py"))) + sorted(
        glob.glob(os.path.join(here, "*.py"))
    ):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(seed: int, sizes: dict) -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(os.path.join(index, "type")) != "Instruction":
            caches[f"L{_read(os.path.join(index, 'level'))}"] = _read(os.path.join(index, "size"))
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "sizes": sizes,
    }


# ---------------------------------------------------------------------------
# Tracing


def _count_pauses(counts, args, result):
    counts["mining.junctions"] += max(0, len(args[0]) - 1)
    counts["mining.pauses_detected"] += len(result)


def _count_kept(counts, args, result):
    counts["mining.pauses_kept"] += len(result)


def _count_model_bytes(counts, args, result):
    counts["crf.model_bytes"] += os.path.getsize(args[1])


def trace_unit(tracer: spans.Tracer) -> None:
    """Wrap the public functions each workload step goes through."""
    tracer.wrap_function(features, "extract_features", count_only=True)
    tracer.wrap_method(features.FeatureVocabulary, "add_sentence", "features.add_sentence")
    tracer.wrap_method(features.FeatureVocabulary, "encode", "features.encode")
    tracer.wrap_function(features, "emission_scores")
    tracer.wrap_function(crf, "train")
    # per-example loss and gradient inside crf.train, so that what remains of
    # its self time is the per-batch step (see crf.step_s)
    for helper in EXAMPLE_LOSS_HELPERS:
        if hasattr(crf, helper):
            tracer.wrap_function(crf, helper, "crf.example_loss")
    tracer.wrap_function(crf, "viterbi")
    tracer.wrap_method(crf.CrfModel, "save", "crf.model_save", after=_count_model_bytes)
    tracer.wrap_method(crf.CrfModel, "load", "crf.model_load")
    tracer.wrap_function(alignment, "read_alignments", "alignment.read")
    tracer.wrap_function(alignment, "read_textgrid", "alignment.read")
    tracer.wrap_function(alignment, "detect_pauses", after=_count_pauses)
    tracer.wrap_function(mining, "score_pauses")
    tracer.wrap_function(mining, "filter_pauses", after=_count_kept)
    tracer.wrap_function(mining, "partial_to_mask", "mining.mask")
    tracer.wrap_function(pipeline, "complete_annotation")
    tracer.wrap_function(pipeline, "segment_corpus")
    tracer.wrap_function(segments, "read_gold_corpus", "segments.read")
    tracer.wrap_function(segments, "write_gold_corpus", "segments.write")
    tracer.wrap_function(evaluate, "prf")
    tracer.wrap_function(cli, "main", lambda args: "cli." + args[0][0])


def trace_probes(tracer: spans.Tracer) -> None:
    tracer.wrap_method(features.FeatureVocabulary, "encode", "features.encode")
    tracer.wrap_function(features, "emission_scores")
    tracer.wrap_function(crf, "log_partition")
    tracer.wrap_function(crf, "bigram_marginals")
    tracer.wrap_function(crf, "nll_loss_and_grad")


def run_probes(model, sentences, examples) -> None:
    """Forward only, forward-backward, and one epoch's loss-and-gradient batches."""
    for s in sentences:
        crf.log_partition(s, model)
    for s in sentences:
        if len(s) > 1:
            crf.bigram_marginals(s, model)
    batch_chars = crf.TrainConfig().batch_chars
    batch, chars = [], 0
    for ex in examples:
        batch.append((ex.sentence, ex.tags))
        chars += len(ex.sentence)
        if chars >= batch_chars:
            crf.nll_loss_and_grad(batch, model)
            batch, chars = [], 0
    if batch:
        crf.nll_loss_and_grad(batch, model)


def layer_metrics(unit: spans.Tracer, probe: spans.Tracer, outcome, epochs: int) -> dict:
    own, total, calls, counts = unit.self_times(), unit.total_times(), unit.calls(), unit.counts
    probe_own = probe.self_times()
    train_own = [t for span, t in zip(unit.spans, unit.span_self_times()) if span[0] == "crf.train"]
    detected = counts["mining.pauses_detected"]
    m = {
        "features.add_sentence_s": own.get("features.add_sentence", 0.0),
        "features.encode_s": own.get("features.encode", 0.0),
        "features.extract_calls_per_char": counts["features.extract_features"] / outcome.chars_in,
        "features.emission_scores_s": own.get("features.emission_scores", 0.0),
        "features.vocab_size": outcome.vocab_size,
        "crf.train_s": total.get("crf.train", 0.0),
        "crf.train_self_s": own.get("crf.train", 0.0) + own.get("crf.example_loss", 0.0),
        "crf.forward_s": probe_own.get("crf.log_partition", 0.0),
        "crf.forward_backward_s": probe_own.get("crf.bigram_marginals", 0.0),
        "crf.loss_grad_s": probe_own.get("crf.nll_loss_and_grad", 0.0),
        # one epoch of the first train call, without the per-example losses
        "crf.step_s": train_own[0] / epochs if train_own else 0.0,
        "crf.viterbi_s": own.get("crf.viterbi", 0.0),
        "crf.viterbi_calls": calls["crf.viterbi"],
        "crf.model_save_s": own.get("crf.model_save", 0.0),
        "crf.model_load_s": own.get("crf.model_load", 0.0),
        "crf.model_bytes": counts["crf.model_bytes"],
        "alignment.read_s": own.get("alignment.read", 0.0),
        "alignment.detect_pauses_s": own.get("alignment.detect_pauses", 0.0),
        "mining.score_pauses_s": own.get("mining.score_pauses", 0.0),
        "mining.mask_s": own.get("mining.mask", 0.0),
        "mining.junctions": counts["mining.junctions"],
        "mining.pauses_detected": detected,
        "mining.pauses_kept": counts["mining.pauses_kept"],
        "mining.kept_ratio": counts["mining.pauses_kept"] / detected if detected else 0.0,
        "pipeline.complete_annotation_s": own.get("pipeline.complete_annotation", 0.0),
        "pipeline.segment_corpus_s": own.get("pipeline.segment_corpus", 0.0),
        "pipeline.sentences_used": outcome.used,
        "pipeline.sentences_skipped": outcome.skipped,
        "segments.read_s": own.get("segments.read", 0.0),
        "segments.write_s": own.get("segments.write", 0.0),
        "evaluate.prf_s": own.get("evaluate.prf", 0.0),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = own.get(f"cli.{command}", 0.0)
    return m


# ---------------------------------------------------------------------------
# Reproducibility across runs of one seed


def check_expectations(path: str, record: dict) -> list[str]:
    """Compare with an earlier run of this seed and source; keep what is new."""
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    problems = []
    merged = dict(known)
    for key, value in record.items():
        if key in known and known[key] != value:
            problems.append(f"{key} is {value}, an earlier run of this seed had {known[key]}")
        merged.setdefault(key, value)
    if merged != known:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------


def run_once(workload, times):
    try:
        return workload.run_once(times)
    except Exception as exc:  # a raising step fails the repetition's operations
        outcome = workloads.Outcome(attempted=workload.ops_hint())
        outcome.fail(outcome.attempted, f"{type(exc).__name__}: {exc}")
        return outcome


def measure(workload, times, seconds: float):
    """Set up and run the workload for about ``seconds``.

    A set-up runs first, and again whenever set-ups have taken less than
    ``SETUP_SHARE`` of the time so far or fewer than ``MIN_SETUPS`` have run
    pro rata of the window. Returns the set-up intervals, the repetitions'
    outcomes, the range of ``times.intervals`` each repetition filled, and
    the peak resident set size in MB after the first repetition.
    """
    setups, outcomes, reps = [], [], []
    peak_mb = 0.0
    spent = repeated = last = 0.0  # wall time in set-ups, in repetitions, in the last one
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        enough = len(setups) >= MIN_SETUPS and len(outcomes) >= MIN_REPETITIONS
        # stop at the repetition boundary nearest the end of the window
        if elapsed + last / 2 >= seconds and enough:
            break
        if (
            not setups
            or spent < SETUP_SHARE * (spent + repeated)
            or len(setups) < MIN_SETUPS * min(1.0, elapsed / seconds)
        ):
            start = time.perf_counter()
            workload.setup()
            setups.append((start, time.perf_counter()))
            spent += setups[-1][1] - start
        else:
            first = len(times.intervals)
            start = time.perf_counter()
            outcomes.append(run_once(workload, times))
            reps.append((first, len(times.intervals)))
            last = time.perf_counter() - start
            repeated += last
            if len(reps) == 1:
                # later repetitions add only allocator fragmentation, which
                # would tie the peak to how many repetitions fit in the window
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setups, outcomes, reps, peak_mb


def check_repeatable(outcomes) -> None:
    """Every repetition must reproduce the first one's f1 and model hashes."""
    first = outcomes[0]
    for out in outcomes[1:]:
        if (out.f1, out.hashes) != (first.f1, first.hashes):
            out.fail(out.attempted - out.failed, "f1 or a model hash changed between repetitions")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(ROOT, ".bench_work", tag)
    outdir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    meter = hostspeed.Meter()
    times = workloads.StepTimes(meter)
    meter.start()
    try:
        setups, outcomes, reps, peak_mb = measure(workload, times, args.seconds)
    finally:
        meter.stop()
    setup_times = [meter.normalise(b, e) for b, e in setups]
    durations = [times.total(first, last) for first, last in reps]
    raw_durations = [times.total(first, last, raw=True) for first, last in reps]
    check_repeatable(outcomes)
    rates = workload.rates(times, outcomes[0])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(durations),
        "segment_chars_per_s": rates["segment_chars_per_s"],
        "f1": outcomes[0].f1,
        "peak_rss_mb": peak_mb,
    }
    expect = {"f1": outcomes[0].f1, "hashes": outcomes[0].hashes}

    per_layer = None
    if args.trace:
        origin = time.perf_counter()
        unit = spans.Tracer()
        trace_unit(unit)
        traced_times = workloads.StepTimes()
        try:
            traced = run_once(workload, traced_times)
        finally:
            unit.uninstall()
        outcomes.append(traced)
        check_repeatable(outcomes)
        probe = spans.Tracer()
        trace_probes(probe)
        try:
            run_probes(*workload.probe_inputs())
        finally:
            probe.uninstall()
        epochs = workload.size_report()["epochs"]
        per_layer = layer_metrics(unit, probe, traced, epochs)
        for stage_rate in ("train_chars_per_s", "mine_utts_per_s", "complete_sents_per_s"):
            per_layer[stage_rate] = rates.get(stage_rate, 0.0)
        # both wall times: the traced repetition runs without the host-speed meter
        per_layer["trace.overhead_s"] = traced_times.total() - statistics.median(raw_durations)
        expect.update({k: per_layer[k] for k in EXACT_COUNTS})
        with open(os.path.join(outdir, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as fh:
            unit.write(fh, origin, "unit")
            probe.write(fh, origin, "probe")

    env = environment(args.seed, dict(workload.size_report(), vocab_size=outcomes[0].vocab_size))
    expect_path = os.path.join(outdir, f"expect-{tag}-{env['source_sha256'][:16]}.json")
    problems = check_expectations(expect_path, expect)
    if problems:
        outcomes[-1].fail(outcomes[-1].attempted - outcomes[-1].failed, "; ".join(problems))

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    shown = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {
        "workload": args.workload,
        "environment": env,
        "repetitions": len(durations),
        "setup_times_s": setup_times,
        "setup_wall_times_s": [e - b - meter.sampled(b, e) for b, e in setups],
        "repetition_times_s": durations,
        "repetition_wall_times_s": raw_durations,
        "step_times_s": times.samples(),
        "host_slowdown_mean": statistics.fmean(meter.times) / hostspeed.NOMINAL_S,
        "host_samples": len(meter.times),
        "rates": rates,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "error_rate": failed / attempted,
        "errors": errors,
    }
    with open(os.path.join(outdir, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    for error in errors[:10]:
        print("error " + error)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"host_slowdown {detail['host_slowdown_mean']:.4g} (mean over {len(meter.times)} samples)")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
