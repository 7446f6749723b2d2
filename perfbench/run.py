"""Benchmark of the karaka-qg command line on three batch workloads.

    python3 perfbench/run.py --workload bundled_x --seed 1 --seconds 20 --trace 0

Run from the root of a source tree holding ``src/karaka_qg``. The
workload's inputs are built from ``--seed``; then one client runs the
command as a closed loop, one job after the other, each in a fresh
interpreter through ``karaka_qg.cli.main``, for ``--seconds`` seconds.
Every job's outputs are checked. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(set-up time of fresh interpreters that import the package and build
lexicon and marker table, one before each job and at least
SETUP_SAMPLES), ``wall_s`` (job time), ``items_per_s`` (sentences, or
rating rows for ``rated_eval``, per second of ``wall_s``) and
``peak_rss_mb`` (median ``ru_maxrss`` of a job). A time is the median
over the run of the samples scaled to the reference host, see
``scaled``; the unscaled median is printed beside it.
With ``--trace 1`` traced and untraced jobs alternate; the metrics are the
per-module ones of ``tracing`` (medians over the traced jobs) and the
tracing overhead. Scratch files live under ``perfbench/.work`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bundled_x", "long_trees", "rated_eval")
SETUP_SAMPLES = 21
REFERENCE_KERNEL_S = 0.06  # one pass of child.kernel on the reference host
MIN_REPS = 3          # per kind of job: plain, and traced with --trace 1
HARD_LIMIT_S = 150    # start no job that could end after this, whatever --seconds says
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-module metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("samples", "calls", "candidates", "dropped", "spans") or last.endswith("_calls"):
        return "count"
    if ".sentence_us." in name:
        return "us"
    if last.startswith("ns_per_"):
        return "ns"
    if last.endswith("ratio"):
        return "ratio"
    if last.endswith("_per_s"):
        return "1/s"
    return "s"


def scaled(result: dict) -> float:
    """A job's time as it would read on a host that runs child.kernel in
    REFERENCE_KERNEL_S.

    The host is shared, and its speed changes from second to second and
    from minute to minute: identical jobs take from 0.5 to 1.1 s, and a
    run can fall wholly into a slow phase. The kernel runs in the job's
    own process just before and just after the timed part, so it sees the
    same phase. Dividing by it takes the phase out; a change to the code
    under test moves the job and not the kernel.
    """
    return result["wall_s"] * REFERENCE_KERNEL_S / result["kernel_s"]


def run_child(mode: str, argv: list, rep_dir: Path, spans: Path | None = None):
    """One job in a fresh interpreter; its result dict, or None if it crashed."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(rep_dir / "stdout.txt")]
    if spans is not None:
        cmd.append(str(spans))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(rep_dir / "stderr.txt", "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd + ["--"] + argv, stdout=subprocess.PIPE, stderr=err,
                                  env=env, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_failure(rep_dir: Path, why: str) -> None:
    tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
    print(f"job in {rep_dir.name} failed: {why}\n{tail}", file=sys.stderr)


def data_files(job, rep_dir: Path) -> list:
    if job.is_pipeline:
        return [rep_dir / "out" / name for name in workloads.PIPELINE_FILES]
    return [rep_dir / "stdout.txt"]


def output_problems(job, first: Path, base_out: Path, seed: int) -> list:
    if not job.is_pipeline:
        return checks.eval_output(first / "stdout.txt", job.eval_dir, job.ratings)
    out = first / "out"
    problems = checks.pipeline_output(out)
    if problems:
        return problems
    if job.name == "bundled_x":
        problems += checks.renamed_copies(out, base_out, workloads.BUNDLED_COPIES)
    return problems + checks.per_sentence_filters(out, job.treebank, job.markers, seed)


def per_module(traced: list, plain: list) -> dict:
    """Medians over the traced jobs, pooled percentiles, and tracing overhead."""
    names = traced[0]["metrics"].keys()
    values = {n: statistics.median(r["metrics"][n] for r in traced) for n in names}
    for prefix in traced[0]["samples"]:
        pooled = [x for r in traced for x in r["samples"][prefix]]
        values.update(tracing.percentile_metrics(prefix, pooled))
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


def build_job(name: str, work: Path, seed: int):
    """The workload's job, and the outputs of the bundled 30-sentence corpus."""
    from importlib.resources import files

    corpus = (files("karaka_qg.data") / "corpus_synthetic_30.conllu").read_text("utf-8")
    base = work / "base"
    base.mkdir()
    (base / "corpus.conllu").write_text(corpus, encoding="utf-8")
    result = run_child("run", ["pipeline", "--input", str(base / "corpus.conllu"),
                               "--out", str(base / "out")], base)
    problems = [] if result and result["rc"] == 0 else ["30-sentence pipeline run failed"]
    problems = problems or checks.base_output(base / "out")
    if name == "bundled_x":
        job = workloads.build_bundled(work, seed, corpus)
    elif name == "long_trees":
        job = workloads.build_long_trees(work, seed)
        problems += reference_long_trees(work)
    else:
        job = workloads.build_rated(work, seed, base / "out")
    return job, base / "out", problems


def reference_long_trees(work: Path) -> list:
    """The long_trees job of the reference seed writes the recorded bytes."""
    ref = work / "reference"
    ref.mkdir()
    job = workloads.build_long_trees(ref, workloads.REFERENCE_SEED)
    result = run_child("run", job.argv(ref / "out"), ref)
    if not result or result["rc"] != 0:
        return ["long_trees reference run failed"]
    return (checks.pipeline_output(ref / "out")
            or checks.pinned_output(ref / "out", checks.LONG_TREES_SHA256,
                                    f"long_trees seed {workloads.REFERENCE_SEED}"))


def measure_setup(job, work: Path, samples: list) -> bool:
    """Append one set-up time, taken in a fresh interpreter; False if it crashed."""
    rep_dir = work / f"setup{len(samples)}"
    rep_dir.mkdir()
    result = run_child("setup", job.argv(rep_dir / "out"), rep_dir)
    if result is None:
        _report_failure(rep_dir, "set-up crashed")
        return False
    samples.append(result)
    shutil.rmtree(rep_dir)
    return True


def bench(args, work: Path) -> int:
    job, base_out, problems = build_job(args.workload, work, args.seed)
    setup = []            # set-up samples, taken between the jobs with --trace 0
    results = []          # (traced, result) of every job that ran cleanly
    attempted = failed = 0
    first = None
    first_digest = None
    start = time.perf_counter()
    longest = 0.0
    kinds = (True, False) if args.trace else (False,)
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + longest >= HARD_LIMIT_S or (attempted >= MIN_REPS * len(kinds)
                                                 and elapsed >= args.seconds):
            break
        if not args.trace and not measure_setup(job, work, setup):
            return 1
        traced = kinds[attempted % len(kinds)]
        rep_dir = work / f"rep{attempted}"
        rep_dir.mkdir()
        spans = rep_dir / f"spans-{job.name}.tsv" if traced and first is None else None
        began = time.perf_counter()
        result = run_child("trace" if traced else "run", job.argv(rep_dir / "out"),
                           rep_dir, spans)
        longest = max(longest, time.perf_counter() - began)
        attempted += 1
        if result is None or result["rc"] != 0:
            failed += 1
            _report_failure(rep_dir, "non-zero exit")
            continue
        if result.get("unwrapped"):
            print(f"not traced: {', '.join(result['unwrapped'])}", file=sys.stderr)
        digest = [checks.sha256(p) if p.is_file() else None for p in data_files(job, rep_dir)]
        if first is None:
            first, first_digest = rep_dir, digest
        elif digest != first_digest:
            failed += 1
            _report_failure(rep_dir, "outputs differ from the first job's")
            continue
        if rep_dir != first:
            shutil.rmtree(rep_dir)
        results.append((traced, result))

    if first is None:
        print("no job completed", file=sys.stderr)
        return 1
    while not args.trace and len(setup) < SETUP_SAMPLES:
        if not measure_setup(job, work, setup):
            return 1
    problems += output_problems(job, first, base_out, args.seed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if problems:
        failed = attempted
    if spans := next(first.glob("spans-*.tsv"), None):
        kept_spans = HERE / ".work" / spans.name
        shutil.copyfile(spans, kept_spans)
        print(f"spans written to {kept_spans.relative_to(ROOT)}")

    print(f"workload {job.name} seed {args.seed}: "
          + ", ".join(f"{k} {v:.2f}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in job.shape.items()))
    if job.is_pipeline:
        out = first / "out"
        n_cand = len((out / "candidates.jsonl").read_text(encoding="utf-8").splitlines())
        n_kept = len((out / "kept.jsonl").read_text(encoding="utf-8").splitlines())
        print(f"candidates {n_cand}, kept {n_kept}")
    inputs = [job.eval_dir / "candidates.jsonl", job.eval_dir / "verdicts.jsonl"] \
        if job.eval_dir else []
    for path in inputs + data_files(job, first):
        print(f"sha256 {path.name} {checks.sha256(path)}")
    print(f"jobs {attempted}, failed {failed}, error_rate {failed / attempted:.4f} ratio")

    plain = [r for traced, r in results if not traced]
    if args.trace:
        traced = [r for t, r in results if t]
        if not traced or not plain:
            print("no traced or no plain job completed", file=sys.stderr)
            return 1
        values = per_module(traced, plain)
        metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in values.items()}
    else:
        wall_s = statistics.median(scaled(r) for r in plain)
        values = {
            "setup_s": statistics.median(scaled(r) for r in setup),
            "wall_s": wall_s,
            "items_per_s": job.items / wall_s,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in plain),
        }
        for name, samples in (("setup_s", setup), ("wall_s", plain)):
            print(f"{name} over {len(samples)} samples: scaled median {values[name]:.4f} s, "
                  f"unscaled median {statistics.median(r['wall_s'] for r in samples):.4f} s, "
                  f"kernel median {statistics.median(r['kernel_s'] for r in samples):.4f} s")
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()}
        print(f"{job.item_name}_per_s {values['items_per_s']:.1f} 1/s (reported as items_per_s)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "karaka_qg" / "__init__.py").is_file():
        print(f"error: no karaka_qg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / ".work"))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
