"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import re
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import longtrees  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from karaka_qg.cli import main as cli_main  # noqa: E402
from karaka_qg.lexicon import default_lexicon  # noqa: E402
from karaka_qg.morphology import DEFAULT_MARKERS, load_marker_table  # noqa: E402
from karaka_qg.treebank_io import loads_treebank  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def corpus_text() -> str:
    return (files("karaka_qg.data") / "corpus_synthetic_30.conllu").read_text("utf-8")


def pipeline(tmp_path, text, name="corpus"):
    src = tmp_path / f"{name}.conllu"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / f"{name}_out"
    assert cli_main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    return src, out


def skeleton(treebank_text: str) -> list:
    """(head, deprel) of every token, tree by tree."""
    return [[row.split("\t")[5:] for row in block.splitlines() if not row.startswith("#")]
            for block in treebank_text.strip().split("\n\n")]


def test_generator_same_seed_same_bytes_other_seed_other_bytes():
    a, shape_a = longtrees.generate(11, 60)
    b, _ = longtrees.generate(11, 60)
    c, shape_c = longtrees.generate(12, 60)
    assert a == b
    assert a != c
    # Seeds change the words, not the shape of the trees.
    assert shape_a == shape_c
    assert skeleton(a) == skeleton(c)


def test_every_generated_tree_parses_and_is_unique():
    text, shape = longtrees.generate(5, 400)
    sentences = loads_treebank(text, source="long_trees")
    assert len(sentences) == shape["sentences"] == 400
    assert len({tuple(t.form for t in s.tokens) for s in sentences}) == 400
    assert sum(len(s.tokens) for s in sentences) == shape["tokens"]
    assert max(len(s.tokens) for s in sentences) == shape["max_len"] <= longtrees.MAX_TOKENS


def test_generator_carries_the_structures_the_workload_needs():
    text, shape = longtrees.generate(3, 400)
    sentences = loads_treebank(text)
    tokens = [t for s in sentences for t in s.tokens]
    assert 25 <= shape["mean_len"] <= 35
    assert shape["max_len"] >= 60
    assert 0.1 <= shape["coof_share"] <= 0.6
    deprels = {t.deprel for t in tokens}
    assert {"r6", "coof", "rh", "k1", "k2", "k7t", "k7s", "k3", "rt", "k5", "k2p"} <= deprels
    assert any(t.upos == "PRON" and t.deprel == "k1" for t in tokens)
    assert {"raha", "rahi", "rahe", "kyunki"} <= {t.form for t in tokens}
    assert any(t.form in DEFAULT_MARKERS.interrogatives for t in tokens)
    known = set(default_lexicon().entries) | set(longtrees.EXTRA_LEXICON)
    assert any(t.upos == "NOUN" and t.lemma not in known for t in tokens)
    # r6 chains: a possessor whose own head is a possessor.
    assert any(t.deprel == "r6" and s.token(t.head).deprel == "r6"
               for s in sentences for t in s.tokens)


def test_markers_file_equals_the_builtin_table(tmp_path):
    path = tmp_path / "markers.tsv"
    path.write_text(workloads.markers_tsv(), encoding="utf-8")
    assert load_marker_table(path) == DEFAULT_MARKERS


def test_checks_accept_real_output_and_reject_a_tampered_kept_file(tmp_path):
    _, base = pipeline(tmp_path, corpus_text())
    assert checks.base_output(base) == []
    kept = (base / "kept.jsonl").read_text(encoding="utf-8").splitlines()
    (base / "kept.jsonl").write_text("\n".join(kept[1:]) + "\n", encoding="utf-8")
    assert checks.pipeline_output(base)
    (base / "kept.jsonl").write_text("\n".join(kept).replace("kisne", "kaun") + "\n",
                                     encoding="utf-8")
    assert checks.pipeline_output(base)


def test_recorded_bytes_catch_output_that_is_consistent_but_changed(tmp_path):
    _, base = pipeline(tmp_path, corpus_text())
    for name in workloads.PIPELINE_FILES:
        path = base / name
        path.write_text(path.read_text(encoding="utf-8").replace("kisne", "kaun"),
                        encoding="utf-8")
    assert checks.pipeline_output(base) == []
    assert checks.base_output(base)


def test_long_trees_reference_seed_gives_the_recorded_bytes(tmp_path):
    assert run.reference_long_trees(tmp_path) == []


def test_renamed_copies_match_the_scaled_run_and_catch_a_change(tmp_path):
    _, base = pipeline(tmp_path, corpus_text(), "base")
    copies = 3
    blocks = workloads.split_blocks(corpus_text())
    scaled = "\n\n".join(workloads.renamed_block(b, p)
                         for p in reversed(workloads.copy_prefixes(copies)) for b in blocks)
    treebank, out = pipeline(tmp_path, scaled + "\n", "scaled")
    assert checks.renamed_copies(out, base, copies) == []
    assert checks.per_sentence_filters(out, treebank, None, seed=1) == []
    verdicts = (out / "verdicts.jsonl").read_text(encoding="utf-8")
    (out / "verdicts.jsonl").write_text(verdicts.replace('"kept": false', '"kept": true', 1),
                                        encoding="utf-8")
    assert checks.renamed_copies(out, base, copies)
    assert checks.per_sentence_filters(out, treebank, None, seed=1)


def test_eval_check_recomputes_the_statistics(tmp_path, capsys):
    _, base = pipeline(tmp_path, corpus_text())
    job = workloads.build_rated(tmp_path, seed=4, base_out=base)
    stdout = tmp_path / "eval.json"
    capsys.readouterr()
    assert cli_main(job.argv(tmp_path)) == 0
    stdout.write_text(capsys.readouterr().out, encoding="utf-8")
    assert checks.eval_output(stdout, job.eval_dir, job.ratings) == []
    changed = [(c, a, 6 - x, y) for c, a, x, y in job.ratings]
    assert checks.eval_output(stdout, job.eval_dir, changed)


def test_metric_names_and_units_agree_with_benchmark_json(tmp_path):
    _, base = pipeline(tmp_path, corpus_text())
    rep = tmp_path / "rep"
    rep.mkdir()
    argv = ["pipeline", "--input", str(tmp_path / "corpus.conllu"), "--out", str(rep / "out")]
    result = run.run_child("trace", argv, rep)
    assert result["rc"] == 0 and result["unwrapped"] == []
    assert result["kernel_s"] > 0
    values = run.per_module([result, result], [result])
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(values) == set(per_layer)
    assert values["rule_engine.sentence_us.samples"] == 60
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == run.E2E_UNITS
    for name in list(per_layer) + list(end_to_end) + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    # The traced counts agree with the outputs they describe.
    m = values
    candidates = sum(m[f"rule_engine.{r}.candidates"] for r in tracing.RULE_IDS)
    assert candidates == checks.BASE_CANDIDATES == m["filters.F_ANAPHORA.calls"]
    assert {f: m[f"filters.{f}.dropped"] for f in tracing.FILTER_IDS} == checks.BASE_DROPS
    assert m["filters.keep_ratio"] == checks.BASE_KEPT / checks.BASE_CANDIDATES


def test_scaled_time_takes_out_the_host_speed():
    fast = {"wall_s": 0.5, "kernel_s": run.REFERENCE_KERNEL_S}
    slow = {"wall_s": 1.0, "kernel_s": 2 * run.REFERENCE_KERNEL_S}
    assert run.scaled(fast) == run.scaled(slow) == 0.5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 0.5) == 50
    assert tracing.percentile(values, 0.99) == 99
    assert tracing.percentile([], 0.5) == 0.0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bundled_x",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
