"""Output checks. Each returns a list of problems; an empty list passes.

The references come from outside the code under test where they can:
the sha256 of the data files of the 30-sentence corpus and of the
``long_trees`` reference seed, recorded from the seed commit, together
with the counts the acceptance suite pins; the renamed-copy structure of
``bundled_x``; and statistics recomputed here from the ratings the
benchmark generated. The per-sentence check runs the package's own
``run_filters`` on each sentence alone, which is a different call pattern
from the batch run it is compared with.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from collections import Counter
from pathlib import Path

from workloads import PIPELINE_FILES, copy_prefixes, renamed_lines

# tests/test_acceptance.py pins these for the bundled 30-sentence corpus.
BASE_CANDIDATES = 96
BASE_KEPT = 75
BASE_DROPS = {
    "F_ANAPHORA": 7,
    "F_GENDER_AGREEMENT": 4,
    "F_WORD_ORDER": 1,
    "F_ALREADY_QUESTION": 4,
    "F_COMPLEX_COMPOUND": 5,
}
MEAN_TOLERANCE = 1e-9

# sha256 of the data files, recorded from the seed commit of the benchmark.
# The 30-sentence corpus, run with default flags:
BASE_SHA256 = {
    "candidates.jsonl": "3607d2a42d4403839d522c84eaf99008743823366a5607c68f3b53ee1655f9ff",
    "kept.jsonl": "067cea7065a5dadcbeae054d18273fd8d0a249f15042231faf7ca76827c5c79b",
    "verdicts.jsonl": "e3039c51f26d9a779a52df7037c30a0b2ae066a21ab49a770589578a7076a58f",
}
# The long_trees job of workloads.REFERENCE_SEED (2,277 candidates, 761 kept):
LONG_TREES_SHA256 = {
    "candidates.jsonl": "82faca8fa3a18e0c8d01900dbc13e48ac55ab4b682f479dc51c0281094aad89c",
    "kept.jsonl": "ce9a47b686b1481aa6071bad608ad1b00c6c1632fc6fc6cf5a374170c4cdec07",
    "verdicts.jsonl": "413c1c4e07bb35697bf16647645ca2f2013d2e4522e20ee6b8b45b3bb84efa48",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def pipeline_output(out: Path) -> list:
    """Candidates unique and sorted, one verdict each, kept = the kept verdicts."""
    missing = [name for name in PIPELINE_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing output files: {', '.join(missing)}"]
    candidates = _lines(out / "candidates.jsonl")
    kept = _lines(out / "kept.jsonl")
    verdicts = [json.loads(line) for line in _lines(out / "verdicts.jsonl")]
    ids = [json.loads(line)["candidate_id"] for line in candidates]
    problems = []
    if not candidates:
        problems.append("no candidates were generated")
    if len(set(ids)) != len(ids):
        problems.append("candidate ids are not unique")
    if ids != sorted(ids):
        problems.append("candidates are not sorted by candidate_id")
    if len(verdicts) != len(candidates):
        problems.append(f"{len(verdicts)} verdicts for {len(candidates)} candidates")
    elif [v["candidate_id"] for v in verdicts] != ids:
        problems.append("verdicts do not follow the candidates one to one")
    for v in verdicts:
        if v["kept"] != (v["dropped_by"] is None):
            problems.append(f"verdict {v['candidate_id']} keeps and drops at once")
            break
    expected_kept = [line for line, v in zip(candidates, verdicts) if v["kept"]]
    if kept != expected_kept:
        problems.append(f"kept.jsonl ({len(kept)} lines) is not the {len(expected_kept)} "
                        "candidates whose verdict keeps them")
    return problems


def pinned_output(out: Path, expected: dict, what: str) -> list:
    """Each data file has the recorded sha256."""
    return [f"{what}: {name} differs from the recorded output"
            for name, digest in expected.items()
            if not (out / name).is_file() or sha256(out / name) != digest]


def base_output(out: Path) -> list:
    """The 30-sentence corpus gives the counts the acceptance suite pins
    and the recorded bytes."""
    problems = pipeline_output(out)
    if problems:
        return problems
    n = len(_lines(out / "candidates.jsonl"))
    k = len(_lines(out / "kept.jsonl"))
    drops = Counter(json.loads(line)["dropped_by"] for line in _lines(out / "verdicts.jsonl"))
    drops.pop(None, None)
    if (n, k) != (BASE_CANDIDATES, BASE_KEPT):
        problems.append(f"30-sentence corpus gave {n} candidates and {k} kept, "
                        f"expected {BASE_CANDIDATES} and {BASE_KEPT}")
    if dict(drops) != BASE_DROPS:
        problems.append(f"30-sentence corpus drops {dict(drops)}, expected {BASE_DROPS}")
    return problems + pinned_output(out, BASE_SHA256, "30-sentence corpus")


def renamed_copies(out: Path, base_out: Path, copies: int) -> list:
    """Each data file equals the 30-sentence one repeated with renamed ids."""
    prefixes = copy_prefixes(copies)
    problems = []
    for name in PIPELINE_FILES:
        expected = renamed_lines(_lines(base_out / name), prefixes)
        if _lines(out / name) != expected:
            problems.append(f"{name} is not {copies} renamed copies of the "
                            "30-sentence output")
    return problems


def per_sentence_filters(out: Path, treebank: Path, markers: Path | None, seed: int) -> list:
    """Filtering each sentence's candidates alone, in a shuffled order,
    gives the verdicts of the batch run."""
    from karaka_qg.filters import FilterConfig, run_filters
    from karaka_qg.morphology import DEFAULT_MARKERS, load_marker_table
    from karaka_qg.rule_engine import read_candidates_jsonl
    from karaka_qg.treebank_io import load_treebank

    cfg = FilterConfig(markers=load_marker_table(markers) if markers else DEFAULT_MARKERS)
    sentences = load_treebank(treebank)
    by_sentence = {}
    for c in read_candidates_jsonl(out / "candidates.jsonl"):
        by_sentence.setdefault(c.sentence_id, []).append(c)
    random.Random(seed).shuffle(sentences)
    alone = {}
    for s in sentences:
        _, verdicts = run_filters(by_sentence.get(s.sentence_id, []), [s], cfg)
        for v in verdicts:
            alone[v.candidate_id] = v.to_json_dict()
    batch = [json.loads(line) for line in _lines(out / "verdicts.jsonl")]
    differing = [v["candidate_id"] for v in batch if alone.get(v["candidate_id"]) != v]
    if len(alone) != len(batch) or differing:
        first = differing[0] if differing else "-"
        return [f"per-sentence filtering differs from the batch run on "
                f"{len(differing)} of {len(batch)} verdicts (first {first})"]
    return []


def _row(ids, syntax, semantic) -> dict:
    if not syntax:
        return {"syntax_mean": None, "syntax_median": None, "semantic_mean": None,
                "semantic_median": None, "count": len(ids)}
    return {
        "syntax_mean": statistics.fmean(syntax),
        "syntax_median": statistics.median_low(syntax),
        "semantic_mean": statistics.fmean(semantic),
        "semantic_median": statistics.median_low(semantic),
        "count": len(ids),
    }


def _same(actual, expected) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(_same(actual[k], expected[k]) for k in expected))
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= MEAN_TOLERANCE
    return actual == expected


def eval_output(stdout: Path, eval_dir: Path, ratings) -> list:
    """Per-karaka rows, totals and before/after recomputed from the ratings."""
    karaka = {}
    kept = set()
    for line in _lines(eval_dir / "candidates.jsonl"):
        c = json.loads(line)
        karaka[c["candidate_id"]] = c["karaka"]
    for line in _lines(eval_dir / "verdicts.jsonl"):
        v = json.loads(line)
        if v["kept"]:
            kept.add(v["candidate_id"])
    groups = {}
    for cid, k in karaka.items():
        groups.setdefault(k, (set(), [], []))[0].add(cid)
    for cid, _, syntax, semantic in ratings:
        _, syn, sem = groups[karaka[cid]]
        syn.append(syntax)
        sem.append(semantic)
    expected_table = {
        "rows": {k: _row(*g) for k, g in groups.items()},
        "totals": _row(set(karaka), [r[2] for r in ratings], [r[3] for r in ratings]),
    }

    def split(ids):
        rows = [r for r in ratings if r[0] in ids]
        syn = [r[2] for r in rows]
        return {"syntax_mean": statistics.fmean(syn) if syn else None,
                "semantic_mean": statistics.fmean([r[3] for r in rows]) if syn else None,
                "count": len(ids)}

    expected = {"table": expected_table,
                "before_after": {"before": split(set(karaka)), "after": split(kept)}}
    try:
        payload = json.loads(stdout.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"eval output is not JSON: {exc}"]
    problems = []
    for key in ("table", "before_after"):
        if not _same(payload.get(key), expected[key]):
            problems.append(f"eval {key} differs from the statistics recomputed "
                            "from the generated ratings")
    return problems
