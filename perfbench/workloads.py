"""Inputs of the three workloads, built from the seed before any timing.

``bundled_x``  the packaged 30-sentence corpus, BUNDLED_COPIES times, each
               copy's sent_ids renamed and all sentences shuffled by seed.
``long_trees`` LONG_SENTENCES unique trees from ``longtrees``, run with a
               --markers table equal to the builtin one and a --lexicon
               that covers part of the generator's lemmas. The job of
               REFERENCE_SEED is also run, untimed, and its outputs
               compared with the bytes recorded in ``checks``.
``rated_eval`` the outputs of the 30-sentence corpus RATED_COPIES times
               (what ``bundled_x`` would write for that many copies) and a
               seeded ratings CSV with ANNOTATORS raters per candidate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import longtrees

BUNDLED_COPIES = 50
LONG_SENTENCES = 200
REFERENCE_SEED = 0
RATED_COPIES = 150
ANNOTATORS = 3
ANNOTATOR_POOL = tuple(f"a{i}" for i in range(1, 9))

# The builtin marker table of karaka_qg.morphology, as a --markers file.
MARKER_ROWS = (
    ("erg", "ne"), ("acc", "ko"), ("ins", "se"), ("ins", "ke dwaaraa"),
    ("gen", "ka"), ("gen", "ke"), ("gen", "ki"), ("loc", "mein"), ("loc", "par"),
    ("ben", "ke liye"), ("because", "kyunki"),
    ("wh", "kaun"), ("wh", "kisne"), ("wh", "kisko"), ("wh", "kya"), ("wh", "kidhar"),
    ("wh", "kahan"), ("wh", "kisse"), ("wh", "kiske dwaaraa"), ("wh", "kisse hokar"),
    ("wh", "kiske liye"), ("wh", "kyon"), ("wh", "kiska"), ("wh", "kiske"), ("wh", "kiski"),
    ("wh", "kaun si"), ("wh", "kis mein"), ("wh", "kis par"), ("wh", "kab"),
    ("wh", "kis din"), ("wh", "konse din"), ("wh", "kaisa"),
)

PIPELINE_FILES = ("candidates.jsonl", "kept.jsonl", "verdicts.jsonl")


@dataclass
class Job:
    """One workload's inputs and how to run the command over them."""

    name: str
    args: list            # karaka-qg arguments, with OUT standing for the output dir
    items: int            # sentences, or rating rows for eval
    item_name: str
    shape: dict = field(default_factory=dict)
    treebank: Path | None = None
    markers: Path | None = None
    eval_dir: Path | None = None
    ratings: list = field(default_factory=list)

    @property
    def is_pipeline(self) -> bool:
        return self.args[0] == "pipeline"

    def argv(self, out_dir: Path) -> list:
        return [str(out_dir) if a == "OUT" else a for a in self.args]


def markers_tsv() -> str:
    return "".join(f"{role}\t{form}\n" for role, form in MARKER_ROWS)


def split_blocks(treebank_text: str) -> list:
    return [b for b in treebank_text.strip("\n").split("\n\n") if b.strip()]


def copy_prefixes(copies: int) -> list:
    width = len(str(max(copies - 1, 0)))
    return [f"x{k:0{width}d}" for k in range(copies)]


def renamed_block(block: str, prefix: str) -> str:
    lines = block.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("# sent_id = "):
            lines[i] = "# sent_id = " + prefix + line[len("# sent_id = "):]
    return "\n".join(lines)


def renamed_lines(lines, prefixes) -> list:
    """JSONL lines of every copy, each id prefixed; sorted as the CLI sorts.

    Candidate and verdict lines name their sentence as the first field of
    candidate_id, and as sentence_id and the head of variation_group.
    Copies share one prefix width, so prefix order is candidate_id order.
    """
    sids = [json.loads(line)["candidate_id"].split(":", 1)[0] for line in lines]
    out = []
    for prefix in prefixes:
        for line, sid in zip(lines, sids):
            out.append(line.replace(f'"{sid}:', f'"{prefix}{sid}:')
                           .replace(f'"{sid}"', f'"{prefix}{sid}"'))
    return out


def build_bundled(work: Path, seed: int, corpus_text: str) -> Job:
    blocks = split_blocks(corpus_text)
    copies = [renamed_block(b, p) for p in copy_prefixes(BUNDLED_COPIES) for b in blocks]
    random.Random(seed).shuffle(copies)
    path = work / "bundled.conllu"
    path.write_text("\n\n".join(copies) + "\n", encoding="utf-8")
    return Job("bundled_x", ["pipeline", "--input", str(path), "--out", "OUT"],
               items=len(copies), item_name="sentences",
               shape={"sentences": len(copies), "copies": BUNDLED_COPIES},
               treebank=path)


def build_long_trees(work: Path, seed: int) -> Job:
    text, shape = longtrees.generate(seed, LONG_SENTENCES)
    path = work / "long_trees.conllu"
    path.write_text(text, encoding="utf-8")
    lexicon = work / "long_trees_lexicon.tsv"
    lexicon.write_text(longtrees.lexicon_tsv(), encoding="utf-8")
    markers = work / "markers.tsv"
    markers.write_text(markers_tsv(), encoding="utf-8")
    args = ["pipeline", "--input", str(path), "--out", "OUT",
            "--markers", str(markers), "--lexicon", str(lexicon)]
    return Job("long_trees", args, items=LONG_SENTENCES, item_name="sentences",
               shape=shape, treebank=path, markers=markers)


def ratings_rows(candidate_ids, seed: int) -> list:
    """(candidate_id, annotator_id, syntax, semantic) rows in seeded order."""
    rng = random.Random(seed)
    rows = []
    for cid in candidate_ids:
        for annotator in sorted(rng.sample(ANNOTATOR_POOL, ANNOTATORS)):
            rows.append((cid, annotator, rng.randint(1, 5), rng.randint(1, 5)))
    rng.shuffle(rows)
    return rows


def build_rated(work: Path, seed: int, base_out: Path) -> Job:
    """Eval inputs from the 30-sentence outputs in ``base_out``."""
    eval_dir = work / "rated"
    eval_dir.mkdir()
    prefixes = copy_prefixes(RATED_COPIES)
    for name in ("candidates.jsonl", "verdicts.jsonl"):
        lines = (base_out / name).read_text(encoding="utf-8").splitlines()
        (eval_dir / name).write_text("\n".join(renamed_lines(lines, prefixes)) + "\n",
                                     encoding="utf-8")
    ids = [json.loads(line)["candidate_id"] for line in
           (eval_dir / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    rows = ratings_rows(ids, seed)
    ratings = work / "ratings.csv"
    ratings.write_text("candidate_id,annotator_id,syntax,semantic\n"
                       + "".join(f"{c},{a},{x},{y}\n" for c, a, x, y in rows),
                       encoding="utf-8")
    args = ["eval", "--out", str(eval_dir), "--ratings", str(ratings), "--format", "json"]
    return Job("rated_eval", args, items=len(rows), item_name="ratings",
               shape={"candidates": len(ids), "ratings": len(rows),
                      "annotators_per_candidate": ANNOTATORS},
               eval_dir=eval_dir, ratings=rows)
