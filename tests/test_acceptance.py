"""Acceptance gate for the toolkit.

Each test here pins one released behavior, so `pytest -v` reports one
pass or fail line per criterion:

1. golden question strings for all twelve substitution rules,
2. a five-candidate end-to-end run with byte-identical reruns, and the
   pinned bytes of the bundled corpus's data files,
3. drop attribution for the order, agreement, repetition, and length filters,
4. overgeneration and pruning volume on the bundled corpus,
5. aggregation statistics reproduced from frozen rating fixtures,
6. the randomized property suite finishing within its time budget.

Golden strings and reference statistics are frozen by hand computation;
do not regenerate them from the code under test. Mean comparisons allow
an absolute tolerance of 0.001, medians and counts are exact.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from helpers import bundled_corpus_text, load_bundled_corpus, make_lexicon, make_rated_candidate, make_sentence, texts, write_ratings
from karaka_qg.cli import main
from karaka_qg.evaluation import aggregate, before_after, load_ratings
from karaka_qg.filters import FilterConfig, FilterId, FilterVerdict, run_filters
from karaka_qg.lexicon import SemanticLexicon, default_lexicon
from karaka_qg.rule_engine import RuleId, generate_all
from karaka_qg.treebank_io import KARAKA_ORDER

TOL = 0.001
EMPTY = SemanticLexicon()

# --- criterion 1: golden outputs per rule ---------------------------------

GOLDEN_CASES = (
    (
        "ergative agent asks kisne",
        [("raam", "raam", "PROPN", "_", 5, "k1"),
         ("ne", "ne", "ADP", "_", 1, "psp"),
         ("seb", "seb", "NOUN", "_", 5, "k2"),
         ("ko", "ko", "ADP", "_", 3, "psp"),
         ("khaya", "kha", "VERB", "_", 0, "root")],
        {},
        RuleId.R_K1,
        ["kisne seb ko khaya ?"],
    ),
    (
        "direct agent asks kaun",
        [("raam", "raam", "PROPN", "_", 4, "k1"),
         ("seb", "seb", "NOUN", "_", 4, "k2"),
         ("ko", "ko", "ADP", "_", 2, "psp"),
         ("kha", "kha", "VERB", "_", 0, "root"),
         ("raha", "rah", "AUX", "_", 4, "aux"),
         ("hai", "hai", "AUX", "_", 4, "aux")],
        {},
        RuleId.R_K1,
        ["kaun seb ko kha raha hai ?"],
    ),
    (
        "occupation complement asks kaun",
        [("raam", "raam", "PROPN", "_", 4, "k1"),
         ("ek", "ek", "NUM", "_", 3, "mod"),
         ("dauctar", "dauctar", "NOUN", "_", 4, "k1s"),
         ("hai", "hai", "VERB", "_", 0, "root")],
        {"dauctar": "OCCUPATION"},
        RuleId.R_K1S,
        ["raam kaun hai ?"],
    ),
    (
        "property complement asks kaisa",
        [("pani", "pani", "NOUN", "_", 3, "k1"),
         ("geela", "geela", "ADJ", "_", 3, "k1s"),
         ("hai", "hai", "VERB", "_", 0, "root")],
        {"geela": "PROPERTY"},
        RuleId.R_K1S,
        ["pani kaisa hai ?"],
    ),
    (
        "accusative patient asks kisko",
        [("raam", "raam", "PROPN", "_", 4, "k1"),
         ("seb", "seb", "NOUN", "_", 4, "k2"),
         ("ko", "ko", "ADP", "_", 2, "psp"),
         ("khaataa", "kha", "VERB", "_", 0, "root"),
         ("hai", "hai", "AUX", "_", 4, "aux")],
        {},
        RuleId.R_K2,
        ["raam kisko khaataa hai ?"],
    ),
    (
        "direct patient asks kya",
        [("raam", "raam", "PROPN", "_", 3, "k1"),
         ("seb", "seb", "NOUN", "_", 3, "k2"),
         ("khaataa", "kha", "VERB", "_", 0, "root"),
         ("hai", "hai", "AUX", "_", 3, "aux")],
        {},
        RuleId.R_K2,
        ["raam kya khaataa hai ?"],
    ),
    (
        "goal location asks kidhar and kahan",
        [("siita", "siita", "PROPN", "_", 3, "k1"),
         ("bazar", "bazar", "NOUN", "_", 3, "k2p"),
         ("gayi", "ja", "VERB", "_", 0, "root"),
         ("thi", "thi", "AUX", "_", 3, "aux")],
        {},
        RuleId.R_K2P,
        ["siita kidhar gayi thi ?", "siita kahan gayi thi ?"],
    ),
    (
        "path instrument asks kisse and kisse hokar",
        [("bus", "bus", "NOUN", "_", 4, "k1"),
         ("sadak", "sadak", "NOUN", "_", 4, "k3"),
         ("se", "se", "ADP", "_", 2, "psp"),
         ("jaati", "ja", "VERB", "_", 0, "root"),
         ("hai", "hai", "AUX", "_", 4, "aux")],
        {"sadak": "PATH"},
        RuleId.R_K3,
        ["bus kisse jaati hai ?", "bus kisse hokar jaati hai ?"],
    ),
    (
        "agentive instrument asks kiske dwaaraa",
        [("chitthi", "chitthi", "NOUN", "_", 5, "k1"),
         ("daak", "daak", "NOUN", "_", 5, "k3"),
         ("ke", "ke", "ADP", "_", 2, "psp"),
         ("dwaaraa", "dwaaraa", "ADP", "_", 2, "psp"),
         ("jaati", "ja", "VERB", "_", 0, "root"),
         ("hai", "hai", "AUX", "_", 5, "aux")],
        {"daak": "NONLIVING"},
        RuleId.R_K3,
        ["chitthi kiske dwaaraa jaati hai ?"],
    ),
    (
        "human purpose asks kiske liye",
        [("raam", "raam", "PROPN", "_", 6, "k1"),
         ("ne", "ne", "ADP", "_", 1, "psp"),
         ("dost", "dost", "NOUN", "_", 6, "rt"),
         ("ke", "ke", "ADP", "_", 3, "psp"),
         ("liye", "liye", "ADP", "_", 3, "psp"),
         ("likha", "likh", "VERB", "_", 0, "root")],
        {"dost": "HUMAN"},
        RuleId.R_RT,
        ["raam ne kiske liye likha ?"],
    ),
    (
        "non-human purpose asks kyon",
        [("raam", "raam", "PROPN", "_", 6, "k1"),
         ("ne", "ne", "ADP", "_", 1, "psp"),
         ("inaam", "inaam", "NOUN", "_", 6, "rt"),
         ("ke", "ke", "ADP", "_", 3, "psp"),
         ("liye", "liye", "ADP", "_", 3, "psp"),
         ("likha", "likh", "VERB", "_", 0, "root")],
        {"inaam": "NONLIVING"},
        RuleId.R_RT,
        ["raam ne kyon likha ?"],
    ),
    (
        "reason clause becomes preverbal kyon",
        [("raam", "raam", "PROPN", "_", 4, "k1"),
         ("ne", "ne", "ADP", "_", 1, "psp"),
         ("kaam", "kaam", "NOUN", "_", 4, "k2"),
         ("kiya", "kar", "VERB", "_", 0, "root"),
         ("kyunki", "kyunki", "SCONJ", "_", 4, "rh"),
         ("paisa", "paisa", "NOUN", "_", 7, "k2"),
         ("chahiye", "chahiye", "VERB", "_", 5, "ccof"),
         ("tha", "tha", "AUX", "_", 7, "aux")],
        {},
        RuleId.R_RH,
        ["raam ne kaam kyon kiya ?"],
    ),
    (
        "place source keeps its marker",
        [("chor", "chor", "NOUN", "_", 4, "k1"),
         ("ghar", "ghar", "NOUN", "_", 4, "k5"),
         ("se", "se", "ADP", "_", 2, "psp"),
         ("bhaagaa", "bhaag", "VERB", "_", 0, "root")],
        {"ghar": "PLACE"},
        RuleId.R_K5,
        ["chor kahan se bhaagaa ?", "chor kidhar se bhaagaa ?"],
    ),
    (
        "person source asks kisse",
        [("baccha", "baccha", "NOUN", "_", 4, "k1"),
         ("guru", "guru", "NOUN", "_", 4, "k5"),
         ("se", "se", "ADP", "_", 2, "psp"),
         ("bhaagaa", "bhaag", "VERB", "_", 0, "root")],
        {"guru": "HUMAN"},
        RuleId.R_K5,
        ["baccha kisse bhaagaa ?"],
    ),
    (
        "possessor asks the marker-matched kiske",
        [("raam", "raam", "PROPN", "_", 3, "r6"),
         ("ke", "ke", "ADP", "_", 1, "psp"),
         ("bete", "beta", "NOUN", "_", 4, "k1"),
         ("ja", "ja", "VERB", "_", 0, "root"),
         ("rahe", "rah", "AUX", "_", 4, "aux"),
         ("hain", "hai", "AUX", "_", 4, "aux")],
        {},
        RuleId.R_R6,
        ["kiske bete ja rahe hain ?"],
    ),
    (
        "nonliving possession asks kaun si vastu with feminine agreement",
        [("mohan", "mohan", "PROPN", "_", 3, "r6"),
         ("ka", "ka", "ADP", "_", 1, "psp"),
         ("saamaan", "saamaan", "NOUN", "_", 4, "k1"),
         ("ja", "ja", "VERB", "_", 0, "root"),
         ("raha", "rah", "AUX", "_", 4, "aux"),
         ("hain", "hai", "AUX", "_", 4, "aux")],
        {"saamaan": "NONLIVING"},
        RuleId.R_R6_NONLIVING,
        ["mohan ki kaun si vastu ja rahi hain ?"],
    ),
    (
        "spatial locative asks kahan, kidhar, and kis mein",
        [("billi", "billi", "NOUN", "_", 4, "k1"),
         ("kamre", "kamra", "NOUN", "_", 4, "k7s"),
         ("mein", "mein", "ADP", "_", 2, "psp"),
         ("baithi", "baith", "VERB", "_", 0, "root"),
         ("thi", "thi", "AUX", "_", 4, "aux")],
        {},
        RuleId.R_K7S,
        ["billi kahan baithi thi ?", "billi kidhar baithi thi ?", "billi kis mein baithi thi ?"],
    ),
    (
        "date temporal asks kab, kis din, and konse din",
        [("siita", "siita", "PROPN", "_", 4, "k1"),
         ("somvar", "somvar", "NOUN", "_", 4, "k7t"),
         ("ko", "ko", "ADP", "_", 2, "psp"),
         ("jaegi", "ja", "VERB", "_", 0, "root")],
        {"somvar": "DATE"},
        RuleId.R_K7T,
        ["siita kab jaegi ?", "siita kis din jaegi ?", "siita konse din jaegi ?"],
    ),
)


def test_criterion_1_golden_rule_outputs_are_exact():
    start = time.perf_counter()
    covered = set()
    for label, rows, lexicon_kwargs, rule, expected in GOLDEN_CASES:
        sentence = make_sentence(rows)
        lexicon = make_lexicon(**lexicon_kwargs)
        produced = texts(generate_all(sentence, lexicon, enabled={rule}))
        assert produced == expected, f"{label}: {produced!r} != {expected!r}"
        covered.add(rule)
    assert covered == set(RuleId)
    assert time.perf_counter() - start < 1.0


# --- criterion 2: end-to-end run with stable bytes -------------------------

FIVE_CANDIDATE_INPUT = """\
# sent_id = d001
1\tkal\tkal\tNOUN\t_\t6\tk7t
2\traam\traam\tPROPN\t_\t6\tk1
3\tne\tne\tADP\t_\t2\tpsp
4\traavan\traavan\tPROPN\t_\t6\tk2
5\tko\tko\tADP\t_\t4\tpsp
6\tmara\tmaar\tVERB\t_\t0\troot
7\t।\t।\tPUNCT\t_\t6\tpunct
"""

FROZEN_FIRST_LINE = (
    '{"candidate_id": "d001:R_K1:2:0", "sentence_id": "d001", "rule": "R_K1",'
    ' "karaka": "k1", "interrogative": "kisne",'
    ' "tokens": ["kal", "kisne", "raavan", "ko", "mara", "?"],'
    ' "variation_group": "d001:R_K1:2:g0", "target_token_id": 2, "notes": []}'
)

EXPECTED_FIVE = [
    ("d001:R_K1:2:0", "kal kisne raavan ko mara ?"),
    ("d001:R_K2:4:0", "kal raam ne kisko mara ?"),
    ("d001:R_K7T:1:0", "kab raam ne raavan ko mara ?"),
    ("d001:R_K7T:1:1", "kis din raam ne raavan ko mara ?"),
    ("d001:R_K7T:1:2", "konse din raam ne raavan ko mara ?"),
]


def test_criterion_2_five_candidates_with_byte_identical_reruns(tmp_path):
    src = tmp_path / "input.conllu"
    src.write_text(FIVE_CANDIDATE_INPUT, encoding="utf-8")
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["generate", "--input", str(src), "--out", str(first)]) == 0
    assert main(["generate", "--input", str(src), "--out", str(second)]) == 0

    lines = (first / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert [(r["candidate_id"], " ".join(r["tokens"])) for r in rows] == EXPECTED_FIVE
    assert {r["rule"] for r in rows} == {"R_K1", "R_K2", "R_K7T"}
    assert lines[0] == FROZEN_FIRST_LINE
    assert (first / "candidates.jsonl").read_bytes() == (second / "candidates.jsonl").read_bytes()


# sha256 of the data files of `pipeline` over the bundled corpus with default
# flags, recorded from the seed commit (perfbench/checks.py BASE_SHA256).
BUNDLED_SHA256 = {
    "candidates.jsonl": "3607d2a42d4403839d522c84eaf99008743823366a5607c68f3b53ee1655f9ff",
    "kept.jsonl": "067cea7065a5dadcbeae054d18273fd8d0a249f15042231faf7ca76827c5c79b",
    "verdicts.jsonl": "e3039c51f26d9a779a52df7037c30a0b2ae066a21ab49a770589578a7076a58f",
}


def test_criterion_2_bundled_corpus_data_files_keep_their_bytes(tmp_path):
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    assert main(["pipeline", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in BUNDLED_SHA256}
    assert digests == BUNDLED_SHA256


# --- criterion 3: filter drop attribution ----------------------------------

def verdicts_by_text(sentence, theta=5):
    candidates = generate_all(sentence, EMPTY)
    _, verdicts = run_filters(candidates, [sentence], FilterConfig(theta=theta))
    by_id = {c.candidate_id: c.text for c in candidates}
    return {by_id[v.candidate_id]: v for v in verdicts}


def test_criterion_3_filters_attribute_their_drops():
    postverbal = make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 3, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("kaha", "kah", "VERB", "_", 0, "root"),
        ("-", "-", "PUNCT", "_", 3, "punct"),
        ("baat", "baat", "NOUN", "_", 3, "k2"),
    ])
    verdicts = verdicts_by_text(postverbal)
    assert verdicts["hawaa ne kaha - kya ?"].dropped_by is FilterId.F_WORD_ORDER

    feminine = make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 6, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("taakat", "taakat", "NOUN", "_", 6, "k2"),
        ("dikhani", "dikha", "VERB", "_", 6, "pof"),
        ("shuru", "shuru", "NOUN", "_", 6, "pof"),
        ("ki", "kar", "VERB", "Gender=Fem", 0, "root"),
    ])
    verdicts = verdicts_by_text(feminine)
    assert verdicts["hawaa ne kya dikhani shuru ki ?"].dropped_by is FilterId.F_GENDER_AGREEMENT

    masculine = make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 6, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("taakat", "taakat", "NOUN", "_", 6, "k2"),
        ("dikhana", "dikha", "VERB", "_", 6, "pof"),
        ("shuru", "shuru", "NOUN", "_", 6, "pof"),
        ("kiya", "kar", "VERB", "_", 0, "root"),
    ])
    verdicts = verdicts_by_text(masculine)
    assert verdicts["hawaa ne kya dikhana shuru kiya ?"].kept

    questioning = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("kaun", "kaun", "PRON", "_", 3, "k1s"),
        ("hai", "hai", "VERB", "_", 0, "root"),
    ])
    verdicts = verdicts_by_text(questioning)
    assert verdicts
    assert all(v.dropped_by is FilterId.F_ALREADY_QUESTION for v in verdicts.values())

    conjunct = make_sentence([
        ("raam", "raam", "PROPN", "_", 6, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("lal", "lal", "ADJ", "_", 4, "mod"),
        ("seb", "seb", "NOUN", "_", 6, "k2"),
        ("kal", "kal", "NOUN", "_", 6, "k7t"),
        ("khaya", "kha", "VERB", "_", 0, "root"),
        ("aur", "aur", "CCONJ", "_", 6, "coof"),
        ("siita", "siita", "PROPN", "_", 11, "k1"),
        ("ne", "ne", "ADP", "_", 8, "psp"),
        ("paani", "paani", "NOUN", "_", 11, "k2"),
        ("piya", "pi", "VERB", "_", 7, "ccof"),
        ("ghar", "ghar", "NOUN", "_", 11, "k7s"),
        ("mein", "mein", "ADP", "_", 12, "psp"),
    ])
    strict = verdicts_by_text(conjunct, theta=5)
    assert strict
    assert all(v.dropped_by is FilterId.F_COMPLEX_COMPOUND for v in strict.values())
    relaxed = verdicts_by_text(conjunct, theta=7)
    assert all(v.kept for v in relaxed.values())


# --- criterion 4: bundled corpus volume -------------------------------------

def test_criterion_4_bundled_corpus_overgenerates_then_prunes():
    sentences = load_bundled_corpus()
    assert len(sentences) == 30
    for s in sentences:
        labeled = sum(1 for t in s.tokens if t.deprel in KARAKA_ORDER)
        assert labeled >= 2, f"{s.sentence_id} carries {labeled} karaka labels"

    lexicon = default_lexicon()
    candidates = [c for s in sentences for c in generate_all(s, lexicon)]
    assert len(candidates) >= 2 * len(sentences)
    assert len(candidates) == 96

    kept, verdicts = run_filters(candidates, sentences)
    assert len(kept) < len(candidates)
    assert len(kept) == 75
    drops = {f: 0 for f in FilterId}
    for v in verdicts:
        if not v.kept:
            drops[v.dropped_by] += 1
    assert all(count >= 1 for count in drops.values())
    assert drops == {
        FilterId.F_ANAPHORA: 7,
        FilterId.F_GENDER_AGREEMENT: 4,
        FilterId.F_WORD_ORDER: 1,
        FilterId.F_ALREADY_QUESTION: 4,
        FilterId.F_COMPLEX_COMPOUND: 5,
    }


# --- criterion 5: frozen aggregation statistics -----------------------------

KARAKA_SIZES = (
    ("k1", 30), ("k1s", 7), ("k2", 17), ("k2p", 2), ("rt", 4),
    ("rh", 1), ("k5", 6), ("r6", 13), ("k7t", 14), ("k7p", 18),
)
ANNOTATORS = ("a1", "a2", "a3", "a4", "a5")


def expand(pairs):
    scores = []
    for count, score in pairs:
        scores.extend([score] * count)
    return scores


def build_candidates():
    candidates = []
    for karaka, size in KARAKA_SIZES:
        for i in range(size):
            candidates.append(make_rated_candidate(f"{karaka}-{i:03d}", karaka))
    return candidates


def rating_rows(candidates, syntax_scores, semantic_scores):
    cells = [(c.candidate_id, a) for c in candidates for a in ANNOTATORS]
    assert len(cells) == len(syntax_scores) == len(semantic_scores)
    return [
        (cid, annotator, syn, sem)
        for (cid, annotator), syn, sem in zip(cells, syntax_scores, semantic_scores)
    ]


def test_criterion_5_reference_statistics_reproduced(tmp_path):
    candidates = build_candidates()
    assert len(candidates) == 112
    agents = [c for c in candidates if c.karaka == "k1"]
    others = [c for c in candidates if c.karaka != "k1"]

    # Per-karaka table fixture: the agent row must land on mean 4.28,
    # median 5 (syntax) and 3.76, median 4 (semantic); the totals row on
    # 3.019, median 3 and 3.336, median 4.
    agent_rows = rating_rows(
        agents,
        expand([(34, 3), (40, 4), (76, 5)]),
        expand([(16, 1), (14, 2), (80, 4), (40, 5)]),
    )
    other_rows = rating_rows(
        others,
        expand([(88, 1), (100, 2), (143, 3), (63, 4), (16, 5)]),
        expand([(50, 1), (60, 2), (116, 3), (134, 4), (50, 5)]),
    )
    table_csv = tmp_path / "table_ratings.csv"
    write_ratings(table_csv, agent_rows + other_rows)
    table = aggregate(load_ratings(table_csv), candidates)

    agent_row = table.rows["k1"]
    assert agent_row.count == 30
    assert abs(agent_row.syntax_mean - 4.28) <= TOL
    assert agent_row.syntax_median == 5
    assert abs(agent_row.semantic_mean - 3.76) <= TOL
    assert agent_row.semantic_median == 4

    totals = table.totals
    assert totals.count == 112
    assert abs(totals.syntax_mean - 3.019) <= TOL
    assert totals.syntax_median == 3
    assert abs(totals.semantic_mean - 3.336) <= TOL
    assert totals.semantic_median == 4

    # Before/after fixture: pruning 112 candidates down to 68 must lift
    # the syntax mean from 3.336 to 3.726 and the semantic mean from
    # 3.019 to 3.244.
    kept_candidates = candidates[:68]
    dropped_candidates = candidates[68:]
    kept_rows = rating_rows(
        kept_candidates,
        expand([(93, 3), (247, 4)]),
        expand([(257, 3), (83, 4)]),
    )
    dropped_rows = rating_rows(
        dropped_candidates,
        expand([(59, 2), (161, 3)]),
        expand([(72, 2), (148, 3)]),
    )
    split_csv = tmp_path / "split_ratings.csv"
    write_ratings(split_csv, kept_rows + dropped_rows)
    kept_ids = {c.candidate_id for c in kept_candidates}
    verdicts = [
        FilterVerdict(c.candidate_id, c.candidate_id in kept_ids,
                      None if c.candidate_id in kept_ids else FilterId.F_ANAPHORA)
        for c in candidates
    ]
    ba = before_after(load_ratings(split_csv), candidates, verdicts)

    assert ba.before.count == 112
    assert ba.after.count == 68
    assert abs(ba.before.syntax_mean - 3.336) <= TOL
    assert abs(ba.after.syntax_mean - 3.726) <= TOL
    assert abs(ba.before.semantic_mean - 3.019) <= TOL
    assert abs(ba.after.semantic_mean - 3.244) <= TOL


# --- criterion 6: property suite budget --------------------------------------

def test_criterion_6_property_suite_finishes_under_ten_seconds():
    properties = Path(__file__).with_name("test_properties.py")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(properties)],
        capture_output=True,
        text=True,
        cwd=str(properties.parent.parent),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"
