"""Tests for candidate generation mechanics shared by all rules."""

import json
import re
from enum import Enum
from itertools import combinations
from typing import NamedTuple

import pytest

from helpers import load_bundled_corpus, make_lexicon, make_sentence, texts
from karaka_qg.lexicon import SemanticCategory, SemanticLexicon, default_lexicon
from karaka_qg.morphology import DEFAULT_MARKERS, MarkerTable
from karaka_qg.treebank_io import KARAKA_ORDER
from karaka_qg.rule_engine import (
    DIRECT,
    OTHER,
    RULE_FUNCTIONS,
    SUBSTITUTIONS,
    TERMINAL_PUNCT,
    QuestionCandidate,
    Role,
    RuleId,
    Substitution,
    _build_tokens,
    apply_substitution,
    gen_r6_nonliving,
    gen_rh,
    generate_all,
    read_candidates_jsonl,
)
from karaka_qg.filters import FilterId, FilterVerdict
from karaka_qg.textfile import JsonlError, jsonl_record, read_jsonl, write_jsonl

M = DEFAULT_MARKERS
RULE = dict(RULE_FUNCTIONS)
EMPTY = SemanticLexicon()


def goal_sentence(sentence_id="t001"):
    return make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("ghar", "ghar", "NOUN", "_", 3, "k2p"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
        ("।", "।", "PUNCT", "_", 3, "punct"),
    ], sentence_id)


def test_candidate_ids_count_variants_within_target():
    cands = RULE[RuleId.R_K2P](goal_sentence(), EMPTY, M)
    assert [c.candidate_id for c in cands] == ["t001:R_K2P:2:0", "t001:R_K2P:2:1"]
    assert {c.variation_group for c in cands} == {"t001:R_K2P:2:g0"}
    assert texts(cands) == ["raam kidhar gaya ?", "raam kahan gaya ?"]


def test_two_targets_get_separate_groups():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 5, "k1"),
        ("ghar", "ghar", "NOUN", "_", 5, "k2p"),
        ("aur", "aur", "CCONJ", "_", 4, "cc"),
        ("bazar", "bazar", "NOUN", "_", 5, "k2p"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K2P](s, EMPTY, M)
    assert len(cands) == 4
    groups = {c.variation_group for c in cands}
    assert groups == {"t001:R_K2P:2:g0", "t001:R_K2P:4:g0"}
    target_ids = {c.target_token_id for c in cands}
    assert target_ids == {2, 4}


def test_terminal_punctuation_replaced_by_question_mark():
    for cand in RULE[RuleId.R_K2P](goal_sentence(), EMPTY, M):
        assert cand.tokens[-1] == "?"
        assert "।" not in cand.tokens


def tokens_by_walk(s, delete_ids, insert_at, insert_forms, replacements=None):
    """The reference copy: _build_tokens as a walk over every token, before it took slices."""
    out = []
    for t in s.tokens:
        if t.id == insert_at:
            out.extend(insert_forms)
        if t.id in delete_ids:
            continue
        if replacements and t.id in replacements:
            out.append(replacements[t.id])
        else:
            out.append(t.form)
    if out and out[-1] in TERMINAL_PUNCT:
        out.pop()
    out.append("?")
    return tuple(out)


def test_token_copy_matches_the_walk_for_every_deletion_and_insertion_point():
    s = make_sentence([
        ("kal", "kal", "NOUN", "_", 5, "k7t"),
        ("raam", "raam", "PROPN", "_", 5, "k1"),
        ("ne", "ne", "ADP", "_", 2, "psp"),
        ("seb", "seb", "NOUN", "_", 5, "k2"),
        ("khaaya", "khaa", "VERB", "_", 0, "root"),
        ("।", "।", "PUNCT", "_", 5, "punct"),
    ])
    ids = range(1, 7)
    delete_sets = [set(c) for k in range(7) for c in combinations(ids, k)]
    # One run of ids is copied by slices, any other set by a walk; both are compared here.
    runs = [d for d in delete_sets if d and max(d) - min(d) + 1 == len(d)]
    assert len(delete_sets) == 64 and len(runs) == 21
    for replacements in (None, {3: "ki"}, {2: "usne", 5: "khaayi", 6: "."}):
        for delete in delete_sets:
            for insert_at in ids:
                args = (s, delete, insert_at, ["kaun", "si"], replacements)
                assert _build_tokens(*args) == tokens_by_walk(*args), args[1:]


def test_whole_chunk_leaves_with_its_head():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 6, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("apna", "apna", "DET", "_", 4, "mod"),
        ("ghar", "ghar", "NOUN", "_", 6, "k2"),
        ("ko", "ko", "ADP", "_", 4, "psp"),
        ("becha", "bech", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K2](s, EMPTY, M)
    assert texts(cands) == ["raam ne kisko becha ?"]


def test_unknown_copula_complement_emits_both_readings_in_one_group():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("pahalvaan", "pahalvaan", "NOUN", "_", 3, "k1s"),
        ("hai", "hai", "VERB", "_", 0, "root"),
    ])
    cands = generate_all(s, EMPTY, M, enabled={RuleId.R_K1S})
    assert texts(cands) == ["raam kaun hai ?", "raam kaisa hai ?"]
    assert len({c.variation_group for c in cands}) == 1
    assert all("unknown" in " ".join(c.notes) for c in cands)


def test_unknown_purpose_emits_distinct_meaning_groups():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 4, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("inaam", "inaam", "NOUN", "_", 4, "rt"),
        ("likha", "likh", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_RT](s, EMPTY, M)
    assert [c.interrogative for c in cands] == ["kiske liye", "kyon"]
    assert cands[0].variation_group == "t001:R_RT:3:g0"
    assert cands[1].variation_group == "t001:R_RT:3:g1"


def test_unknown_possessed_noun_does_not_trigger_agreement_mutation():
    s = make_sentence([
        ("mohan", "mohan", "PROPN", "_", 3, "r6"),
        ("ka", "ka", "ADP", "_", 1, "psp"),
        ("saamaan", "saamaan", "NOUN", "_", 4, "k1"),
        ("ja", "ja", "VERB", "_", 0, "root"),
        ("raha", "rah", "AUX", "_", 4, "aux"),
    ])
    assert gen_r6_nonliving(s, EMPTY, M) == []
    lex = make_lexicon(saamaan="NONLIVING")
    cands = gen_r6_nonliving(s, lex, M)
    assert texts(cands) == ["mohan ki kaun si vastu ja rahi ?"]
    assert cands[0].karaka == "r6"
    assert cands[0].interrogative == "kaun si"


def test_two_possessors_of_one_nonliving_noun_get_distinct_ids():
    # "mohan ka ghar ka saamaan kho gaya": both genitives modify saamaan.
    s = make_sentence([
        ("mohan", "mohan", "PROPN", "_", 5, "r6"),
        ("ka", "ka", "ADP", "_", 1, "psp"),
        ("ghar", "ghar", "NOUN", "_", 5, "r6"),
        ("ka", "ka", "ADP", "_", 3, "psp"),
        ("saamaan", "saamaan", "NOUN", "_", 6, "k1"),
        ("kho", "kho", "VERB", "_", 0, "root"),
        ("gaya", "ja", "AUX", "_", 6, "aux"),
    ])
    cands = gen_r6_nonliving(s, make_lexicon(saamaan="NONLIVING"), M)
    assert [c.candidate_id for c in cands] == [
        "t001:R_R6_NONLIVING:5:0", "t001:R_R6_NONLIVING:5:1",
    ]
    assert [c.variation_group for c in cands] == [
        "t001:R_R6_NONLIVING:5:g0", "t001:R_R6_NONLIVING:5:g1",
    ]
    assert texts(cands) == [
        "mohan ki ghar ka kaun si vastu kho gaya ?",
        "mohan ka ghar ki kaun si vastu kho gaya ?",
    ]
    # The verb's raha is read once per sentence: both candidates turn it into
    # rahi, and each rewrites only its own possessor's marker.
    s = make_sentence([
        ("mohan", "mohan", "PROPN", "_", 5, "r6"),
        ("ka", "ka", "ADP", "_", 1, "psp"),
        ("ghar", "ghar", "NOUN", "_", 5, "r6"),
        ("ka", "ka", "ADP", "_", 3, "psp"),
        ("saamaan", "saamaan", "NOUN", "_", 6, "k1"),
        ("kho", "kho", "VERB", "_", 0, "root"),
        ("raha", "rah", "AUX", "_", 6, "aux"),
        ("hai", "hai", "AUX", "_", 6, "aux"),
    ])
    assert texts(gen_r6_nonliving(s, make_lexicon(saamaan="NONLIVING"), M)) == [
        "mohan ki ghar ka kaun si vastu kho rahi hai ?",
        "mohan ka ghar ki kaun si vastu kho rahi hai ?",
    ]


def test_possessor_question_keeps_possessed_noun():
    # Each genitive marker asks the interrogative with its own gender/number ending.
    for marker, wh in (("ka", "kiska"), ("ke", "kiske"), ("ki", "kiski")):
        s = make_sentence([
            ("mohan", "mohan", "PROPN", "_", 3, "r6"),
            (marker, marker, "ADP", "_", 1, "psp"),
            ("saamaan", "saamaan", "NOUN", "_", 4, "k1"),
            ("kho", "kho", "VERB", "_", 0, "root"),
            ("gaya", "ja", "AUX", "_", 4, "aux"),
        ])
        cands = RULE[RuleId.R_R6](s, EMPTY, M)
        assert texts(cands) == [f"{wh} saamaan kho gaya ?"]


def test_possessor_without_genitive_marker_is_skipped():
    s = make_sentence([
        ("mohan", "mohan", "PROPN", "_", 2, "r6"),
        ("saamaan", "saamaan", "NOUN", "_", 3, "k1"),
        ("kho", "kho", "VERB", "_", 0, "root"),
    ])
    skipped = []
    assert RULE[RuleId.R_R6](s, EMPTY, M, skipped) == []
    assert skipped == [(s.token(1), "lacks a genitive marker")]


def test_reason_clause_subtree_removed_and_kyon_preverbal():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 4, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("kaam", "kaam", "NOUN", "_", 4, "k2"),
        ("kiya", "kar", "VERB", "_", 0, "root"),
        ("kyunki", "kyunki", "SCONJ", "_", 4, "rh"),
        ("paisa", "paisa", "NOUN", "_", 7, "k2"),
        ("chahiye", "chahiye", "VERB", "_", 5, "ccof"),
        ("tha", "tha", "AUX", "_", 7, "aux"),
    ])
    cands = gen_rh(s, EMPTY, M)
    assert texts(cands) == ["raam ne kaam kyon kiya ?"]
    assert cands[0].karaka == "rh"
    assert cands[0].target_token_id == 5


def test_place_source_retains_marker():
    s = make_sentence([
        ("chor", "chor", "NOUN", "_", 4, "k1"),
        ("ghar", "ghar", "NOUN", "_", 4, "k5"),
        ("se", "se", "ADP", "_", 2, "psp"),
        ("bhaagaa", "bhaag", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K5](s, make_lexicon(ghar="PLACE"), M)
    assert texts(cands) == ["chor kahan se bhaagaa ?", "chor kidhar se bhaagaa ?"]
    assert len({c.variation_group for c in cands}) == 1


def test_unknown_source_splits_person_and_place_groups():
    s = make_sentence([
        ("chor", "chor", "NOUN", "_", 4, "k1"),
        ("mandir", "mandir", "NOUN", "_", 4, "k5"),
        ("se", "se", "ADP", "_", 2, "psp"),
        ("bhaagaa", "bhaag", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K5](s, EMPTY, M)
    assert texts(cands) == [
        "chor kisse bhaagaa ?",
        "chor kahan se bhaagaa ?",
        "chor kidhar se bhaagaa ?",
    ]
    assert cands[0].variation_group.endswith(":g0")
    assert cands[1].variation_group.endswith(":g1")
    assert cands[2].variation_group.endswith(":g1")
    assert all(c.notes for c in cands)


def test_non_ergative_agent_marker_skipped():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("se", "se", "ADP", "_", 1, "psp"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    skipped = []
    assert RULE[RuleId.R_K1](s, EMPTY, M, skipped) == []
    assert skipped == [(s.token(1), "carries non-ergative marker 'se'")]


def test_unexpected_patient_marker_skipped():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 4, "k1"),
        ("chaku", "chaku", "NOUN", "_", 4, "k2"),
        ("se", "se", "ADP", "_", 2, "psp"),
        ("kata", "kat", "VERB", "_", 0, "root"),
    ])
    skipped = []
    assert RULE[RuleId.R_K2](s, EMPTY, M, skipped) == []
    assert skipped == [(s.token(2), "carries unexpected marker 'se'")]


def test_a_row_keyed_by_direct_alone_is_keyed_by_case():
    # Were DIRECT the OTHER of a category table, both patients would be asked.
    assert DIRECT is not OTHER
    row = Substitution(RuleId.R_K2, ("k2",), asks={DIRECT: ("kya",)}, skip="carries marker {!r}")
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 5, "k1"),
        ("seb", "seb", "NOUN", "_", 5, "k2"),
        ("siita", "siita", "PROPN", "_", 5, "k2"),
        ("ko", "ko", "ADP", "_", 3, "psp"),
        ("dekha", "dekh", "VERB", "_", 0, "root"),
    ])
    skipped = []
    cands = apply_substitution(row)(s, EMPTY, M, skipped)
    assert texts(cands) == ["raam kya siita ko dekha ?"]
    assert [c.target_token_id for c in cands] == [2]
    assert skipped == [(s.token(3), "carries marker 'ko'")]


def test_alias_locative_label_routed_with_note():
    s = make_sentence([
        ("kitaab", "kitaab", "NOUN", "_", 4, "k1"),
        ("mez", "mez", "NOUN", "_", 4, "k7p"),
        ("par", "par", "ADP", "_", 2, "psp"),
        ("hai", "hai", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K7S](s, EMPTY, M)
    assert [c.interrogative for c in cands] == ["kahan", "kidhar", "kis par"]
    assert all(c.karaka == "k7p" for c in cands)
    assert all(c.rule is RuleId.R_K7S for c in cands)
    assert all("routed" in " ".join(c.notes) for c in cands)


def test_known_non_date_temporal_asks_kab_only():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("subah", "subah", "NOUN", "_", 3, "k7t"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    cands = RULE[RuleId.R_K7T](s, make_lexicon(subah="PROPERTY"), M)
    assert [c.interrogative for c in cands] == ["kab"]
    cands = RULE[RuleId.R_K7T](s, make_lexicon(subah="DATE"), M)
    assert [c.interrogative for c in cands] == ["kab", "kis din", "konse din"]
    assert len({c.variation_group for c in cands}) == 1


def test_generate_all_respects_enabled_subset():
    s = goal_sentence()
    only_agents = generate_all(s, EMPTY, M, enabled={RuleId.R_K1})
    assert [c.rule for c in only_agents] == [RuleId.R_K1]
    everything = generate_all(s, EMPTY, M)
    assert {c.rule for c in everything} == {RuleId.R_K1, RuleId.R_K2P}


def test_rule_order_is_fixed():
    assert [rule for rule, _ in RULE_FUNCTIONS] == list(RuleId)


# (sentences, lexicon, marker table, a rule the sentences must fire)
DISPATCH_CASES = {
    "bundled-corpus": (load_bundled_corpus(), default_lexicon(), M, RuleId.R_K1),
    "kyunki-not-labelled-rh": ([make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
        ("kyunki", "kyunki", "SCONJ", "_", 2, "vmod"),
        ("thaka", "thak", "VERB", "_", 3, "ccof"),
    ])], EMPTY, M, RuleId.R_RH),
    "other-because-form": ([make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
        ("chunki", "chunki", "SCONJ", "_", 2, "rh"),
        ("thaka", "thak", "VERB", "_", 3, "ccof"),
    ])], EMPTY, M._replace(because=frozenset({"chunki"})), RuleId.R_RH),
    "only-k7p": ([make_sentence([
        ("mez", "mez", "NOUN", "_", 3, "k7p"),
        ("par", "par", "ADP", "_", 1, "psp"),
        ("hai", "hai", "VERB", "_", 0, "root"),
    ])], EMPTY, M, RuleId.R_K7S),
    "r6-of-nonliving": ([make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "r6"),
        ("ka", "ka", "ADP", "_", 1, "psp"),
        ("saamaan", "saamaan", "NOUN", "_", 4, "k1"),
        ("kho", "kho", "VERB", "_", 0, "root"),
    ])], make_lexicon(saamaan="NONLIVING"), M, RuleId.R_R6_NONLIVING),
}


@pytest.mark.parametrize("case", DISPATCH_CASES.values(), ids=DISPATCH_CASES)
def test_label_dispatch_drops_no_candidate(case):
    sentences, lex, m, fired = case
    for enabled in [{rule} for rule in RuleId] + [set(RuleId)]:
        for s in sentences:
            called = [c for rule, fn in RULE_FUNCTIONS if rule in enabled for c in fn(s, lex, m)]
            assert generate_all(s, lex, m, enabled) == called, (s.sentence_id, enabled)
    assert any(c.rule is fired for s in sentences for c in generate_all(s, lex, m))


def test_an_empty_lexicon_asks_everything_the_default_lexicon_asks():
    # A lemma whose category is unknown gets every variant, so forgetting the
    # lexicon only adds questions. R_R6_NONLIVING asks only about a noun the
    # lexicon calls nonliving, so it is exempt.
    def keys(s, lex):
        return {(c.rule, c.target_token_id, c.interrogative, c.tokens)
                for c in generate_all(s, lex) if c.rule is not RuleId.R_R6_NONLIVING}

    known = unknown = 0
    for s in load_bundled_corpus():
        with_lexicon, without = keys(s, default_lexicon()), keys(s, SemanticLexicon())
        assert with_lexicon <= without, (s.sentence_id, with_lexicon - without)
        known += len(with_lexicon)
        unknown += len(without)
    assert (known, unknown) == (94, 107)


def _table_groups(asks):
    """Every variation group an ``asks`` entry can emit, at any nesting."""
    if isinstance(asks, dict):
        return [group for inner in asks.values() for group in _table_groups(inner)]
    if isinstance(asks, list):
        return list(asks)
    return [asks]


def _case_keyed(row):
    """Whether the generator reads row.asks as keyed by case: its keys are Roles."""
    return isinstance(row.asks, dict) and isinstance(next(iter(row.asks)), Role)


def test_substitution_table_stays_inside_the_label_and_interrogative_inventories():
    # F_WORD_ORDER and F_ALREADY_QUESTION only see interrogatives that the
    # marker table lists, so a table row must not emit any other.
    for row in SUBSTITUTIONS:
        groups = _table_groups(row.asks)
        assert all(isinstance(group, tuple) and group for group in groups), row.rule
        emitted = {wh for group in groups for wh in group}
        assert emitted, row.rule
        assert emitted <= DEFAULT_MARKERS.interrogatives, (
            row.rule, emitted - DEFAULT_MARKERS.interrogatives)
        assert row.keeps_marker <= emitted, (row.rule, row.keeps_marker - emitted)
        assert set(row.notes) <= set(row.labels), row.rule
        # The generator reads UNKNOWN and OTHER from every category table.
        for asks in (row.asks.values() if _case_keyed(row) else [row.asks]):
            if isinstance(asks, dict):
                assert {SemanticCategory.UNKNOWN, OTHER} <= set(asks), row.rule
    # The rows and R_RH's rh clause target exactly the karakas the summaries list.
    assert {label for row in SUBSTITUTIONS for label in row.labels} | {"rh"} == set(KARAKA_ORDER)


def test_case_keys_are_direct_or_roles_of_the_marker_table():
    roles = set(MarkerTable._fields)
    for row in SUBSTITUTIONS:
        # A table mixing case and category keys would be read by its first key alone.
        if isinstance(row.asks, dict):
            assert len({isinstance(key, Role) for key in row.asks}) == 1, row.rule
        for key in (row.asks if _case_keyed(row) else ()):
            if key is not DIRECT:
                assert key.name in roles, (row.rule, key)
                assert key.marker is None or key.marker in getattr(DEFAULT_MARKERS, key.name), (
                    row.rule, key)


class Shade(str, Enum):
    DARK = "dark"
    LIGHT = "li\"ght"


# One field of every annotation the JSONL codec supports.
@jsonl_record
class EveryField(NamedTuple):
    text: str
    count: int
    flag: bool
    words: tuple[str, ...]
    shade: Shade
    maybe_shade: Shade | None = None
    maybe_text: str | None = None


@pytest.mark.parametrize("record", [
    EveryField('q"b\\s\n\x00\x1f\u2028\u0915\U0001f600', -12, True, ("", 'a"', "\t\u0915"),
               Shade.LIGHT, Shade.DARK, "\\"),
    EveryField("", 0, False, (), Shade.DARK),
])
def test_derived_json_line_equals_json_dumps_and_reads_back(record):
    line = record.to_json_line()
    assert line == json.dumps(record.to_json_dict(), ensure_ascii=False)
    assert EveryField.from_json_dict(json.loads(line)) == record


@pytest.mark.parametrize("kind", [float, tuple[int, ...]], ids=["float", "tuple-of-int"])
def test_a_field_type_with_no_json_form_is_refused_when_declared(kind):
    class Unsupported(NamedTuple):
        value: kind

    with pytest.raises(TypeError, match=re.escape(f"no JSON form for a field of type {kind!r}")):
        jsonl_record(Unsupported)


def test_candidates_jsonl_round_trip(tmp_path):
    s = goal_sentence()
    cands = generate_all(s, EMPTY, M)
    path = tmp_path / "candidates.jsonl"
    write_jsonl(cands, path)
    loaded = read_candidates_jsonl(path)
    assert loaded == cands
    assert all(isinstance(c, QuestionCandidate) for c in loaded)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith('{"candidate_id":')


def test_candidate_json_types_follow_the_field_annotations():
    assert list(QuestionCandidate.JSON_TYPES.items()) == [
        ("candidate_id", str), ("sentence_id", str), ("rule", str), ("karaka", str),
        ("interrogative", str), ("tokens", list), ("variation_group", str),
        ("target_token_id", int), ("notes", list),
    ]


def test_candidate_line_without_notes_reads_back_with_no_notes(tmp_path):
    path = tmp_path / "candidates.jsonl"
    path.write_text('{"candidate_id": "t001:R_K1:1:0", "sentence_id": "t001", "rule": "R_K1", '
                    '"karaka": "k1", "interrogative": "kaun", "tokens": ["kaun", "gaya", "?"], '
                    '"variation_group": "t001:R_K1:1:g0", "target_token_id": 1}\n',
                    encoding="utf-8")
    assert read_candidates_jsonl(path) == [QuestionCandidate(
        "t001:R_K1:1:0", "t001", RuleId.R_K1, "k1", "kaun", ("kaun", "gaya", "?"),
        "t001:R_K1:1:g0", 1, ())]


def test_a_fault_on_line_1_comes_before_a_bad_byte_on_line_3(tmp_path):
    path = tmp_path / "candidates.jsonl"
    path.write_bytes(b'{"candidate_id": 1}\n{}\n\xff\n')
    with pytest.raises(JsonlError, match=rf"^{re.escape(str(path))}:1: field 'candidate_id' "
                                         r"must be a string, got 1$"):
        read_candidates_jsonl(path)


CANDIDATE = QuestionCandidate("t001:R_K1:1:0", "t001", RuleId.R_K1, "k1", "kaun",
                              ("kaun", "gaya", "?"), "t001:R_K1:1:g0", 1).to_json_dict()
VERDICT = FilterVerdict("t001:R_K1:1:0", False, FilterId.F_ANAPHORA, "why").to_json_dict()


def spoiled(record: dict, drop=(), **changes):
    return {**{k: v for k, v in record.items() if k not in drop}, **changes}


# Lines with two faults each: a line is checked as a whole for JSON types,
# then by the record's check, then field by field for presence and value.
@pytest.mark.parametrize("record_type, fields, message", [
    (QuestionCandidate, spoiled(CANDIDATE, drop=["sentence_id"], target_token_id="3"),
     "field 'target_token_id' must be an integer, got \"3\""),
    (QuestionCandidate, spoiled(CANDIDATE, drop=["karaka"], rule="R_X"),
     "'R_X' is not a valid RuleId"),
    (QuestionCandidate, spoiled(CANDIDATE, drop=["sentence_id"], rule="R_X"),
     "missing field 'sentence_id'"),
    (QuestionCandidate, spoiled(CANDIDATE, drop=["karaka"], tokens=["kaun", 3]),
     "field 'tokens' must be a list of strings, got [\"kaun\", 3]"),
    (QuestionCandidate, [{"target_token_id": "3"}],
     "expected a JSON object, got [{\"target_token_id\": \"3\"}]"),
    (FilterVerdict, spoiled(VERDICT, kept=True, detail=5),
     "field 'detail' must be a string, got 5"),
    (FilterVerdict, spoiled(VERDICT, drop=["candidate_id"], kept=True),
     'kept is true but dropped_by is "F_ANAPHORA"'),
    (FilterVerdict, spoiled(VERDICT, kept=True, dropped_by="F_X"),
     'kept is true but dropped_by is "F_X"'),
    (FilterVerdict, [spoiled(VERDICT, kept=True)],
     "expected a JSON object, got [{\"candidate_id\": \"t001:R_K1:1:0\", \"kept\": true, "
     "\"dropped_by\": \"F_ANAPHORA\", \"detail\": \"why\"}]"),
], ids=["mistyped-before-missing", "bad-rule-before-missing", "missing-before-bad-rule",
        "tokens-number-before-missing", "candidate-array", "mistyped-detail-before-kept",
        "kept-before-missing", "kept-before-bad-filter", "verdict-array"])
def test_a_line_with_two_faults_names_the_first_in_check_order(tmp_path, record_type, fields,
                                                                message):
    path = tmp_path / "records.jsonl"
    first = CANDIDATE if record_type is QuestionCandidate else VERDICT
    path.write_text(json.dumps({**first, "candidate_id": "first"}) + "\n"
                    + json.dumps(fields, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(JsonlError) as exc:
        read_jsonl(path, record_type)
    assert str(exc.value) == f"{path}:2: {message}"


def test_from_json_dict_checks_each_field_type():
    with pytest.raises(TypeError, match=r"^field 'target_token_id' must be an integer, got \"3\"$"):
        QuestionCandidate.from_json_dict({**CANDIDATE, "target_token_id": "3"})
