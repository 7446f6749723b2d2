"""Tests for the surface filters and their first-failure attribution."""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import load_bundled_corpus, make_sentence
from karaka_qg import filters
from karaka_qg.filters import (
    FILTER_FUNCTIONS,
    FilterConfig,
    FilterError,
    FilterId,
    FilterVerdict,
    filter_already_question,
    filter_complex,
    filter_word_order,
    read_verdicts_jsonl,
    run_filters,
    sentence_facts,
)
from karaka_qg.lexicon import SemanticLexicon, default_lexicon
from karaka_qg.morphology import interrogative_spans
from karaka_qg.rule_engine import QuestionCandidate, RuleId, generate_all
from karaka_qg.textfile import write_jsonl

EMPTY = SemanticLexicon()


def run_one(sentence, cfg=FilterConfig()):
    candidates = generate_all(sentence, EMPTY)
    kept, verdicts = run_filters(candidates, [sentence], cfg)
    return candidates, kept, {v.candidate_id: v for v in verdicts}


def pronoun_sentence():
    return make_sentence([
        ("vah", "vah", "PRON", "_", 3, "k1"),
        ("ghar", "ghar", "NOUN", "_", 3, "k2p"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])


def test_retained_pronoun_drops_candidate():
    candidates, kept, verdicts = run_one(pronoun_sentence())
    by_rule = {c.candidate_id: c.rule for c in candidates}
    for cid, verdict in verdicts.items():
        if by_rule[cid] is RuleId.R_K2P:
            assert verdict.dropped_by is FilterId.F_ANAPHORA
            assert "vah" in verdict.detail
        else:
            assert verdict.kept


def test_replaced_pronoun_is_no_longer_anaphoric():
    _, kept, _ = run_one(pronoun_sentence())
    assert [c.text for c in kept] == ["kaun ghar gaya ?"]


def test_disabling_a_filter_skips_it():
    cfg = FilterConfig(enabled=frozenset(FilterId) - {FilterId.F_ANAPHORA})
    _, kept, verdicts = run_one(pronoun_sentence(), cfg)
    assert all(v.kept for v in verdicts.values())
    assert len(kept) == 3


def feminine_transitive(root_form="ki", feats="Gender=Fem"):
    return make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 6, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("taakat", "taakat", "NOUN", "_", 6, "k2"),
        ("dikhani", "dikha", "VERB", "_", 6, "pof"),
        ("shuru", "shuru", "NOUN", "_", 6, "pof"),
        (root_form, root_form, "VERB", feats, 0, "root"),
    ])


def test_kya_with_feminine_verb_and_oblique_subject_dropped():
    _, _, verdicts = run_one(feminine_transitive())
    kya = [v for cid, v in verdicts.items() if ":R_K2:" in cid]
    assert len(kya) == 1
    assert kya[0].dropped_by is FilterId.F_GENDER_AGREEMENT


def test_kya_with_masculine_verb_kept():
    _, _, verdicts = run_one(feminine_transitive(root_form="kiya", feats="_"))
    kya = [v for cid, v in verdicts.items() if ":R_K2:" in cid]
    assert kya[0].kept


def test_kya_with_direct_subject_kept():
    s = make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 3, "k1"),
        ("taakat", "taakat", "NOUN", "_", 3, "k2"),
        ("dikhati", "dikha", "VERB", "Gender=Fem", 0, "root"),
    ])
    _, _, verdicts = run_one(s)
    kya = [v for cid, v in verdicts.items() if ":R_K2:" in cid]
    assert kya[0].kept


def test_replaced_subject_of_feminine_intransitive_dropped():
    s = make_sentence([
        ("billi", "billi", "NOUN", "_", 2, "k1"),
        ("bhaagi", "bhaag", "VERB", "Gender=Fem", 0, "root"),
    ])
    _, _, verdicts = run_one(s)
    verdict = next(iter(verdicts.values()))
    assert verdict.dropped_by is FilterId.F_GENDER_AGREEMENT


def test_replaced_subject_of_plural_intransitive_dropped():
    s = make_sentence([
        ("ladke", "ladka", "NOUN", "_", 2, "k1"),
        ("ja", "ja", "VERB", "_", 0, "root"),
        ("rahe", "rah", "AUX", "_", 2, "aux"),
        ("hain", "hai", "AUX", "_", 2, "aux"),
    ])
    _, _, verdicts = run_one(s)
    k1 = [v for cid, v in verdicts.items() if ":R_K1:" in cid]
    assert k1[0].dropped_by is FilterId.F_GENDER_AGREEMENT


def test_replaced_subject_of_feminine_transitive_kept():
    s = make_sentence([
        ("billi", "billi", "NOUN", "_", 4, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("machhli", "machhli", "NOUN", "_", 4, "k2"),
        ("khayi", "kha", "VERB", "Gender=Fem", 0, "root"),
    ])
    _, _, verdicts = run_one(s)
    k1 = [v for cid, v in verdicts.items() if ":R_K1:" in cid]
    assert k1[0].kept


def postverbal_object_sentence():
    return make_sentence([
        ("hawaa", "hawaa", "NOUN", "_", 3, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("kaha", "kah", "VERB", "_", 0, "root"),
        ("-", "-", "PUNCT", "_", 3, "punct"),
        ("baat", "baat", "NOUN", "_", 3, "k2"),
    ])


def test_interrogative_after_verb_dropped():
    _, _, verdicts = run_one(postverbal_object_sentence())
    k2 = [v for cid, v in verdicts.items() if ":R_K2:" in cid]
    assert k2[0].dropped_by is FilterId.F_WORD_ORDER
    assert "follows the verb" in k2[0].detail


def test_preverbal_interrogative_kept():
    _, _, verdicts = run_one(postverbal_object_sentence())
    k1 = [v for cid, v in verdicts.items() if ":R_K1:" in cid]
    assert k1[0].kept


def test_interrogative_source_blocks_every_candidate():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("kaun", "kaun", "PRON", "_", 3, "k1s"),
        ("hai", "hai", "VERB", "_", 0, "root"),
    ])
    candidates, kept, verdicts = run_one(s)
    assert candidates and not kept
    assert all(v.dropped_by is FilterId.F_ALREADY_QUESTION for v in verdicts.values())


def ends_in(punct, sentence_id):
    return make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("khaayi", "khaa", "VERB", "_", 0, "root"),
        (punct, punct, "PUNCT", "_", 3, "punct"),
    ], sentence_id)


def test_question_and_exclamation_sources_end_in_one_question_mark():
    sentences = [ends_in("?", "q001"), ends_in("!", "q002")]
    candidates = [c for s in sentences for c in generate_all(s, EMPTY)]
    assert [c.text for c in candidates] == ["kisne khaayi ?", "kisne khaayi ?"]
    kept, verdicts = run_filters(candidates, sentences)
    assert [c.sentence_id for c in kept] == ["q002"]
    assert verdicts[0] == FilterVerdict(candidates[0].candidate_id, False,
                                        FilterId.F_ALREADY_QUESTION,
                                        "source sentence already ends in '?' at position 4")


def test_candidate_with_two_interrogatives_dropped():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("baat", "baat", "NOUN", "_", 3, "k2"),
        ("kahi", "kah", "VERB", "_", 0, "root"),
    ])
    doubled = QuestionCandidate(
        candidate_id="t001:R_K2:2:0",
        sentence_id="t001",
        rule=RuleId.R_K2,
        karaka="k2",
        interrogative="kya",
        tokens=("kaun", "kya", "kahi", "?"),
        variation_group="t001:R_K2:2:g0",
        target_token_id=2,
    )
    verdict = filter_already_question(doubled, sentence_facts(s, FilterConfig()), FilterConfig())
    assert verdict.dropped_by is FilterId.F_ALREADY_QUESTION
    assert "2 interrogative spans" in verdict.detail


def test_generated_candidate_with_two_interrogatives_dropped():
    # R_RH deletes the reason clause "kyunki thaka", so "kis" meets "mein".
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 7, "k1"),
        ("kis", "kis", "DET", "_", 6, "nmod"),
        ("kyunki", "kyunki", "SCONJ", "_", 7, "rh"),
        ("thaka", "thak", "VERB", "_", 3, "ccof"),
        ("mein", "mein", "ADP", "_", 6, "psp"),
        ("ghar", "ghar", "NOUN", "_", 7, "k7p"),
        ("rehta", "reh", "VERB", "_", 0, "root"),
        ("।", "।", "PUNCT", "_", 7, "punct"),
    ])
    candidates, _, verdicts = run_one(s)
    rh = next(c for c in candidates if c.rule is RuleId.R_RH)
    assert rh.text == "raam kis mein ghar kyon rehta ?"
    assert verdicts[rh.candidate_id] == FilterVerdict(
        rh.candidate_id, False, FilterId.F_ALREADY_QUESTION,
        "candidate contains 2 interrogative spans")


@pytest.mark.parametrize("tokens", [("kaun", "?"), ("raam", "gaya", "?")],
                         ids=["no-verb-form", "no-interrogative"])
def test_word_order_keeps_a_candidate_it_cannot_place(tokens):
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    c = QuestionCandidate("t001:R_K1:1:0", "t001", RuleId.R_K1, "k1", "kaun", tokens,
                          "t001:R_K1:1:g0", 1)
    assert filter_word_order(c, sentence_facts(s, FilterConfig()), FilterConfig()).kept


def conjunct_sentence():
    return make_sentence([
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


def test_conjunct_side_length_over_theta_drops():
    # The conjunct splits the sentence 6+6; both sides exceed theta=5.
    candidates, kept, verdicts = run_one(conjunct_sentence(), FilterConfig(theta=5))
    assert candidates and not kept
    assert all(v.dropped_by is FilterId.F_COMPLEX_COMPOUND for v in verdicts.values())


def test_conjunct_side_length_within_theta_keeps():
    candidates, kept, _ = run_one(conjunct_sentence(), FilterConfig(theta=6))
    assert len(kept) == len(candidates)
    candidates, kept, _ = run_one(conjunct_sentence(), FilterConfig(theta=7))
    assert len(kept) == len(candidates)


def test_complex_detail_reports_split():
    s = conjunct_sentence()
    candidates = generate_all(s, EMPTY)
    cfg = FilterConfig(theta=5)
    verdict = filter_complex(candidates[0], sentence_facts(s, cfg), cfg)
    assert "6+6" in verdict.detail
    assert "theta=5" in verdict.detail


def test_first_failing_filter_wins_attribution():
    s = make_sentence([
        ("ve", "ve", "PRON", "_", 6, "k1"),
        ("roz", "roz", "NOUN", "_", 6, "k7t"),
        ("lal", "lal", "ADJ", "_", 4, "mod"),
        ("seb", "seb", "NOUN", "_", 6, "k2"),
        ("subah", "subah", "NOUN", "_", 6, "k7t"),
        ("khate", "kha", "VERB", "_", 0, "root"),
        ("aur", "aur", "CCONJ", "_", 6, "coof"),
        ("phir", "phir", "ADV", "_", 11, "mod"),
        ("apne", "apna", "DET", "_", 10, "mod"),
        ("ghar", "ghar", "NOUN", "_", 11, "k2p"),
        ("jate", "ja", "VERB", "_", 7, "ccof"),
        ("so", "so", "VERB", "_", 11, "ccof"),
        ("jate", "ja", "VERB", "_", 12, "ccof"),
    ])
    candidates, _, verdicts = run_one(s, FilterConfig(theta=5))
    # Candidates that keep "ve" break on anaphora before the conjunct length
    # can be blamed, even though both filters object.
    k2 = [v for cid, v in verdicts.items() if ":R_K2:" in cid]
    assert k2[0].dropped_by is FilterId.F_ANAPHORA
    k1 = [v for cid, v in verdicts.items() if ":R_K1:" in cid]
    assert k1[0].dropped_by is FilterId.F_COMPLEX_COMPOUND


def test_filter_order_is_fixed():
    # The chain runs in FILTER_FUNCTIONS' order.
    assert tuple(FILTER_FUNCTIONS) == (
        FilterId.F_ANAPHORA,
        FilterId.F_GENDER_AGREEMENT,
        FilterId.F_WORD_ORDER,
        FilterId.F_ALREADY_QUESTION,
        FilterId.F_COMPLEX_COMPOUND,
    )


def test_unknown_sentence_id_raises():
    s = pronoun_sentence()
    candidates = generate_all(s, EMPTY)
    stray = QuestionCandidate(
        candidate_id="zzz:R_K1:1:0",
        sentence_id="zzz",
        rule=RuleId.R_K1,
        karaka="k1",
        interrogative="kaun",
        tokens=("kaun", "gaya", "?"),
        variation_group="zzz:R_K1:1:g0",
        target_token_id=1,
    )
    with pytest.raises(FilterError, match="candidate zzz:R_K1:1:0: unknown sentence_id 'zzz'"):
        run_filters(candidates + [stray], [s])


@pytest.mark.parametrize("enabled", [frozenset(FilterId), frozenset()], ids=["all", "none"])
def test_first_candidate_of_an_unknown_sentence_is_named(enabled):
    s = pronoun_sentence()
    known = generate_all(s, EMPTY)
    strays = [QuestionCandidate(f"{sid}:R_K1:1:0", sid, RuleId.R_K1, "k1", "kaun",
                                ("kaun", "gaya", "?"), f"{sid}:R_K1:1:g0", 1)
              for sid in ("zzz", "yyy")]
    with pytest.raises(FilterError) as caught:
        run_filters([known[0], strays[0], known[1], strays[1]], [s], FilterConfig(enabled=enabled))
    assert caught.value.candidate_id == "zzz:R_K1:1:0"


def bundled_candidates():
    sentences = load_bundled_corpus()
    lexicon = default_lexicon()
    candidates = [c for s in sentences for c in generate_all(s, lexicon)]
    return sorted(candidates, key=lambda c: c.candidate_id), sentences


def test_facts_are_worked_out_once_per_sentence(monkeypatch):
    candidates, sentences = bundled_candidates()
    built = []

    def counted(s, cfg):
        built.append(s.sentence_id)
        return sentence_facts(s, cfg)

    monkeypatch.setattr(filters, "sentence_facts", counted)
    run_filters(candidates, sentences)
    assert (len(candidates), len(built), len(set(built))) == (96, 30, 30)


def test_a_sentence_without_candidates_changes_no_verdict(monkeypatch):
    candidates, sentences = bundled_candidates()
    _, full = run_filters(candidates, sentences)
    verdict_of = {v.candidate_id: v for v in full}
    rated = {s.sentence_id for s in sentences[::2]}
    half = [c for c in candidates if c.sentence_id in rated]
    built = []

    def counted(s, cfg):
        built.append(s.sentence_id)
        return sentence_facts(s, cfg)

    monkeypatch.setattr(filters, "sentence_facts", counted)
    _, verdicts = run_filters(half, sentences)
    # Half the sentences have no candidate; their facts are still worked out, once each.
    assert {c.sentence_id for c in half} == rated and len(rated) == 15
    assert [v.candidate_id for v in verdicts] == [c.candidate_id for c in half]
    assert all(v == verdict_of[v.candidate_id] for v in verdicts)
    assert sorted(built) == sorted(s.sentence_id for s in sentences) and len(built) == 30


def test_each_candidate_is_scanned_for_interrogatives_once(monkeypatch):
    candidates, sentences = bundled_candidates()
    scanned = []

    def counted(forms, m):
        scanned.append(tuple(forms))
        return interrogative_spans(forms, m)

    monkeypatch.setattr(filters, "interrogative_spans", counted)
    run_filters(candidates, sentences)
    # One scan per source sentence, and at most one per candidate.
    assert len(scanned) <= len(sentences) + len(candidates) == 30 + 96


def test_equal_tokens_under_two_marker_tables_get_their_own_spans():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    default = FilterConfig()
    only_kaun = FilterConfig(markers=default.markers._replace(interrogatives=frozenset({"kaun"})))
    for cfg, two_spans, after_verb in [(default, True, True), (only_kaun, False, False)] * 2:
        # Built anew each time: equal tuples, not one object.
        c = QuestionCandidate("t001:R_K1:1:0", "t001", RuleId.R_K1, "k1", "kab",
                              tuple("kaun gaya kab ?".split()), "t001:R_K1:1:g0", 1)
        facts = sentence_facts(s, cfg)
        assert filter_word_order(c, facts, cfg).kept is not after_verb
        assert filter_already_question(c, facts, cfg).kept is not two_spans


# sha256 of the bundled corpus's verdict lines (verdicts.jsonl's bytes), by
# theta, one per filter subset: bit i of the index enables tuple(FilterId)[i].
# Recorded while each filter still worked out its sentence's facts per candidate.
VERDICT_SUBSET_SHA256 = json.loads(
    (Path(__file__).parent / "verdict_subset_sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("theta", [1, 3, 5, 9])
def test_every_filter_subset_keeps_its_verdict_bytes(theta):
    candidates, sentences = bundled_candidates()
    digests = []
    for mask in range(32):
        enabled = frozenset(f for i, f in enumerate(FilterId) if mask >> i & 1)
        _, verdicts = run_filters(candidates, sentences, FilterConfig(theta=theta, enabled=enabled))
        lines = "".join(v.to_json_line() + "\n" for v in verdicts)
        digests.append(hashlib.sha256(lines.encode("utf-8")).hexdigest())
    assert digests == VERDICT_SUBSET_SHA256[str(theta)]


def test_theta_must_be_positive():
    with pytest.raises(ValueError, match="theta must be >= 1"):
        FilterConfig(theta=0)
    with pytest.raises(ValueError, match="theta must be >= 1"):
        FilterConfig()._replace(theta=0)


def test_verdicts_jsonl_round_trip(tmp_path):
    s = pronoun_sentence()
    candidates = generate_all(s, EMPTY)
    _, verdicts = run_filters(candidates, [s])
    path = tmp_path / "verdicts.jsonl"
    write_jsonl(verdicts, path)
    assert read_verdicts_jsonl(path) == verdicts
    assert all(isinstance(v, FilterVerdict) for v in read_verdicts_jsonl(path))


def test_verdict_json_types_follow_the_field_annotations():
    assert list(FilterVerdict.JSON_TYPES.items()) == [
        ("candidate_id", str), ("kept", bool), ("dropped_by", (str, type(None))), ("detail", str),
    ]


def test_verdict_lines_without_optional_fields_read_back_with_defaults(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text('{"candidate_id": "c1", "kept": true}\n'
                    '{"candidate_id": "c2", "kept": false, "dropped_by": "F_ANAPHORA"}\n',
                    encoding="utf-8")
    assert read_verdicts_jsonl(path) == [FilterVerdict("c1", True, None, ""),
                                         FilterVerdict("c2", False, FilterId.F_ANAPHORA, "")]
