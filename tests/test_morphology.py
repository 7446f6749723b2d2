"""Tests for case marker detection, agreement cues, and the marker table."""

import pytest

from helpers import make_sentence
from karaka_qg.morphology import (
    DEFAULT_MARKERS,
    MarkerTable,
    MarkerTableError,
    case_of,
    interrogative_spans,
    load_marker_table,
    verb_agreement,
)


def test_case_of_single_marker():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    marker, window = case_of(s, 1, DEFAULT_MARKERS)
    assert marker == "ne"
    assert [t.id for t in window] == [2]


def test_case_of_unmarked_token_is_direct():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    assert case_of(s, 1, DEFAULT_MARKERS) == (None, [])


def test_case_of_multiword_marker():
    s = make_sentence([
        ("bus", "bus", "NOUN", "_", 4, "k3"),
        ("ke", "ke", "ADP", "_", 1, "psp"),
        ("dwaaraa", "dwaaraa", "ADP", "_", 1, "psp"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    marker, window = case_of(s, 1, DEFAULT_MARKERS)
    assert marker == "ke dwaaraa"
    assert [t.form for t in window] == ["ke", "dwaaraa"]


def test_multiword_marker_requires_adjacent_tokens():
    s = make_sentence([
        ("bus", "bus", "NOUN", "_", 5, "k3"),
        ("ke", "ke", "ADP", "_", 1, "psp"),
        ("lal", "lal", "ADJ", "_", 1, "mod"),
        ("dwaaraa", "dwaaraa", "ADP", "_", 1, "psp"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    # "ke" and "dwaaraa" are split by another token, so the two-token
    # instrumental never matches; the lone "ke" falls back to genitive.
    marker, window = case_of(s, 1, DEFAULT_MARKERS)
    assert marker == "ke"
    assert [t.id for t in window] == [2]


def test_longest_marker_match_wins():
    s = make_sentence([
        ("dost", "dost", "NOUN", "_", 4, "rt"),
        ("ke", "ke", "ADP", "_", 1, "psp"),
        ("liye", "liye", "ADP", "_", 1, "psp"),
        ("likha", "likh", "VERB", "_", 0, "root"),
    ])
    marker, window = case_of(s, 1, DEFAULT_MARKERS)
    assert marker == "ke liye"
    assert [t.id for t in window] == [2, 3]


def test_verb_gender_prefers_feats():
    s = make_sentence([
        ("billi", "billi", "NOUN", "_", 2, "k1"),
        ("baithi", "baith", "VERB", "Gender=Fem", 0, "root"),
        ("raha", "rah", "AUX", "_", 2, "aux"),
    ])
    # Each feature falls back on its own: Gender from FEATS, Number from raha.
    assert verb_agreement(s, 2) == ("Fem", "Sing", {3: "rahi"})


def test_verb_gender_from_auxiliary_child():
    s = make_sentence([
        ("billi", "billi", "NOUN", "_", 2, "k1"),
        ("ja", "ja", "VERB", "_", 0, "root"),
        ("rahi", "rah", "AUX", "_", 2, "aux"),
    ])
    assert verb_agreement(s, 2) == ("Fem", "Sing", {3: "rahi"})


def test_verb_gender_from_own_form():
    s = make_sentence([
        ("billi", "billi", "NOUN", "_", 2, "k1"),
        ("rahi", "rah", "VERB", "_", 0, "root"),
    ])
    assert verb_agreement(s, 2) == ("Fem", "Sing", {2: "rahi"})
    # The verb's own ending comes before its children's; every ending turns feminine.
    s = make_sentence([
        ("log", "log", "NOUN", "_", 2, "k1"),
        ("rahe", "rah", "VERB", "_", 0, "root"),
        ("raha", "rah", "AUX", "_", 2, "aux"),
        ("rahi", "rah", "AUX", "_", 2, "aux"),
    ])
    assert verb_agreement(s, 2) == ("Masc", "Plur", {2: "rahi", 3: "rahi", 4: "rahi"})


def test_verb_number_plural_from_auxiliary():
    s = make_sentence([
        ("log", "log", "NOUN", "_", 2, "k1"),
        ("ja", "ja", "VERB", "_", 0, "root"),
        ("rahe", "rah", "AUX", "_", 2, "aux"),
    ])
    assert verb_agreement(s, 2) == ("Masc", "Plur", {3: "rahi"})


def test_verb_agreement_unknown_when_no_cue():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    assert verb_agreement(s, 2) == (None, None, {})


def test_default_interrogatives_hold_question_words_only():
    assert "kaun" in DEFAULT_MARKERS.interrogatives
    assert "kisne" in DEFAULT_MARKERS.interrogatives
    assert "raam" not in DEFAULT_MARKERS.interrogatives
    assert "ne" not in DEFAULT_MARKERS.interrogatives


def test_interrogative_spans_prefer_longest_match():
    assert interrogative_spans(["kis", "din", "gaya"]) == [(0, 2)]
    assert interrogative_spans(["kaun", "si", "vastu"]) == [(0, 2)]
    assert interrogative_spans(["raam", "gaya"]) == []
    assert interrogative_spans(["kya", "kaun"]) == [(0, 1), (1, 2)]


def test_interrogative_spans_are_disjoint():
    spans = interrogative_spans(["kisse", "hokar", "kab"])
    assert spans == [(0, 2), (2, 3)]


def test_interrogative_spans_follow_each_marker_tables_inventory():
    forms = ["kis", "din", "kaun", "si"]
    words = MarkerTable(interrogatives=frozenset({"kis", "kaun"}))
    phrases = MarkerTable(interrogatives=frozenset({"kis din", "kaun si"}))
    assert interrogative_spans(forms, words) == [(0, 1), (2, 3)]
    assert interrogative_spans(forms, phrases) == [(0, 2), (2, 4)]
    assert interrogative_spans(forms, words) == [(0, 1), (2, 3)]
    assert interrogative_spans(forms) == [(0, 2), (2, 4)]
    assert interrogative_spans(forms, MarkerTable(interrogatives=frozenset({"mein"}))) == []


def test_interrogative_span_skips_a_start_inside_an_earlier_span():
    table = MarkerTable(interrogatives=frozenset({"kis din", "din"}))
    assert interrogative_spans(["kis", "din", "din"], table) == [(0, 2), (2, 3)]


def test_first_token_without_its_whole_item_is_no_span():
    table = MarkerTable(interrogatives=frozenset({"kis mein"}))
    assert interrogative_spans(["kis", "ghar"], table) == []


def test_empty_form_matches_an_empty_inventory_item():
    table = MarkerTable(interrogatives=frozenset({""}))
    assert interrogative_spans(["raam", "", "gaya"], table) == [(1, 2)]


def test_interrogative_spans_take_any_iterable_of_forms():
    forms = ["raam", "kis", "din", "kaun", "gaya"]
    expected = [(1, 3), (3, 4)]
    assert interrogative_spans(forms) == expected
    assert interrogative_spans(tuple(forms)) == expected
    assert interrogative_spans(form for form in forms) == expected


def test_case_markers_union_excludes_non_case_roles():
    markers = DEFAULT_MARKERS.case_markers()
    for form in ("ne", "ko", "se", "ka", "mein", "ke liye"):
        assert form in markers
    assert "kyunki" not in markers
    assert "kaun" not in markers


def test_load_marker_table_overrides_one_role(tmp_path):
    path = tmp_path / "markers.tsv"
    path.write_text("erg\tnai\n# comment\n\nerg\tne\n", encoding="utf-8")
    table = load_marker_table(path)
    assert table.ergative == frozenset({"nai", "ne"})
    assert table.accusative == DEFAULT_MARKERS.accusative
    assert table.interrogatives == DEFAULT_MARKERS.interrogatives


def test_load_marker_table_unknown_role(tmp_path):
    path = tmp_path / "markers.tsv"
    path.write_text("dative\tko\n", encoding="utf-8")
    with pytest.raises(MarkerTableError, match="unknown role 'dative'"):
        load_marker_table(path)


def test_load_marker_table_byte_order_mark(tmp_path):
    path = tmp_path / "markers.tsv"
    path.write_text("wh\tkaun\n", encoding="utf-8-sig")
    with pytest.raises(MarkerTableError, match=r"markers\.tsv:1: file starts with a byte order mark"):
        load_marker_table(path)


def test_load_marker_table_column_and_form_errors(tmp_path):
    two_cols = tmp_path / "a.tsv"
    two_cols.write_text("erg ne\n", encoding="utf-8")
    with pytest.raises(MarkerTableError, match="expected 2 tab-separated columns"):
        load_marker_table(two_cols)
    empty_form = tmp_path / "b.tsv"
    empty_form.write_text("erg\t \n", encoding="utf-8")
    with pytest.raises(MarkerTableError, match="empty form"):
        load_marker_table(empty_form)
    # Token windows are joined by one space, so this form could never match.
    double_space = tmp_path / "c.tsv"
    double_space.write_text("wh\tkaun\nwh\tkis  mein\n", encoding="utf-8")
    with pytest.raises(MarkerTableError, match=r"c\.tsv:2: form 'kis  mein' has an empty word; "
                                               "one space separates words$"):
        load_marker_table(double_space)


def test_marker_table_is_immutable():
    with pytest.raises(AttributeError):
        MarkerTable().ergative = frozenset()
