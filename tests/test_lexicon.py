"""Tests for the semantic category lexicon."""

import pytest

from karaka_qg.lexicon import (
    LexiconError,
    SemanticCategory,
    default_lexicon,
    load_lexicon,
    merge_lexicons,
)


def write_lexicon(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic_tsv(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "raam\tHUMAN\nghar\tPLACE\n")
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex.lookup("raam") is SemanticCategory.HUMAN
    assert lex.lookup("ghar") is SemanticCategory.PLACE
    assert lex.duplicate_count == 0


def test_blank_lines_and_comments_skipped(tmp_path):
    path = write_lexicon(
        tmp_path / "lex.tsv",
        "# categories for the demo corpus\n\nraam\tHUMAN\n\n# trailing note\n",
    )
    lex = load_lexicon(path)
    assert len(lex) == 1


def test_unlisted_lemma_falls_back_to_unknown(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "raam\tHUMAN\n")
    lex = load_lexicon(path)
    assert lex.lookup("anything") is SemanticCategory.UNKNOWN


def test_duplicate_lemma_last_wins_and_is_counted(tmp_path):
    path = write_lexicon(
        tmp_path / "lex.tsv", "billi\tLIVING\nbilli\tNONLIVING\nbilli\tLIVING\n"
    )
    lex = load_lexicon(path)
    assert len(lex) == 1
    assert lex.lookup("billi") is SemanticCategory.LIVING
    assert lex.duplicate_count == 2


def test_unknown_category_error_names_path_and_line(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "raam\tHUMAN\nghar\tCITY\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:2"):
        load_lexicon(path)


def test_wrong_column_count_error(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "raam HUMAN\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:1"):
        load_lexicon(path)


def test_byte_order_mark_is_an_error_not_a_silent_miss(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "\ufeffraam\tHUMAN\n")
    with pytest.raises(LexiconError, match=r"lex\.tsv:1: file starts with a byte order mark"):
        load_lexicon(path)


def test_empty_lemma_error(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", "\tHUMAN\n")
    with pytest.raises(LexiconError, match="empty lemma"):
        load_lexicon(path)


def test_merge_later_lexicon_overrides(tmp_path):
    base = load_lexicon(write_lexicon(tmp_path / "base.tsv", "billi\tLIVING\nraam\tHUMAN\n"))
    override = load_lexicon(write_lexicon(tmp_path / "override.tsv", "billi\tNONLIVING\n"))
    merged = merge_lexicons([base, override])
    assert merged.lookup("billi") is SemanticCategory.NONLIVING
    assert merged.lookup("raam") is SemanticCategory.HUMAN
    assert "+" in merged.source_name


def test_default_lexicon_is_bundled():
    lex = default_lexicon()
    assert len(lex) > 0
    assert lex.source_name == "builtin"
    assert lex.lookup("raam") is SemanticCategory.HUMAN
    assert lex.lookup("somvar") is SemanticCategory.DATE
    assert lex.lookup("sadak") is SemanticCategory.PATH
