"""Semantic category lexicon used to pick interrogatives.

Entries map a lemma to one coarse category. Lookup is total: a lemma
without an entry is UNKNOWN, and rules that dispatch on the category
then emit every plausible variant instead of guessing.
"""

from __future__ import annotations

from enum import Enum
from importlib import resources

from .textfile import read_pairs


class SemanticCategory(str, Enum):
    HUMAN = "HUMAN"
    OCCUPATION = "OCCUPATION"
    PLACE = "PLACE"
    DATE = "DATE"
    PATH = "PATH"
    LIVING = "LIVING"
    NONLIVING = "NONLIVING"
    PROPERTY = "PROPERTY"
    UNKNOWN = "UNKNOWN"


class LexiconError(ValueError):
    """Raised for malformed lexicon files."""


class SemanticLexicon:
    """Lemma to category entries, the files they came from, and the number
    of rows that repeated a lemma. Its length is its number of entries."""

    __slots__ = ("entries", "source_name", "duplicate_count")

    def __init__(self, entries: dict[str, SemanticCategory] | None = None,
                 source_name: str = "", duplicate_count: int = 0):
        self.entries = {} if entries is None else entries
        self.source_name = source_name
        self.duplicate_count = duplicate_count

    def lookup(self, lemma: str) -> SemanticCategory:
        return self.entries.get(lemma, SemanticCategory.UNKNOWN)

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path) -> SemanticLexicon:
    """Read a two-column TSV of ``lemma<TAB>CATEGORY`` rows.

    Blank lines and lines starting with "#" are skipped. A repeated lemma
    is allowed; the last row wins and the collision is counted in
    ``duplicate_count``.
    """
    entries: dict[str, SemanticCategory] = {}
    duplicates = 0
    for where, lemma, cat_s in read_pairs(path, LexiconError):
        if not lemma:
            raise LexiconError(f"{where}: empty lemma")
        try:
            category = SemanticCategory(cat_s)
        except ValueError:
            raise LexiconError(f"{where}: unknown category {cat_s!r}") from None
        if lemma in entries:
            duplicates += 1
        entries[lemma] = category
    return SemanticLexicon(entries, str(path), duplicates)


def merge_lexicons(lexicons) -> SemanticLexicon:
    """Combine lexicons; later ones override earlier ones per lemma."""
    merged: dict[str, SemanticCategory] = {}
    names = []
    duplicates = 0
    for lex in lexicons:
        merged.update(lex.entries)
        if lex.source_name:
            names.append(lex.source_name)
        duplicates += lex.duplicate_count
    return SemanticLexicon(merged, "+".join(names), duplicates)


def default_lexicon() -> SemanticLexicon:
    """The category snapshot shipped with the package."""
    path = resources.files("karaka_qg.data") / "lexicon_default.tsv"
    with resources.as_file(path) as p:
        lex = load_lexicon(p)
    lex.source_name = "builtin"
    return lex
