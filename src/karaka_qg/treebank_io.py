"""Reader for karaka-labeled dependency treebanks.

Token lines carry seven tab-separated columns:

    ID  FORM  LEMMA  UPOS  FEATS  HEAD  DEPREL

FEATS is either "_" or a "Key=Val|Key=Val" list naming each key once.
Sentences are separated by blank lines. Comment lines of the form
"# sent_id = ..." and "# text = ..." carry sentence metadata, before the
token lines; a sentence without an explicit id gets a positional one
("s001", "s002", ...).
"""

from __future__ import annotations

import io
from itertools import groupby
from typing import NamedTuple

from .textfile import open_utf8

# Karaka labels in their canonical order, which generate summaries and
# evaluation rows follow.
KARAKA_ORDER = (
    "k1", "k1s", "k2", "k2p", "k3", "rt", "rh", "k5", "r6", "k7s", "k7t", "k7p",
)

# Label used for postposition tokens attached to the noun they mark.
PSP = "psp"


class TreebankError(ValueError):
    """Raised for malformed treebank files or invalid dependency graphs."""


class Token(NamedTuple):
    """One token row. ``head`` is 0 for the root, otherwise a token id."""

    id: int
    form: str
    lemma: str
    upos: str
    feats: dict
    head: int
    deprel: str


class ParsedSentence(NamedTuple):
    """A single dependency tree in surface order; build one with ``build_sentence``."""

    sentence_id: str
    tokens: tuple[Token, ...]
    kids: tuple[tuple[Token, ...], ...]  # kids[i]: token i's children in surface order; kids[0]: roots
    raw_text: str | None = None

    def token(self, token_id: int) -> Token:
        if not 1 <= token_id <= len(self.tokens):
            raise TreebankError(
                f"sentence {self.sentence_id}: no token with id {token_id}"
            )
        return self.tokens[token_id - 1]

    def main_verb(self) -> Token:
        return self.kids[0][0]

    def children(self, token_id: int) -> tuple[Token, ...]:
        return self.kids[token_id]

    def subtree_ids(self, token_id: int) -> set[int]:
        """Ids of the token and all of its descendants."""
        ids = {token_id}
        queue = [token_id]
        while queue:
            for child in self.kids[queue.pop()]:
                ids.add(child.id)
                queue.append(child.id)
        return ids


def build_sentence(sentence_id: str, tokens, raw_text: str | None = None) -> ParsedSentence:
    """The sentence over ``tokens`` (ids 1..n, heads in 0..n) with its children index."""
    kids = [[] for _ in range(len(tokens) + 1)]
    for tok in tokens:
        kids[tok.head].append(tok)
    return ParsedSentence(sentence_id, tuple(tokens), tuple(map(tuple, kids)), raw_text)


def _parse_feats(field: str, where: str) -> dict:
    if field == "_":
        return {}
    feats = {}
    for item in field.split("|"):
        key, _, value = item.partition("=")
        if not key or not value:
            raise TreebankError(f"{where}: bad FEATS item {item!r}")
        if key in feats:
            raise TreebankError(f"{where}: repeated FEATS key {key!r}")
        feats[key] = value
    return feats


def _tree_error(where: str, sentence_id: str, message: str) -> TreebankError:
    return TreebankError(f"{where}: sentence {sentence_id}: {message}")


def _validate(sentence_id: str, tokens: list[Token], source: str, line_nos: list[int],
              id_line: int, raw_text: str | None) -> ParsedSentence:
    """The sentence, or TreebankError for the checks that need all of it, prefixed
    with the PATH:LINE of the offending token (line_nos[i] is the line of
    tokens[i]) or, for the root count, of the line naming the sentence. Token
    ids are positions and no token heads itself: each line was checked as read."""
    def error(line_no: int, message: str) -> TreebankError:
        return _tree_error(f"{source}:{line_no}", sentence_id, message)

    n = len(tokens)
    for tok in tokens:
        if tok.head != 0 and not 1 <= tok.head <= n:
            raise error(line_nos[tok.id - 1], f"token {tok.id} has head {tok.head} outside 1..{n}")
    s = build_sentence(sentence_id, tokens, raw_text)
    if len(s.kids[0]) != 1:
        raise error(id_line, f"expected exactly one root, found {len(s.kids[0])}")
    # The tokens the root does not reach are those whose head chain cycles.
    reached = s.subtree_ids(s.main_verb().id)
    if len(reached) != n:
        first = next(t.id for t in tokens if t.id not in reached)
        raise error(line_nos[first - 1], f"cyclic head chain at token {first}")
    return s


def _parse_token(line: str, where: str) -> Token:
    cols = line.split("\t")
    if len(cols) != 7:
        raise TreebankError(
            f"{where}: expected 7 tab-separated columns, got {len(cols)}"
        )
    id_s, form, lemma, upos, feats_s, head_s, deprel = cols
    try:
        token_id = int(id_s)
        head = int(head_s)
    except ValueError:
        raise TreebankError(
            f"{where}: ID and HEAD must be integers, got {id_s!r}/{head_s!r}"
        ) from None
    if not form or not deprel:
        raise TreebankError(f"{where}: empty FORM or DEPREL column")
    return Token(token_id, form, lemma, upos, _parse_feats(feats_s, where), head, deprel)


def _parse_blocks(lines, source: str) -> list[ParsedSentence]:
    sentences: list[ParsedSentence] = []
    first_line_of: dict[str, int] = {}

    def check_unused(sid: str, line_no: int) -> None:
        if sid in first_line_of:
            raise TreebankError(f"{source}:{line_no}: duplicate sent_id {sid!r}, "
                                f"first used at {source}:{first_line_of[sid]}")

    numbered = enumerate((raw.rstrip("\n") for raw in lines), start=1)
    for in_block, block in groupby(numbered, key=lambda item: bool(item[1].strip())):
        if not in_block:
            continue
        rows: list[Token] = []
        row_lines: list[int] = []
        sent_id: str | None = None
        raw_text: str | None = None
        given: dict[str, int] = {}  # line of each metadata key in the block
        positional = f"s{len(sentences) + 1:03d}"  # the id when no sent_id is given
        # Line naming the sentence (its sent_id comment, else its first token), and the
        # block's first line. Each line is checked before the next is read, so it faults first.
        id_line = block_line = 0
        for line_no, line in block:
            block_line = block_line or line_no
            where = f"{source}:{line_no}"
            if not line.startswith("#"):
                tok = _parse_token(line, where)
                if tok.id != len(rows) + 1:
                    raise _tree_error(where, sent_id or positional, f"token ids not contiguous "
                                      f"from 1 (found id {tok.id} at position {len(rows) + 1})")
                if tok.head == tok.id:
                    raise _tree_error(where, sent_id or positional, f"self-loop at token {tok.id}")
                rows.append(tok)
                row_lines.append(line_no)
                id_line = id_line or line_no
                continue
            key, eq, value = line[1:].partition("=")
            key = key.strip()
            if not eq or key not in ("sent_id", "text"):
                continue
            # Metadata comes first, so the id a token line is checked under is the block's.
            if rows:
                raise TreebankError(f"{where}: {key} after the sentence's first token "
                                    f"line, {source}:{row_lines[0]}; metadata comes first")
            if key in given:
                raise TreebankError(f"{where}: second {key} in one sentence, "
                                    f"first given at {source}:{given[key]}")
            given[key] = line_no
            if key == "text":
                raw_text = value.strip()
                continue
            sent_id = value.strip()
            if not sent_id:
                raise TreebankError(f"{where}: empty sent_id")
            check_unused(sent_id, line_no)
            id_line = line_no
        if not rows:
            if not given:
                continue
            raise TreebankError(f"{source}:{block_line}: sentence metadata without token lines")
        sid = sent_id or positional
        check_unused(sid, id_line)  # an explicit id was checked at its own line
        first_line_of[sid] = id_line
        sentences.append(_validate(sid, rows, source, row_lines, id_line, raw_text))
    return sentences


def load_treebank(path) -> list[ParsedSentence]:
    """Read a treebank file into a list of validated sentences."""
    with open_utf8(path, TreebankError) as fh:
        return _parse_blocks(fh, str(path))


def loads_treebank(text: str, source: str = "<string>") -> list[ParsedSentence]:
    """Parse treebank content held in a string, split into lines as a file is."""
    return _parse_blocks(io.StringIO(text, newline=None), source)

