"""Reader for karaka-labeled dependency treebanks.

Token lines carry seven tab-separated columns:

    ID  FORM  LEMMA  UPOS  FEATS  HEAD  DEPREL

FEATS is either "_" or a "Key=Val|Key=Val" list naming each key once; no
column starts or ends with whitespace. Sentences are separated by blank lines
or lines of only whitespace. Comment lines of the form "# sent_id = ..."
and "# text = ..." carry sentence metadata, before the token lines; a
sentence without an explicit id gets a positional one ("s001", "s002", ...).
"""

from __future__ import annotations

import io
from itertools import chain
from typing import NamedTuple

from .textfile import InputError, check_edges, open_utf8

# Karaka labels in their canonical order, which generate summaries and
# evaluation rows follow.
KARAKA_ORDER = (
    "k1", "k1s", "k2", "k2p", "k3", "rt", "rh", "k5", "r6", "k7s", "k7t", "k7p",
)

# Label used for postposition tokens attached to the noun they mark.
PSP = "psp"


class TreebankError(InputError):
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


_COLUMN_NAMES = tuple(name.upper() for name in Token._fields)


class ParsedSentence(NamedTuple):
    """A single dependency tree in surface order; build one with ``build_sentence``."""

    sentence_id: str
    tokens: tuple[Token, ...]
    kids: tuple[tuple[Token, ...], ...]  # kids[i]: token i's children in surface order; kids[0]: roots
    forms: tuple[str, ...]  # forms[i]: the form of token i + 1
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
    """The sentence over ``tokens`` (ids 1..n, heads in 0..n) with its children index and forms."""
    kids = [[] for _ in range(len(tokens) + 1)]
    for tok in tokens:
        kids[tok.head].append(tok)
    return ParsedSentence(sentence_id, tuple(tokens), tuple(map(tuple, kids)),
                          tuple([tok.form for tok in tokens]), raw_text)


def _parse_feats(field: str, where: str) -> dict:
    """The FEATS column other than "_" as a dict."""
    feats = {}
    for item in field.split("|"):
        key, _, value = item.partition("=")
        if not key or not value:
            raise TreebankError(f"{where}: bad FEATS item {item!r}")
        if key in feats:
            raise TreebankError(f"{where}: repeated FEATS key {key!r}")
        feats[key] = value
    return feats


def _validate(sentence_id: str, tokens: list[Token], source: str, line_nos: list[int],
              id_line: int, raw_text: str | None) -> ParsedSentence:
    """The sentence, or TreebankError for the checks that need all of it, prefixed
    with the PATH:LINE of the offending token (line_nos[i] is the line of
    tokens[i]) or, for the root count, of the line naming the sentence. Token
    ids are positions and no token heads itself: each line was checked as read."""
    def error(line_no: int, message: str) -> TreebankError:
        return TreebankError(f"{source}:{line_no}: sentence {sentence_id}: {message}")

    n = len(tokens)
    for tok in tokens:
        if tok.head != 0 and not 1 <= tok.head <= n:
            raise error(line_nos[tok.id - 1], f"token {tok.id} has head {tok.head} outside 1..{n}")
    s = build_sentence(sentence_id, tokens, raw_text)
    if len(s.kids[0]) != 1:
        raise error(id_line, f"expected exactly one root, found {len(s.kids[0])}")
    # The tokens the root does not reach are those whose head chain cycles.
    reached = list(s.kids[0])
    for tok in reached:  # the list grows as it is walked
        reached += s.kids[tok.id]
    if len(reached) != n:
        reached = s.subtree_ids(s.main_verb().id)
        first = next(t.id for t in tokens if t.id not in reached)
        raise error(line_nos[first - 1], f"cyclic head chain at token {first}")
    return s


def _parse_blocks(lines, source: str) -> list[ParsedSentence]:
    """The sentences of the blocks of lines; each line is checked before the next is read."""
    sentences: list[ParsedSentence] = []
    first_line_of: dict[str, int] = {}

    def check_unused(sid: str, line_no: int) -> None:
        if sid in first_line_of:
            raise TreebankError(f"{source}:{line_no}: duplicate sent_id {sid!r}, "
                                f"first used at {source}:{first_line_of[sid]}")

    # The block so far: tokens and their lines, each metadata key's line, metadata, first comment.
    rows, row_lines, given, sent_id, raw_text, block_line = [], [], {}, None, None, 0
    # A blank line after the last line ends the last block as any other.
    for line_no, line in enumerate(chain(lines, ("\n",)), start=1):
        if line[0] == "#":
            block_line = block_line or line_no
            key, eq, value = line[1:].partition("=")
            key = key.strip()
            if not eq or key not in ("sent_id", "text"):
                continue
            where = f"{source}:{line_no}"
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
        elif line.isspace():  # a line of only whitespace ends a block
            if rows:
                # The line naming the sentence: its sent_id comment, else its first token.
                id_line = given.get("sent_id") or row_lines[0]
                sid = sent_id or f"s{len(sentences) + 1:03d}"
                check_unused(sid, id_line)
                first_line_of[sid] = id_line
                sentences.append(_validate(sid, rows, source, row_lines, id_line, raw_text))
            elif given:
                raise TreebankError(f"{source}:{block_line}: sentence metadata without token lines")
            rows, row_lines, given, sent_id, raw_text, block_line = [], [], {}, None, None, 0
        else:
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 7:
                raise TreebankError(f"{source}:{line_no}: expected 7 tab-separated columns, got {len(cols)}")
            ascii_line = line.isascii()
            # FORM and LEMMA may hold a space, but no column starts or ends with whitespace: in an
            # ASCII line, whitespace other than tabs and the line end is one of these characters.
            if (" " in line or not ascii_line or "\x0b" in line or "\x0c" in line
                    or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
                check_edges(f"{source}:{line_no}", TreebankError, zip(_COLUMN_NAMES, cols))
            id_s, form, lemma, upos, feats_s, head_s, deprel = cols
            # int() alone would also take a sign, "_" between digits and non-ASCII digits.
            if not (id_s.isdigit() and head_s.isdigit() and (ascii_line or (id_s + head_s).isascii())):
                raise TreebankError(f"{source}:{line_no}: ID and HEAD must be integers "
                                    f"in ASCII digits, got {id_s!r}/{head_s!r}")
            token_id, head = int(id_s), int(head_s)
            if not form or not deprel:
                raise TreebankError(f"{source}:{line_no}: empty FORM or DEPREL column")
            feats = {} if feats_s == "_" else _parse_feats(feats_s, f"{source}:{line_no}")
            if token_id != len(rows) + 1 or head == token_id:
                sid = sent_id or f"s{len(sentences) + 1:03d}"
                problem = (f"self-loop at token {head}" if token_id == len(rows) + 1 else
                           f"token ids not contiguous from 1 (found id {token_id} "
                           f"at position {len(rows) + 1})")
                raise TreebankError(f"{source}:{line_no}: sentence {sid}: {problem}")
            # tuple.__new__ builds the row without Token's Python-level __new__.
            rows.append(tuple.__new__(Token, (token_id, form, lemma, upos, feats, head, deprel)))
            row_lines.append(line_no)
    return sentences


def load_treebank(path) -> list[ParsedSentence]:
    """Read a treebank file into a list of validated sentences."""
    with open_utf8(path, TreebankError) as fh:
        return _parse_blocks(fh, str(path))


def loads_treebank(text: str, source: str = "<string>") -> list[ParsedSentence]:
    """Parse treebank content held in a string, split into lines as a file is."""
    return _parse_blocks(io.StringIO(text, newline=None), source)

