"""Aggregation of human Likert ratings over question candidates.

Each candidate is rated 1..5 for syntactic and semantic quality by one
or more annotators. Results are grouped per karaka plus a totals row.
Medians are lower medians so the statistic stays on the rating scale;
counts are distinct candidates, not rating records. A group with no
ratings reports absent means, never zero.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import product
from typing import NamedTuple

from .textfile import InputError, check_edges, open_utf8
from .treebank_io import KARAKA_ORDER

RATING_COLUMNS = ("candidate_id", "annotator_id", "syntax", "semantic")


class RatingsError(InputError):
    """Raised for malformed rating files or unmatched candidate ids."""


class UncoveredCandidateError(RatingsError):
    """Raised for a candidate that no filter verdict covers."""

    def __init__(self, candidate_id: str, uncovered: int):
        super().__init__(f"no filter verdict for candidate {candidate_id!r} "
                         f"({uncovered} candidates uncovered)")
        self.candidate_id = candidate_id


class RatingRecord(NamedTuple):
    candidate_id: str
    annotator_id: str
    syntax: int
    semantic: int


class RowStats(NamedTuple):
    syntax_mean: float | None
    syntax_median: int | None
    semantic_mean: float | None
    semantic_median: int | None
    count: int


class EvalTable(NamedTuple):
    rows: dict
    totals: RowStats


class SplitStats(NamedTuple):
    syntax_mean: float | None
    semantic_mean: float | None
    count: int


class BeforeAfter(NamedTuple):
    before: SplitStats
    after: SplitStats


# The canonical spelling of each score; others go through int().
_SCORE_OF = {str(score): score for score in range(1, 6)}


def load_ratings(path) -> list[RatingRecord]:
    """Read a ratings CSV with header candidate_id,annotator_id,syntax,semantic.
    An error names the first line of its row: a quoted field may span lines."""
    return _read_ratings(path, {}, records=[])


def _read_ratings(path, index: dict, slots=(), flat=(), records=None):
    """Read a ratings CSV in one pass. An error names the first line of its row,
    and a repeated (candidate, annotator) pair the first line of the pair too.
    Without records, a rating of k = index[candidate_id] counts at flat[slots[k]
    + 5 * syntax + semantic], and an id index lacks is an error; with records,
    each row is appended as a RatingRecord, a new id taking the next k. A new
    id must be nonempty with no whitespace at an edge; a known one is not checked."""
    def check_id(where: str, name: str, value: str) -> None:
        if not value:
            raise RatingsError(f"{where}: empty {name}")
        check_edges(where, RatingsError, ((name, value),))

    import csv  # here, so that a command that reads no ratings does not load it

    first_line = {}  # annotator_id -> k -> the first line of the pair's row
    with open_utf8(path, RatingsError, newline="") as fh:
        reader = csv.reader(fh)
        end = 0  # the last line of the last row read
        try:
            header = next(reader, None)
            if header is None or tuple(header) != RATING_COLUMNS:
                raise RatingsError(
                    f"{path}:1: expected header {','.join(RATING_COLUMNS)}, got {header}"
                )
            end = reader.line_num
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if len(row) != len(RATING_COLUMNS):
                    if not row:
                        continue
                    raise RatingsError(f"{path}:{line_no}: expected "
                                       f"{len(RATING_COLUMNS)} columns, got {len(row)}")
                candidate_id, annotator_id, syntax_s, semantic_s = row
                if (lines := first_line.get(annotator_id)) is None:
                    check_id(f"{path}:{line_no}", "annotator_id", annotator_id)
                    lines = first_line[annotator_id] = {}
                k = index.get(candidate_id)
                if k is None:
                    if records is None:  # after the row's scores; an earlier row with it failed
                        _parse_scores(f"{path}:{line_no}", syntax_s, semantic_s)
                        raise RatingsError(f"{path}:{line_no}: rating references "
                                           f"unknown candidate_id {candidate_id!r}")
                    check_id(f"{path}:{line_no}", "candidate_id", candidate_id)
                    k = index[candidate_id] = len(index)
                if k in lines:
                    raise RatingsError(
                        f"{path}:{line_no}: duplicate rating for candidate {candidate_id!r} "
                        f"by annotator {annotator_id!r}, first used at {path}:{lines[k]}"
                    )
                lines[k] = line_no
                syntax = _SCORE_OF.get(syntax_s)
                semantic = _SCORE_OF.get(semantic_s)
                if syntax is None or semantic is None:
                    syntax, semantic = _parse_scores(f"{path}:{line_no}", syntax_s, semantic_s)
                if records is None:
                    flat[slots[k] + 5 * syntax + semantic] += 1
                else:
                    records.append(RatingRecord(candidate_id, annotator_id, syntax, semantic))
        except csv.Error as exc:
            raise RatingsError(f"{path}:{end + 1}: {exc}") from None
    return records


def _parse_scores(where: str, syntax_s: str, semantic_s: str) -> tuple[int, int]:
    """The two scores of a row, each an integer in 1..5 in ASCII digits."""
    try:
        # int() alone would also take "_" between digits and non-ASCII digits.
        if not (scores := syntax_s + semantic_s).isascii() or "_" in scores:
            raise ValueError
        syntax = int(syntax_s)
        semantic = int(semantic_s)
    except ValueError:
        raise RatingsError(f"{where}: scores must be integers") from None
    for name, score in (("syntax", syntax), ("semantic", semantic)):
        if not 1 <= score <= 5:
            raise RatingsError(f"{where}: {name} score {score} outside 1..5")
    return syntax, semantic


def _mean(counts):
    """The mean of the scores counts holds, each score with its number of ratings."""
    return sum(score * n for score, n in counts.items()) / sum(counts.values()) if counts else None


def _median(counts):
    """The lower median of the scores counts holds: the score at rank (N - 1) // 2."""
    if not counts:
        return None
    rank = (sum(counts.values()) - 1) // 2
    for score in sorted(counts):
        rank -= counts[score]
        if rank < 0:
            return int(score)


def _row_stats(count, syntax_counts, semantic_counts) -> RowStats:
    return RowStats(_mean(syntax_counts), _median(syntax_counts),
                    _mean(semantic_counts), _median(semantic_counts), count)


# (kept, syntax, semantic) of each offset in a karaka's run of counts.
_CELLS = tuple(product((False, True), range(1, 6), range(1, 6)))


def _fold(karaka_of: dict, counts: dict, kept_of: dict | None, count_ratings):
    """The EvalTable and, given kept_of, the BeforeAfter of the ratings that
    count_ratings(index, slots, flat) adds to flat: index maps each candidate id
    to its place k in karaka_of, and a rating (syntax, semantic) of k adds one at
    flat[slots[k] + 5 * syntax + semantic]. Each karaka in counts, which holds
    its number of distinct candidates, has a run of len(_CELLS) counts in flat,
    in the order of _CELLS."""
    base_of = {karaka: len(_CELLS) * i - 6 for i, karaka in enumerate(counts)}
    kept = kept_of or {}
    slots = [base_of[karaka] + (25 if kept.get(candidate_id) else 0)
             for candidate_id, karaka in karaka_of.items()]
    flat = [0] * (len(_CELLS) * len(counts))
    count_ratings({candidate_id: k for k, candidate_id in enumerate(karaka_of)}, slots, flat)
    # The (syntax, semantic) score counts of each karaka, of all ratings, and of the kept ones.
    columns = {karaka: (Counter(), Counter()) for karaka in counts}
    totals, kept_split = (Counter(), Counter()), (Counter(), Counter())
    for (karaka, (is_kept, syntax, semantic)), n in zip(product(counts, _CELLS), flat):
        if not n:
            continue
        for syntax_counts, semantic_counts in ((columns[karaka], totals, kept_split) if is_kept
                                               else (columns[karaka], totals)):
            syntax_counts[syntax] += n
            semantic_counts[semantic] += n
    table = EvalTable({karaka: _row_stats(counts[karaka], *columns[karaka]) for karaka in counts},
                      _row_stats(len(karaka_of), *totals))
    if kept_of is None:
        return table, None
    kept_count = sum(1 for candidate_id in karaka_of if kept_of.get(candidate_id))
    return table, BeforeAfter(
        before=SplitStats(_mean(totals[0]), _mean(totals[1]), len(karaka_of)),
        after=SplitStats(_mean(kept_split[0]), _mean(kept_split[1]), kept_count),
    )


def _check_coverage(candidate_ids, kept_of: dict) -> None:
    """Raise UncoveredCandidateError naming the first candidate no verdict covers."""
    missing = [candidate_id for candidate_id in candidate_ids if candidate_id not in kept_of]
    if missing:
        raise UncoveredCandidateError(missing[0], len(missing))


def evaluate_ratings(path, karaka_of: dict, kept_of: dict | None = None):
    """The EvalTable of a ratings CSV and, given kept_of (candidate id -> kept),
    its BeforeAfter, else None; karaka_of maps candidate id -> karaka. Each row
    is folded in as it is read. Faults come in file order, a row's load_ratings
    checks before its candidate_id; a candidate kept_of lacks, after the last row."""
    table, ba = _fold(karaka_of, Counter(karaka_of.values()), kept_of, partial(_read_ratings, path))
    if kept_of is not None:
        _check_coverage(karaka_of, kept_of)
    return table, ba


def _fold_records(ratings, candidates, kept_of=None):
    """_fold over RatingRecords and candidate records, whose ids may repeat."""
    karaka_of = {}
    ids_of: dict[str, set] = {}  # karaka -> its distinct candidate ids
    for c in candidates:
        karaka_of[c.candidate_id] = c.karaka
        ids_of.setdefault(c.karaka, set()).add(c.candidate_id)

    def count_ratings(index, slots, flat):
        for r in ratings:
            # Each score is held to the ratings file's rule, as the counts need.
            syntax, semantic = _parse_scores(f"rating of {r.candidate_id!r} by annotator "
                                             f"{r.annotator_id!r}", str(r.syntax), str(r.semantic))
            if (k := index.get(r.candidate_id)) is None:
                raise RatingsError(f"rating references unknown candidate_id {r.candidate_id!r}")
            flat[slots[k] + 5 * syntax + semantic] += 1
    return _fold(karaka_of, {karaka: len(ids) for karaka, ids in ids_of.items()}, kept_of, count_ratings)


def aggregate(ratings, candidates) -> EvalTable:
    """Per-karaka means, lower medians, and candidate counts, plus totals."""
    return _fold_records(ratings, candidates)[0]


def before_after(ratings, candidates, verdicts) -> BeforeAfter:
    """Mean quality over all candidates versus the ones kept by filtering."""
    kept_of = {v.candidate_id: v.kept for v in verdicts}
    ba = _fold_records(ratings, candidates, kept_of)[1]
    _check_coverage((c.candidate_id for c in candidates), kept_of)
    return ba


def _sorted_rows(rows) -> list:
    """Rows in the canonical karaka order; unexpected labels sort after."""
    order = {k: i for i, k in enumerate(KARAKA_ORDER)}
    return sorted(rows, key=lambda k: (order.get(k, len(order)), k))


def _fmt(value, spec: str) -> str:
    return f"{value:{spec}}" if value is not None else "-"


def _line(widths, name, *cells) -> str:
    """name left-aligned in the first width, then each cell right-aligned in the next."""
    return f"{name:<{widths[0]}}" + "".join(f"{cell:>{width}}" for cell, width in zip(cells, widths[1:]))


def render_eval_table(table: EvalTable) -> str:
    widths, specs = (8, 10, 9, 10, 9, 7), (".3f", "", ".3f", "", "")
    rows = [(karaka, table.rows[karaka]) for karaka in _sorted_rows(table.rows)] + [("total", table.totals)]
    return "\n".join([_line(widths, "karaka", "syn_mean", "syn_med", "sem_mean", "sem_med", "count"),
                      *(_line(widths, name, *map(_fmt, r, specs)) for name, r in rows)])


def render_before_after(ba: BeforeAfter) -> str:
    widths = (14, 10, 10)
    return "\n".join([_line(widths, "", "before", "after"), *(
        _line(widths, name, _fmt(before, spec), _fmt(after, spec))
        for name, spec, before, after in zip(SplitStats._fields, (".3f", ".3f", ""), ba.before, ba.after))])


def eval_table_to_dict(table: EvalTable) -> dict:
    return {
        "rows": {k: table.rows[k]._asdict() for k in _sorted_rows(table.rows)},
        "totals": table.totals._asdict(),
    }


def before_after_to_dict(ba: BeforeAfter) -> dict:
    return {"before": ba.before._asdict(), "after": ba.after._asdict()}
