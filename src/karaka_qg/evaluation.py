"""Aggregation of human Likert ratings over question candidates.

Each candidate is rated 1..5 for syntactic and semantic quality by one
or more annotators. Results are grouped per karaka plus a totals row.
Medians are lower medians so the statistic stays on the rating scale;
counts are distinct candidates, not rating records. A group with no
ratings reports absent means, never zero.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import asdict, dataclass

from .textfile import open_utf8
from .treebank_io import KARAKA_ORDER

# Rows follow the canonical karaka order; unexpected labels sort after.
KARAKA_ROW_ORDER = KARAKA_ORDER

RATING_COLUMNS = ("candidate_id", "annotator_id", "syntax", "semantic")


class RatingsError(ValueError):
    """Raised for malformed rating files or unmatched candidate ids."""


class UnknownCandidateError(RatingsError):
    """Raised for a rating whose candidate_id no candidate has."""

    def __init__(self, candidate_id: str):
        super().__init__(f"rating references unknown candidate_id {candidate_id!r}")
        self.candidate_id = candidate_id


class UncoveredCandidateError(RatingsError):
    """Raised for a candidate that no filter verdict covers."""

    def __init__(self, candidate_id: str, uncovered: int):
        super().__init__(f"no filter verdict for candidate {candidate_id!r} "
                         f"({uncovered} candidates uncovered)")
        self.candidate_id = candidate_id


@dataclass(frozen=True)
class RatingRecord:
    candidate_id: str
    annotator_id: str
    syntax: int
    semantic: int


@dataclass(frozen=True)
class RowStats:
    syntax_mean: float | None
    syntax_median: int | None
    semantic_mean: float | None
    semantic_median: int | None
    count: int


@dataclass(frozen=True)
class EvalTable:
    rows: dict
    totals: RowStats


@dataclass(frozen=True)
class SplitStats:
    syntax_mean: float | None
    semantic_mean: float | None
    count: int


@dataclass(frozen=True)
class BeforeAfter:
    before: SplitStats
    after: SplitStats


# The canonical spelling of each score; others go through int().
_SCORE_OF = {str(score): score for score in range(1, 6)}


def load_ratings(path) -> list[RatingRecord]:
    """Read a ratings CSV with header candidate_id,annotator_id,syntax,semantic.

    An error names the first line of its row: a quoted field may span lines.
    """
    records: list[RatingRecord] = []
    seen: set[tuple[str, str]] = set()
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
                if not row:
                    continue
                if len(row) != len(RATING_COLUMNS):
                    raise RatingsError(f"{path}:{line_no}: expected "
                                       f"{len(RATING_COLUMNS)} columns, got {len(row)}")
                candidate_id, annotator_id, syntax_s, semantic_s = row
                key = (candidate_id, annotator_id)
                if key in seen:
                    first = next(n for n, other in _numbered_rows(path) if tuple(other[:2]) == key)
                    raise RatingsError(
                        f"{path}:{line_no}: duplicate rating for candidate "
                        f"{key[0]!r} by annotator {key[1]!r}, first used at {path}:{first}"
                    )
                seen.add(key)
                syntax = _SCORE_OF.get(syntax_s)
                semantic = _SCORE_OF.get(semantic_s)
                if syntax is None or semantic is None:
                    syntax, semantic = _parse_scores(f"{path}:{line_no}", syntax_s, semantic_s)
                records.append(RatingRecord(candidate_id, annotator_id, syntax, semantic))
        except csv.Error as exc:
            raise RatingsError(f"{path}:{end + 1}: {exc}") from None
    return records


def _parse_scores(where: str, syntax_s: str, semantic_s: str) -> tuple[int, int]:
    """The two scores of a row, each an integer in 1..5."""
    try:
        syntax = int(syntax_s)
        semantic = int(semantic_s)
    except ValueError:
        raise RatingsError(f"{where}: scores must be integers") from None
    for name, score in (("syntax", syntax), ("semantic", semantic)):
        if not 1 <= score <= 5:
            raise RatingsError(f"{where}: {name} score {score} outside 1..5")
    return syntax, semantic


def _numbered_rows(path):
    """Each row of a ratings CSV after the header, with the first line it spans."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        end = reader.line_num
        for row in reader:
            yield end + 1, row
            end = reader.line_num


def rating_line(path, candidate_id: str) -> int | None:
    """The first line of the first row of a ratings CSV that rates candidate_id."""
    return next((n for n, row in _numbered_rows(path) if row and row[0] == candidate_id), None)


def _mean(scores):
    return statistics.fmean(scores) if scores else None


def _median(scores):
    return int(statistics.median_low(scores)) if scores else None


def _row_stats(count, syntax_scores, semantic_scores) -> RowStats:
    return RowStats(_mean(syntax_scores), _median(syntax_scores),
                    _mean(semantic_scores), _median(semantic_scores), count)


def aggregate(ratings, candidates) -> EvalTable:
    """Per-karaka means, lower medians, and candidate counts, plus totals."""
    karaka_of = {}
    ids_of: dict[str, set] = {}  # karaka -> its distinct candidate ids
    for c in candidates:
        karaka_of[c.candidate_id] = c.karaka
        ids_of.setdefault(c.karaka, set()).add(c.candidate_id)
    scores = {karaka: ([], []) for karaka in ids_of}
    for r in ratings:
        try:
            syntax, semantic = scores[karaka_of[r.candidate_id]]
        except KeyError:
            raise UnknownCandidateError(r.candidate_id) from None
        syntax.append(r.syntax)
        semantic.append(r.semantic)
    rows = {
        karaka: _row_stats(len(ids_of[karaka]), syntax, semantic)
        for karaka, (syntax, semantic) in scores.items()
    }
    # The totals pool every group's scores: the same multisets as the ratings.
    totals = _row_stats(
        len(karaka_of),
        [x for syntax, _ in scores.values() for x in syntax],
        [x for _, semantic in scores.values() for x in semantic],
    )
    return EvalTable(rows, totals)


def _split_stats(ratings, count) -> SplitStats:
    return SplitStats(_mean([r.syntax for r in ratings]),
                      _mean([r.semantic for r in ratings]), count)


def before_after(ratings, candidates, verdicts) -> BeforeAfter:
    """Mean quality over all candidates versus the ones kept by filtering."""
    kept_of = {v.candidate_id: v.kept for v in verdicts}
    ids = {c.candidate_id for c in candidates}
    kept_ids = {cid for cid in ids if kept_of.get(cid)}
    kept_ratings = []
    for r in ratings:
        if r.candidate_id in kept_ids:
            kept_ratings.append(r)
        elif r.candidate_id not in ids:
            raise UnknownCandidateError(r.candidate_id)
    missing = [c.candidate_id for c in candidates if c.candidate_id not in kept_of]
    if missing:
        raise UncoveredCandidateError(missing[0], len(missing))
    return BeforeAfter(
        before=_split_stats(ratings, len(ids)),
        after=_split_stats(kept_ratings, len(kept_ids)),
    )


def _sorted_rows(rows) -> list:
    order = {k: i for i, k in enumerate(KARAKA_ROW_ORDER)}
    return sorted(rows, key=lambda k: (order.get(k, len(order)), k))


def _fmt_mean(value) -> str:
    return f"{value:.3f}" if value is not None else "-"


def _fmt_median(value) -> str:
    return str(value) if value is not None else "-"


def _table_line(name: str, r: RowStats) -> str:
    return (f"{name:<8}{_fmt_mean(r.syntax_mean):>10}{_fmt_median(r.syntax_median):>9}"
            f"{_fmt_mean(r.semantic_mean):>10}{_fmt_median(r.semantic_median):>9}{r.count:>7}")


def render_eval_table(table: EvalTable) -> str:
    header = f"{'karaka':<8}{'syn_mean':>10}{'syn_med':>9}{'sem_mean':>10}{'sem_med':>9}{'count':>7}"
    rows = [_table_line(karaka, table.rows[karaka]) for karaka in _sorted_rows(table.rows)]
    return "\n".join([header, *rows, _table_line("total", table.totals)])


def render_before_after(ba: BeforeAfter) -> str:
    lines = [
        f"{'':<14}{'before':>10}{'after':>10}",
        f"{'syntax_mean':<14}{_fmt_mean(ba.before.syntax_mean):>10}{_fmt_mean(ba.after.syntax_mean):>10}",
        f"{'semantic_mean':<14}{_fmt_mean(ba.before.semantic_mean):>10}{_fmt_mean(ba.after.semantic_mean):>10}",
        f"{'count':<14}{ba.before.count:>10}{ba.after.count:>10}",
    ]
    return "\n".join(lines)


def eval_table_to_dict(table: EvalTable) -> dict:
    return {
        "rows": {k: asdict(table.rows[k]) for k in _sorted_rows(table.rows)},
        "totals": asdict(table.totals),
    }


def before_after_to_dict(ba: BeforeAfter) -> dict:
    return asdict(ba)
