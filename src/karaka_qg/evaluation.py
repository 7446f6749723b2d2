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


def load_ratings(path) -> list[RatingRecord]:
    """Read a ratings CSV with header candidate_id,annotator_id,syntax,semantic."""
    records: list[RatingRecord] = []
    seen: set[tuple[str, str]] = set()
    with open_utf8(path, RatingsError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RATING_COLUMNS:
            raise RatingsError(
                f"{path}: expected header {','.join(RATING_COLUMNS)}, got {header}"
            )
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) != len(RATING_COLUMNS):
                raise RatingsError(
                    f"{path}:{line_no}: expected {len(RATING_COLUMNS)} columns, got {len(row)}"
                )
            candidate_id, annotator_id, syntax_s, semantic_s = row
            key = (candidate_id, annotator_id)
            if key in seen:
                raise RatingsError(
                    f"{path}:{line_no}: duplicate rating for candidate "
                    f"{key[0]!r} by annotator {key[1]!r}"
                )
            seen.add(key)
            try:
                syntax = int(syntax_s)
                semantic = int(semantic_s)
            except ValueError:
                raise RatingsError(
                    f"{path}:{line_no}: scores must be integers"
                ) from None
            for name, score in (("syntax", syntax), ("semantic", semantic)):
                if not 1 <= score <= 5:
                    raise RatingsError(
                        f"{path}:{line_no}: {name} score {score} outside 1..5"
                    )
            records.append(RatingRecord(candidate_id, annotator_id, syntax, semantic))
    return records


def rating_line(path, candidate_id: str) -> int | None:
    """The line of the first row of a ratings CSV that rates candidate_id."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row and row[0] == candidate_id:
                return reader.line_num
    return None


def _mean(scores):
    return statistics.fmean(scores) if scores else None


def _median(scores):
    return int(statistics.median_low(scores)) if scores else None


def _row_stats(candidate_ids, syntax_scores, semantic_scores) -> RowStats:
    return RowStats(_mean(syntax_scores), _median(syntax_scores),
                    _mean(semantic_scores), _median(semantic_scores), len(candidate_ids))


def _candidates_by_id(ratings, candidates) -> dict:
    """Candidates keyed by id; every rating must name one of them."""
    by_id = {c.candidate_id: c for c in candidates}
    for r in ratings:
        if r.candidate_id not in by_id:
            raise UnknownCandidateError(r.candidate_id)
    return by_id


def aggregate(ratings, candidates) -> EvalTable:
    """Per-karaka means, lower medians, and candidate counts, plus totals."""
    by_id = _candidates_by_id(ratings, candidates)
    groups: dict[str, dict] = {}
    for c in candidates:
        group = groups.setdefault(
            c.karaka, {"ids": set(), "syntax": [], "semantic": []}
        )
        group["ids"].add(c.candidate_id)
    for r in ratings:
        group = groups[by_id[r.candidate_id].karaka]
        group["syntax"].append(r.syntax)
        group["semantic"].append(r.semantic)
    rows = {
        karaka: _row_stats(g["ids"], g["syntax"], g["semantic"])
        for karaka, g in groups.items()
    }
    totals = _row_stats(
        {c.candidate_id for c in candidates},
        [r.syntax for r in ratings],
        [r.semantic for r in ratings],
    )
    return EvalTable(rows, totals)


def _split_stats(candidate_ids, ratings) -> SplitStats:
    syntax = [r.syntax for r in ratings if r.candidate_id in candidate_ids]
    semantic = [r.semantic for r in ratings if r.candidate_id in candidate_ids]
    return SplitStats(_mean(syntax), _mean(semantic), len(candidate_ids))


def before_after(ratings, candidates, verdicts) -> BeforeAfter:
    """Mean quality over all candidates versus the ones kept by filtering."""
    by_id = _candidates_by_id(ratings, candidates)
    verdict_map = {v.candidate_id: v for v in verdicts}
    missing = [c.candidate_id for c in candidates if c.candidate_id not in verdict_map]
    if missing:
        raise RatingsError(
            f"no filter verdict for candidate {missing[0]!r} "
            f"({len(missing)} candidates uncovered)"
        )
    all_ids = set(by_id)
    kept_ids = {cid for cid in all_ids if verdict_map[cid].kept}
    return BeforeAfter(
        before=_split_stats(all_ids, ratings),
        after=_split_stats(kept_ids, ratings),
    )


def _sorted_rows(rows) -> list:
    order = {k: i for i, k in enumerate(KARAKA_ROW_ORDER)}
    return sorted(rows, key=lambda k: (order.get(k, len(order)), k))


def _fmt_mean(value) -> str:
    return f"{value:.3f}" if value is not None else "-"


def _fmt_median(value) -> str:
    return str(value) if value is not None else "-"


def render_eval_table(table: EvalTable) -> str:
    header = f"{'karaka':<8}{'syn_mean':>10}{'syn_med':>9}{'sem_mean':>10}{'sem_med':>9}{'count':>7}"
    lines = [header]
    for karaka in _sorted_rows(table.rows):
        r = table.rows[karaka]
        lines.append(
            f"{karaka:<8}{_fmt_mean(r.syntax_mean):>10}{_fmt_median(r.syntax_median):>9}"
            f"{_fmt_mean(r.semantic_mean):>10}{_fmt_median(r.semantic_median):>9}{r.count:>7}"
        )
    t = table.totals
    lines.append(
        f"{'total':<8}{_fmt_mean(t.syntax_mean):>10}{_fmt_median(t.syntax_median):>9}"
        f"{_fmt_mean(t.semantic_mean):>10}{_fmt_median(t.semantic_median):>9}{t.count:>7}"
    )
    return "\n".join(lines)


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
