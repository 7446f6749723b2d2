"""Tests for rating ingestion and aggregation."""

import re
import sys

import pytest

import karaka_qg.evaluation
from helpers import make_rated_candidate as make_candidate
from helpers import write_ratings
from karaka_qg.evaluation import (
    RatingRecord,
    RatingsError,
    aggregate,
    before_after,
    before_after_to_dict,
    eval_table_to_dict,
    evaluate_ratings,
    load_ratings,
    render_before_after,
    render_eval_table,
)
from karaka_qg.filters import FilterId, FilterVerdict


def test_load_ratings_reads_rows(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", 5, 4), ("c1", "a2", 3, 2)])
    records = load_ratings(path)
    assert records == [
        RatingRecord("c1", "a1", 5, 4),
        RatingRecord("c1", "a2", 3, 2),
    ]


def test_load_ratings_rejects_wrong_header(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("id,annotator,syntax,semantic\nc1,a1,5,4\n", encoding="utf-8")
    with pytest.raises(RatingsError, match="expected header candidate_id,annotator_id,syntax,semantic"):
        load_ratings(path)


def test_load_ratings_names_line_one_for_a_wrong_or_missing_header(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("id,annotator,syntax,semantic\nc1,a1,5,4\n", encoding="utf-8")
    with pytest.raises(RatingsError, match=r"ratings\.csv:1: expected header "):
        load_ratings(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(RatingsError, match=r"ratings\.csv:1: expected header .*, got None"):
        load_ratings(path)


def test_load_ratings_reads_scores_as_int_does(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", " 5", "+4"), ("c1", "a2", "05", "3 ")])
    assert load_ratings(path) == [RatingRecord("c1", "a1", 5, 4), RatingRecord("c1", "a2", 5, 3)]
    for syntax, semantic, reason in (("0", "3", "syntax score 0 outside 1..5"),
                                     ("3", "+6", "semantic score 6 outside 1..5"),
                                     ("3", "", "scores must be integers"),
                                     ("4.0", "3", "scores must be integers")):
        write_ratings(path, [("c1", "a1", 3, 3), ("c2", "a1", syntax, semantic)])
        with pytest.raises(RatingsError, match=rf"ratings\.csv:3: {reason}"):
            load_ratings(path)


@pytest.mark.parametrize("syntax, semantic", [
    ("0_5", "4"), ("5", "\uff14"), ("\u0663", "3"), ("4", "1_0"), ("\xa05", "4"),
], ids=["underscore", "full-width", "arabic-indic", "underscore-out-of-range", "no-break-space"])
def test_load_ratings_takes_ascii_scores_only(tmp_path, syntax, semantic):
    # int() alone would read each of these as an integer.
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", 3, 3), ("c2", "a1", syntax, semantic)])
    with pytest.raises(RatingsError, match=r"^.*ratings\.csv:3: scores must be integers$"):
        load_ratings(path)


def test_load_ratings_turns_csv_errors_into_line_errors(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("candidate_id,annotator_id,syntax,semantic\nc1,a1,3,4\n"
                    f"c2,{'a' * 200_000},3,4\n", encoding="utf-8")
    with pytest.raises(RatingsError, match=r"ratings\.csv:3: field larger than field limit"):
        load_ratings(path)
    path.write_text("candidate_id,annotator_id,syntax,semantic\nc1,a1,3,4\nc2,a\x001,3,4\n",
                    encoding="utf-8")
    if sys.version_info < (3, 11):  # csv reads a NUL byte from 3.11 on
        with pytest.raises(RatingsError, match=r"ratings\.csv:3: line contains NUL"):
            load_ratings(path)
    else:
        assert load_ratings(path)[1] == RatingRecord("c2", "a\x001", 3, 4)


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_blank_rows_fold_to_the_same_table_and_leave_line_numbers_physical(tmp_path, eol):
    header = "candidate_id,annotator_id,syntax,semantic"
    rows = ["c1,a1,5,4", "c1,a2,3,2", "c2,a1,4,1"]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(eol.join([header, *rows]) + eol, encoding="utf-8", newline="")
    spaced.write_text(eol.join([header, "", rows[0], "", "", rows[1], rows[2], ""]) + eol,
                      encoding="utf-8", newline="")
    karaka_of, kept_of = {"c1": "k1", "c2": "k2"}, {"c1": True, "c2": False}
    assert evaluate_ratings(spaced, karaka_of, kept_of) == evaluate_ratings(plain, karaka_of, kept_of)
    assert load_ratings(spaced) == load_ratings(plain)
    # The fault on the sixth physical line is named there, past three blank rows.
    spaced.write_text(eol.join([header, "", rows[0], "", "", "c2,a1,9,4"]) + eol,
                      encoding="utf-8", newline="")
    with pytest.raises(RatingsError, match=r"spaced\.csv:6: syntax score 9 outside 1\.\.5"):
        evaluate_ratings(spaced, karaka_of, kept_of)


def test_load_ratings_rejects_duplicate_pair_with_line(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", 5, 4), ("c1", "a1", 3, 2)])
    with pytest.raises(RatingsError, match=r"ratings\.csv:3: duplicate rating for candidate 'c1' "
                       r"by annotator 'a1', first used at .*ratings\.csv:2$"):
        load_ratings(path)
    # The first use is the pair's first row, not the candidate's.
    write_ratings(path, [("c1", "a2", 5, 4), ("c1", "a1", 5, 4), ("c1", "a1", 3, 2)])
    with pytest.raises(RatingsError, match=r"ratings\.csv:4: .*, first used at .*ratings\.csv:3$"):
        load_ratings(path)


@pytest.mark.parametrize("row, reason", [
    ("c1,,5,4", "empty annotator_id"),
    ("c1,a1 ,5,4", "annotator_id column 'a1 ' starts or ends with a space"),
    ("c1,\ta1,5,4", "annotator_id column '\\ta1' starts or ends with whitespace"),
], ids=["empty", "space", "tab"])
def test_an_annotator_id_is_checked_in_both_reads(tmp_path, row, reason):
    path = tmp_path / "ratings.csv"
    path.write_text(f"candidate_id,annotator_id,syntax,semantic\nc1,a1,5,4\n{row}\n",
                    encoding="utf-8")
    for read in (load_ratings, lambda path: evaluate_ratings(path, {"c1": "k1"})):
        with pytest.raises(RatingsError, match=re.escape(f"ratings.csv:3: {reason}")):
            read(path)


@pytest.mark.parametrize("candidate_id, reason", [
    ("", "empty candidate_id"),
    (" c1", "candidate_id column ' c1' starts or ends with a space"),
], ids=["empty", "space"])
def test_a_new_candidate_id_is_checked_by_load_ratings(tmp_path, candidate_id, reason):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", 5, 4), (candidate_id, "a1", 5, 4)])
    with pytest.raises(RatingsError, match=re.escape(f"ratings.csv:3: {reason}")):
        load_ratings(path)
    # The fold knows its candidates, so an id it lacks keeps its own error.
    with pytest.raises(RatingsError, match=re.escape(
            f"ratings.csv:3: rating references unknown candidate_id {candidate_id!r}")):
        evaluate_ratings(path, {"c1": "k1"})


def test_each_annotator_id_is_checked_once(tmp_path, monkeypatch):
    checked = []
    check_edges = karaka_qg.evaluation.check_edges

    def counted(where, error, columns):
        checked.append(columns)
        check_edges(where, error, columns)

    monkeypatch.setattr(karaka_qg.evaluation, "check_edges", counted)
    path = tmp_path / "ratings.csv"
    rows = [(f"c{i}", f"a{j}", 5, 4) for i in range(4) for j in (2, 1, 3)]
    write_ratings(path, rows)
    table, _ = evaluate_ratings(path, {f"c{i}": "k1" for i in range(4)})
    assert table.totals.count == 4
    assert checked == [(("annotator_id", f"a{j}"),) for j in (2, 1, 3)]
    # load_ratings checks each new candidate_id too, once.
    checked.clear()
    assert len(load_ratings(path)) == 12
    assert sorted(checked) == sorted([(("annotator_id", f"a{j}"),) for j in (2, 1, 3)]
                                     + [(("candidate_id", f"c{i}"),) for i in range(4)])


def test_load_ratings_rejects_non_integer_scores(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", "good", 4)])
    with pytest.raises(RatingsError, match=r"ratings\.csv:2: scores must be integers"):
        load_ratings(path)


def test_load_ratings_rejects_rows_with_another_column_count(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("candidate_id,annotator_id,syntax,semantic\n"
                    "c1,a1,3,4\nc2,a1,3,4,EXTRA\n", encoding="utf-8")
    with pytest.raises(RatingsError, match=r"ratings\.csv:3: expected 4 columns, got 5"):
        load_ratings(path)
    path.write_text("candidate_id,annotator_id,syntax,semantic\nc1,a1,3\n", encoding="utf-8")
    with pytest.raises(RatingsError, match=r"ratings\.csv:2: expected 4 columns, got 3"):
        load_ratings(path)


def test_load_ratings_rejects_out_of_range_scores(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("c1", "a1", 6, 4)])
    with pytest.raises(RatingsError, match="syntax score 6 outside 1..5"):
        load_ratings(path)
    write_ratings(path, [("c1", "a1", 5, 0)])
    with pytest.raises(RatingsError, match="semantic score 0 outside 1..5"):
        load_ratings(path)


def test_aggregate_counts_distinct_candidates_not_ratings():
    candidates = [make_candidate("c1", "k1"), make_candidate("c2", "k1")]
    ratings = [
        RatingRecord("c1", "a1", 5, 4),
        RatingRecord("c1", "a2", 3, 2),
        RatingRecord("c2", "a1", 4, 4),
    ]
    table = aggregate(ratings, candidates)
    row = table.rows["k1"]
    assert row.count == 2
    assert row.syntax_mean == pytest.approx(4.0)
    assert row.syntax_median == 4
    assert row.semantic_median == 4
    assert table.totals.count == 2


def test_aggregate_group_without_ratings_reports_absent_stats():
    candidates = [make_candidate("c1", "k1"), make_candidate("c3", "k2")]
    ratings = [RatingRecord("c1", "a1", 5, 4)]
    table = aggregate(ratings, candidates)
    empty = table.rows["k2"]
    assert empty.count == 1
    assert empty.syntax_mean is None
    assert empty.syntax_median is None
    assert empty.semantic_mean is None


def test_aggregate_uses_lower_median():
    candidates = [make_candidate("c1", "k1")]
    ratings = [RatingRecord("c1", "a1", 3, 2), RatingRecord("c1", "a2", 4, 5)]
    table = aggregate(ratings, candidates)
    assert table.rows["k1"].syntax_median == 3
    assert table.rows["k1"].semantic_median == 2


def test_aggregate_rejects_orphan_rating():
    candidates = [make_candidate("c1", "k1")]
    ratings = [RatingRecord("ghost", "a1", 3, 3)]
    with pytest.raises(RatingsError, match="unknown candidate_id 'ghost'"):
        aggregate(ratings, candidates)


@pytest.mark.parametrize("syntax, semantic, message", [
    (6, 4, "syntax score 6 outside 1..5"), (5, 0, "semantic score 0 outside 1..5"),
    (4.5, 4, "scores must be integers"), (True, 4, "scores must be integers"),
])
def test_aggregate_rejects_a_score_a_ratings_file_could_not_hold(syntax, semantic, message):
    candidates = [make_candidate("c1", "k1")]
    ratings = [RatingRecord("c1", "a1", syntax, semantic)]
    with pytest.raises(RatingsError, match=rf"^rating of 'c1' by annotator 'a1': {message}$"):
        aggregate(ratings, candidates)


def test_before_after_requires_verdict_coverage():
    candidates = [make_candidate("c1", "k1"), make_candidate("c2", "k1")]
    ratings = [RatingRecord("c1", "a1", 3, 3)]
    verdicts = [FilterVerdict("c1", True)]
    with pytest.raises(RatingsError, match="no filter verdict for candidate 'c2' .1 candidates uncovered."):
        before_after(ratings, candidates, verdicts)


def test_before_after_splits_on_kept_flag():
    candidates = [make_candidate("c1", "k1"), make_candidate("c2", "k1")]
    ratings = [
        RatingRecord("c1", "a1", 5, 5),
        RatingRecord("c2", "a1", 1, 1),
    ]
    verdicts = [
        FilterVerdict("c1", True),
        FilterVerdict("c2", False, FilterId.F_ANAPHORA, "x"),
    ]
    ba = before_after(ratings, candidates, verdicts)
    assert ba.before.count == 2
    assert ba.after.count == 1
    assert ba.before.syntax_mean == pytest.approx(3.0)
    assert ba.after.syntax_mean == pytest.approx(5.0)
    assert ba.after.semantic_mean == pytest.approx(5.0)


def test_before_after_rejects_orphan_rating():
    candidates = [make_candidate("c1", "k1")]
    ratings = [RatingRecord("ghost", "a1", 3, 3)]
    with pytest.raises(RatingsError, match="unknown candidate_id"):
        before_after(ratings, candidates, [FilterVerdict("c1", True)])


def test_render_eval_table_layout():
    candidates = [make_candidate("c1", "k2"), make_candidate("c2", "k1")]
    ratings = [RatingRecord("c1", "a1", 4, 3)]
    text = render_eval_table(aggregate(ratings, candidates))
    lines = text.splitlines()
    assert lines[0].split() == ["karaka", "syn_mean", "syn_med", "sem_mean", "sem_med", "count"]
    assert lines[1].startswith("k1")
    assert "-" in lines[1]
    assert lines[2].startswith("k2")
    assert "4.000" in lines[2]
    assert lines[-1].startswith("total")


def test_row_order_is_canonical_then_alphabetical():
    candidates = [
        make_candidate("c1", "zzz"),
        make_candidate("c2", "k7t"),
        make_candidate("c3", "k1"),
        make_candidate("c4", "aaa"),
    ]
    table = aggregate([], candidates)
    assert list(eval_table_to_dict(table)["rows"]) == ["k1", "k7t", "aaa", "zzz"]


def test_render_before_after_layout():
    candidates = [make_candidate("c1", "k1")]
    ratings = [RatingRecord("c1", "a1", 4, 2)]
    ba = before_after(ratings, candidates, [FilterVerdict("c1", True)])
    text = render_before_after(ba)
    lines = text.splitlines()
    assert "before" in lines[0] and "after" in lines[0]
    assert lines[1].startswith("syntax_mean")
    assert lines[2].startswith("semantic_mean")
    assert lines[3].startswith("count")
    payload = before_after_to_dict(ba)
    assert payload["before"]["count"] == 1
    assert payload["after"]["syntax_mean"] == pytest.approx(4.0)


# The header, a row on line 2, and a row whose quoted candidate_id opens on
# line 3 and closes on line 4, where the test writes the rest of the row.
MULTI_LINE_ROWS = "candidate_id,annotator_id,syntax,semantic\nc0,a1,5,4\n\"c1\nx\","


@pytest.mark.parametrize("rest, line, reason", [
    ("a1,9,4\n", 3, "syntax score 9 outside 1..5"),
    ("a1,x,4\n", 3, "scores must be integers"),
    ("a1,5\n", 3, "expected 4 columns, got 3"),
    ("a1,5,4\n\"c1\nx\",a1,3,3\n", 5,
     "duplicate rating for candidate 'c1\\nx' by annotator 'a1', first used at {path}:3"),
    (f"{'a' * 200_000},3,4\n", 3, "field larger than field limit"),
], ids=["score", "not-an-integer", "columns", "duplicate", "csv-error"])
def test_load_ratings_names_the_first_line_of_a_multi_line_row(tmp_path, rest, line, reason):
    path = tmp_path / "ratings.csv"
    path.write_text(MULTI_LINE_ROWS + rest, encoding="utf-8")
    with pytest.raises(RatingsError, match=re.escape(f"ratings.csv:{line}: {reason.format(path=path)}")):
        load_ratings(path)
