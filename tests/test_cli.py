"""End-to-end tests for the command line interface."""

import argparse
import ast
import gc
import importlib.metadata
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import pytest

import karaka_qg.cli
from helpers import bundled_corpus_text, make_rated_candidate, write_ratings
from karaka_qg.cli import main
from karaka_qg.evaluation import (
    BeforeAfter,
    EvalTable,
    RatingRecord,
    RowStats,
    SplitStats,
    evaluate_ratings,
    load_ratings,
)
from karaka_qg.filters import FilterConfig, FilterVerdict
from karaka_qg.lexicon import default_lexicon, load_lexicon
from karaka_qg.morphology import DEFAULT_MARKERS, load_marker_table
from karaka_qg.rule_engine import (
    SUBSTITUTIONS,
    QuestionCandidate,
    Role,
    RuleId,
    generate_all,
)
from karaka_qg.textfile import write_jsonl
from karaka_qg.treebank_io import Token, build_sentence, load_treebank

# The environment of a fresh interpreter that imports this checkout's package.
PACKAGE_ENV = {**os.environ, "PYTHONPATH": str(Path(karaka_qg.__file__).resolve().parent.parent)}


def last_error(err: str) -> str | None:
    """The message of the last ERROR line in err, what main wrote to stderr; None if none."""
    _, sep, message = ("\n" + err).rpartition("\nERROR ")
    return message.removesuffix("\n") if sep else None

TREEBANK = """\
# sent_id = e001
1\tkal\tkal\tNOUN\t_\t6\tk7t
2\traam\traam\tPROPN\t_\t6\tk1
3\tne\tne\tADP\t_\t2\tpsp
4\traavan\traavan\tPROPN\t_\t6\tk2
5\tko\tko\tADP\t_\t4\tpsp
6\tmara\tmaar\tVERB\t_\t0\troot
7\t।\t।\tPUNCT\t_\t6\tpunct

# sent_id = e002
1\tvah\tvah\tPRON\t_\t3\tk1
2\tghar\tghar\tNOUN\t_\t3\tk2p
3\tgaya\tja\tVERB\t_\t0\troot
"""

ALL_KARAKAS = ("k1", "k1s", "k2", "k2p", "k3", "rt", "rh", "k5", "r6", "k7s", "k7t", "k7p")


def write_input(tmp_path):
    path = tmp_path / "input.conllu"
    path.write_text(TREEBANK, encoding="utf-8")
    return path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_generate_writes_candidates_summary_and_meta(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    rows = read_jsonl(out / "candidates.jsonl")
    assert len(rows) == 8
    assert rows[0]["candidate_id"] == "e001:R_K1:2:0"
    assert [r["candidate_id"] for r in rows] == sorted(r["candidate_id"] for r in rows)
    summary = json.loads((out / "generate_summary.json").read_text(encoding="utf-8"))
    assert tuple(summary) == ALL_KARAKAS
    assert summary["k1"] == 2
    assert summary["k7t"] == 3
    assert summary["rh"] == 0
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "generate"
    assert meta["theta"] == 5


def test_run_meta_records_every_setting(tmp_path):
    # A command with no flag for a setting records that setting's default.
    src = write_input(tmp_path)
    markers = tmp_path / "markers.tsv"
    markers.write_text("erg\tne\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("raam\tHUMAN\n", encoding="utf-8")
    out = tmp_path / "out"
    all_rules = ["R_K1", "R_K1S", "R_K2", "R_K2P", "R_K3", "R_K5", "R_K7S", "R_K7T",
                 "R_R6", "R_R6_NONLIVING", "R_RH", "R_RT"]
    all_filters = ["F_ALREADY_QUESTION", "F_ANAPHORA", "F_COMPLEX_COMPOUND",
                   "F_GENDER_AGREEMENT", "F_WORD_ORDER"]
    runs = [
        (["generate", "--input", str(src), "--out", str(out), "--rules", "k2,R_K1",
          "--markers", str(markers), "--lexicon", str(lexicon)],
         {"command": "generate", "input": str(src), "lexicons": [str(lexicon)],
          "markers": str(markers), "theta": 5, "rules": ["R_K1", "R_K2"],
          "filters": all_filters}),
        (["filter", "--input", str(src), "--out", str(out), "--theta", "3",
          "--disable-filter", "anaphora", "--disable-filter", "F_WORD_ORDER"],
         {"command": "filter", "input": str(src), "lexicons": [], "markers": None,
          "theta": 3, "rules": all_rules,
          "filters": ["F_ALREADY_QUESTION", "F_COMPLEX_COMPOUND", "F_GENDER_AGREEMENT"]}),
        (["pipeline", "--input", str(src), "--out", str(out)],
         {"command": "pipeline", "input": str(src), "lexicons": [], "markers": None,
          "theta": 5, "rules": all_rules, "filters": all_filters}),
    ]
    for argv, expected in runs:
        assert main(argv) == 0
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert list(meta) == [*expected, "written_at"]
        # ISO 8601 UTC to the microsecond, always six digits.
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", meta["written_at"])
        written_at = datetime.fromisoformat(meta.pop("written_at"))
        assert written_at.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - written_at) < timedelta(minutes=1)
        assert meta == expected


def test_benchmark_setup_hook_builds_what_each_command_builds(tmp_path):
    # The calls the benchmark's setup job makes through the cli module.
    markers = tmp_path / "markers.tsv"
    markers.write_text("erg\tnai\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("xyzzy\tHUMAN\n", encoding="utf-8")
    cli = karaka_qg.cli
    cfg = cli._config_from_args(cli.build_parser().parse_args(
        ["pipeline", "--input", "in.conllu", "--out", str(tmp_path),
         "--markers", str(markers), "--lexicon", str(lexicon)]))
    assert cli._load_markers(cfg).ergative == frozenset({"nai"})
    assert cli._load_lexicon(cfg).lookup("xyzzy").value == "HUMAN"
    cfg = cli._config_from_args(cli.build_parser().parse_args(
        ["eval", "--out", str(tmp_path), "--ratings", "r.csv"]))
    assert cfg.candidates_path == tmp_path / "candidates.jsonl"


def test_generate_output_is_byte_identical_across_runs(tmp_path):
    src = write_input(tmp_path)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["generate", "--input", str(src), "--out", str(first)]) == 0
    assert main(["generate", "--input", str(src), "--out", str(second)]) == 0
    for name in ("candidates.jsonl", "generate_summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_filter_reads_generated_candidates_by_default(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    assert main(["filter", "--input", str(src), "--out", str(out)]) == 0
    kept = read_jsonl(out / "kept.jsonl")
    verdicts = read_jsonl(out / "verdicts.jsonl")
    assert len(verdicts) == 8
    assert len(kept) == 6
    summary = json.loads((out / "filter_summary.json").read_text(encoding="utf-8"))
    assert summary["input"] == 8
    assert summary["kept"] == 6
    assert summary["dropped"]["F_ANAPHORA"] == 2
    assert sum(summary["dropped"].values()) == 2


def test_pipeline_matches_stepwise_composition(tmp_path):
    src = write_input(tmp_path)
    piped = tmp_path / "piped"
    stepped = tmp_path / "stepped"
    assert main(["pipeline", "--input", str(src), "--out", str(piped)]) == 0
    assert main(["generate", "--input", str(src), "--out", str(stepped)]) == 0
    assert main(["filter", "--input", str(src), "--out", str(stepped)]) == 0
    for name in ("candidates.jsonl", "kept.jsonl", "verdicts.jsonl",
                 "generate_summary.json", "filter_summary.json"):
        assert (piped / name).read_bytes() == (stepped / name).read_bytes()


def test_pipeline_encodes_each_candidate_once_for_both_candidate_files(tmp_path, monkeypatch):
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    encode = QuestionCandidate.to_json_line
    calls = []
    monkeypatch.setattr(QuestionCandidate, "to_json_line",
                        lambda self: calls.append(self.candidate_id) or encode(self))
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    # 96 candidates, 75 of them kept: one encoding each, not 96 + 75.
    assert len(calls) == len(set(calls)) == 96
    lines = (out / "candidates.jsonl").read_text("utf-8").splitlines(keepends=True)
    verdicts = [json.loads(line) for line in (out / "verdicts.jsonl").read_text("utf-8").splitlines()]
    assert [json.loads(line)["candidate_id"] for line in lines] == [v["candidate_id"] for v in verdicts]
    kept = [line for line, verdict in zip(lines, verdicts) if verdict["kept"]]
    assert len(kept) == 75
    assert (out / "kept.jsonl").read_text("utf-8") == "".join(kept)


def test_reversed_sentence_order_writes_the_same_files(tmp_path):
    # Candidates are sorted by id, so the order of the treebank's blocks must not show.
    blocks = bundled_corpus_text().strip("\n").split("\n\n")
    assert len(blocks) == 30
    forward, backward = tmp_path / "forward.conllu", tmp_path / "backward.conllu"
    forward.write_text(bundled_corpus_text(), encoding="utf-8")
    backward.write_text("\n\n".join(reversed(blocks)) + "\n", encoding="utf-8")
    for src in (forward, backward):
        assert main(["pipeline", "--input", str(src), "--out", str(tmp_path / src.stem)]) == 0
    for name in ("candidates.jsonl", "kept.jsonl", "verdicts.jsonl",
                 "generate_summary.json", "filter_summary.json"):
        assert ((tmp_path / "forward" / name).read_bytes()
                == (tmp_path / "backward" / name).read_bytes()), name


def test_renamed_sentence_ids_rename_only_the_id_fields(tmp_path):
    # c001..c030 become r30..r1: reversed, and no longer in numeric order as strings.
    rename = {f"c{n:03d}": f"r{31 - n}" for n in range(1, 31)}
    assert sorted(rename.values()) != [rename[k] for k in sorted(rename)]
    text = bundled_corpus_text()
    assert text.count("# sent_id = ") == len(rename)
    renamed = re.sub(r"(?m)^# sent_id = (\S+)$", lambda m: f"# sent_id = {rename[m[1]]}", text)
    for name, body in (("original", text), ("renamed", renamed)):
        (tmp_path / f"{name}.conllu").write_text(body, encoding="utf-8")
        assert main(["pipeline", "--input", str(tmp_path / f"{name}.conllu"),
                     "--out", str(tmp_path / name)]) == 0

    def renamed_ids(record):
        for field in ("sentence_id", "candidate_id", "variation_group"):
            if field in record:
                sentence_id, sep, rest = record[field].partition(":")
                record[field] = rename[sentence_id] + sep + rest
        return json.dumps(record, sort_keys=True)

    def read(run, name):
        return [json.loads(line) for line in (tmp_path / run / name).read_text("utf-8").splitlines()]

    for name in ("candidates.jsonl", "kept.jsonl", "verdicts.jsonl"):
        original, records = read("original", name), read("renamed", name)
        assert original, name
        assert ({renamed_ids(r) for r in original} == {json.dumps(r, sort_keys=True) for r in records}
                and len(original) == len(records)), name
        ids = [r["candidate_id"] for r in records]
        assert ids == sorted(ids), name


def test_filter_on_shuffled_candidates_writes_the_sorted_run_lines_in_file_order(tmp_path):
    # The candidates of one sentence are not adjacent, so each sentence's facts are
    # looked up again and again, out of order.
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    lines = (out / "candidates.jsonl").read_bytes().splitlines(keepends=True)
    shuffled = lines[:]
    random.Random(7).shuffle(shuffled)
    assert shuffled != lines
    (tmp_path / "shuffled.jsonl").write_bytes(b"".join(shuffled))
    assert main(["filter", "--input", str(src), "--candidates", str(tmp_path / "shuffled.jsonl"),
                 "--out", str(tmp_path / "shuffled")]) == 0

    def by_id(path):
        return {json.loads(line)["candidate_id"]: line
                for line in path.read_bytes().splitlines(keepends=True)}

    ids = [json.loads(line)["candidate_id"] for line in shuffled]
    verdicts = (tmp_path / "shuffled" / "verdicts.jsonl").read_bytes().splitlines(keepends=True)
    sorted_verdicts = by_id(out / "verdicts.jsonl")
    assert verdicts == [sorted_verdicts[i] for i in ids]
    kept = (tmp_path / "shuffled" / "kept.jsonl").read_bytes().splitlines(keepends=True)
    sorted_kept = by_id(out / "kept.jsonl")
    assert kept == [sorted_kept[i] for i in ids if i in sorted_kept]


def test_eval_prints_table_and_before_after(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [
        ("e001:R_K1:2:0", "a1", 5, 4),
        ("e001:R_K2:4:0", "a1", 3, 2),
        ("e002:R_K2P:2:0", "a1", 1, 1),
    ])
    rc = main([
        "eval", "--candidates", str(out / "candidates.jsonl"),
        "--verdicts", str(out / "verdicts.jsonl"), "--ratings", str(ratings),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "karaka" in text
    assert "total" in text
    assert "before" in text and "after" in text


def test_eval_json_format(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    rc = main([
        "eval", "--candidates", str(out / "candidates.jsonl"),
        "--verdicts", str(out / "verdicts.jsonl"), "--ratings", str(ratings),
        "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["table"]["rows"]["k1"]["count"] == 2
    assert payload["table"]["rows"]["k1"]["syntax_mean"] == 5.0
    assert payload["before_after"]["before"]["count"] == 8
    assert payload["before_after"]["after"]["count"] == 6


def test_eval_without_verdicts_skips_before_after(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    rc = main([
        "eval", "--candidates", str(out / "candidates.jsonl"),
        "--ratings", str(ratings), "--format", "json",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["before_after"] is None
    assert "skipping the before/after block" in captured.err


def test_missing_explicit_verdicts_file_is_an_input_error(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    missing = tmp_path / "absent_verdicts.jsonl"
    rc = main(["eval", "--out", str(out), "--ratings", str(ratings),
               "--verdicts", str(missing)])
    assert rc == 1
    captured = capsys.readouterr()
    assert str(missing) in captured.err
    assert "skipping the before/after block" not in captured.err
    assert captured.out == ""


def test_missing_input_file_is_an_input_error(tmp_path):
    assert main(["generate", "--input", str(tmp_path / "absent.conllu"),
                 "--out", str(tmp_path)]) == 1


def test_malformed_treebank_is_an_input_error(tmp_path):
    src = tmp_path / "bad.conllu"
    src.write_text("1\traam\traam\n", encoding="utf-8")
    assert main(["generate", "--input", str(src), "--out", str(tmp_path)]) == 1


def test_duplicate_sent_id_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "dup.conllu"
    src.write_text(TREEBANK.replace("e002", "e001"), encoding="utf-8")
    rc = main(["pipeline", "--input", str(src), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{src}:10: duplicate sent_id 'e001', first used at {src}:1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "candidates.jsonl").exists()


@pytest.mark.parametrize("name, spoil, reason", [
    ("candidates.jsonl", lambda line: line[:-1], "Expecting ',' delimiter"),
    ("candidates.jsonl",
     lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "tokens"}),
     "missing field 'tokens'"),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "rule": "R_X"}),
     "'R_X' is not a valid RuleId"),
    ("verdicts.jsonl", lambda line: "not json", "Expecting value"),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "tokens": "kaun y ?"}),
     "field 'tokens' must be a list of strings, got \"kaun y ?\""),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "target_token_id": "one"}),
     "field 'target_token_id' must be an integer, got \"one\""),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "target_token_id": True}),
     "field 'target_token_id' must be an integer, got true"),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "notes": [1]}),
     "field 'notes' must be a list of strings, got [1]"),
    ("candidates.jsonl", lambda line: json.dumps([json.loads(line)]), "expected a JSON object"),
    ("verdicts.jsonl", lambda line: json.dumps({**json.loads(line), "kept": "yes"}),
     "field 'kept' must be true or false, got \"yes\""),
    ("verdicts.jsonl", lambda line: json.dumps({**json.loads(line), "dropped_by": 3}),
     "field 'dropped_by' must be a string or null, got 3"),
    ("candidates.jsonl", lambda line: "[" * 100000, "maximum recursion depth exceeded"),
    ("verdicts.jsonl", lambda line: "[" * 100000, "maximum recursion depth exceeded"),
    ("verdicts.jsonl",
     lambda line: json.dumps({**json.loads(line), "kept": True, "dropped_by": "F_ANAPHORA"}),
     'kept is true but dropped_by is "F_ANAPHORA"'),
    ("verdicts.jsonl", lambda line: json.dumps({**json.loads(line), "kept": False, "dropped_by": None}),
     "kept is false but dropped_by is null"),
    ("candidates.jsonl", lambda line: json.dumps({**json.loads(line), "karaka": "\ud800"}),
     "lone surrogate '\\ud800' is not text"),
    ("verdicts.jsonl", lambda line: json.dumps({**json.loads(line), "detail": "x\udfff"}),
     "lone surrogate '\\udfff' is not text"),
    ("verdicts.jsonl",
     lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "kept"}),
     "missing field 'kept'"),
    ("verdicts.jsonl",
     lambda line: json.dumps({**json.loads(line), "kept": False, "dropped_by": "F_X"}),
     "'F_X' is not a valid FilterId"),
], ids=["truncated", "no-tokens", "unknown-rule", "verdicts-not-json", "tokens-string",
        "target-id-string", "target-id-bool", "notes-not-strings", "not-an-object",
        "kept-string", "dropped-by-number", "candidates-nested", "verdicts-nested",
        "kept-names-a-filter", "dropped-names-none", "candidates-surrogate",
        "verdicts-surrogate", "no-kept", "unknown-filter"])
def test_malformed_jsonl_line_is_an_input_error(tmp_path, capsys, name, spoil, reason):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = spoil(lines[1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    command = (["filter", "--input", str(src)] if name == "candidates.jsonl"
               else ["eval", "--ratings", str(ratings)])
    rc = main(command + ["--out", str(out)])
    assert rc == 1
    message = last_error(capsys.readouterr().err)
    assert message.startswith(f"{path}:2: ")
    assert reason in message


@pytest.mark.parametrize("name", ["candidates.jsonl", "verdicts.jsonl"])
def test_repeated_candidate_id_is_an_input_error(tmp_path, capsys, name):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    rc = main(["eval", "--out", str(out), "--ratings", str(ratings)])
    assert rc == 1
    first_id = json.loads(lines[0])["candidate_id"]
    assert (f"{path}:{len(lines) + 1}: duplicate candidate_id {first_id!r}, "
            f"first used at {path}:1") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "filter"])
def test_repeated_candidate_id_names_a_first_use_past_a_blank_line(tmp_path, capsys, command):
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    lines = (out / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join([lines[0], "", *lines[1:], lines[1]]) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("c001:R_K1:1:0", "a1", 5, 4)])
    # eval reads the karaka of each line, filter builds each line's record.
    args = (["eval", "--out", str(out), "--ratings", str(ratings)] if command == "eval"
            else ["filter", "--input", str(src), "--out", str(tmp_path / "filtered")])
    assert main(args + ["--candidates", str(dup)]) == 1
    assert last_error(capsys.readouterr().err) == (
        f"{dup}:98: duplicate candidate_id 'c001:R_K2:3:0', first used at {dup}:3")


def test_lone_surrogate_escape_stops_eval_and_filter_before_any_output(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    candidates = out / "candidates.jsonl"
    lines = candidates.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "karaka": "\ud800"})
    candidates.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    filtered = tmp_path / "filtered"
    capsys.readouterr()
    assert main(["eval", "--out", str(out), "--ratings", str(ratings)]) == 1
    captured = capsys.readouterr()
    assert last_error(captured.err) == f"{candidates}:1: lone surrogate '\\ud800' is not text"
    assert captured.out == ""
    assert main(["filter", "--input", str(src), "--candidates", str(candidates),
                 "--out", str(filtered)]) == 1
    captured = capsys.readouterr()
    assert last_error(captured.err).startswith(f"{candidates}:1: ")
    assert captured.out == ""
    assert not filtered.exists()


def test_uncovered_candidate_names_its_candidates_line(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    candidates = out / "candidates.jsonl"
    verdicts = out / "verdicts.jsonl"
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4)])
    # More verdicts than candidates is fine: the kept candidates against all verdicts.
    assert main(["eval", "--candidates", str(out / "kept.jsonl"), "--verdicts", str(verdicts),
                 "--ratings", str(ratings)]) == 0
    capsys.readouterr()
    lines = verdicts.read_text(encoding="utf-8").splitlines()
    verdicts.write_text("\n".join(lines[:2] + lines[3:5]) + "\n", encoding="utf-8")
    ids = [row["candidate_id"] for row in read_jsonl(candidates)]
    assert main(["eval", "--out", str(out), "--ratings", str(ratings)]) == 1
    captured = capsys.readouterr()
    assert last_error(captured.err) == (
        f"{candidates}:3: no filter verdict for candidate {ids[2]!r} "
        f"({len(ids) - 4} candidates uncovered)")
    assert captured.out == ""


def test_missing_lexicon_file_is_an_input_error(tmp_path):
    src = write_input(tmp_path)
    assert main(["generate", "--input", str(src), "--out", str(tmp_path),
                 "--lexicon", str(tmp_path / "absent.tsv")]) == 1


def test_orphan_rating_is_an_input_error(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("ghost:R_K1:1:0", "a1", 5, 4)])
    assert main(["eval", "--candidates", str(out / "candidates.jsonl"),
                 "--ratings", str(ratings)]) == 1


def test_cross_file_reference_names_the_referring_line(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out)]) == 0
    candidates = out / "candidates.jsonl"
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4), ("ghost", "a1", 3, 3),
                            ("ghost", "a2", 3, 3)])
    assert main(["eval", "--candidates", str(candidates), "--ratings", str(ratings)]) == 1
    assert last_error(capsys.readouterr().err) == (
        f"{ratings}:3: rating references unknown candidate_id 'ghost'")
    one = tmp_path / "one.conllu"
    one.write_text(TREEBANK.split("\n\n")[0] + "\n", encoding="utf-8")
    ids = [row["candidate_id"] for row in read_jsonl(candidates)]
    orphan = next(cid for cid in ids if cid.startswith("e002:"))
    assert main(["filter", "--input", str(one), "--candidates", str(candidates),
                 "--out", str(tmp_path / "filtered")]) == 1
    assert last_error(capsys.readouterr().err) == (
        f"{candidates}:{ids.index(orphan) + 1}: candidate {orphan}: unknown sentence_id 'e002'")


# Rows whose first lines are 2, 3, 5 and 6: the quoted ids of the second
# and the fourth row each span two lines.
MULTI_LINE_RATINGS = ('candidate_id,annotator_id,syntax,semantic\n{0},a1,5,4\n"{1}\nx",a1,5,4\n'
                      '{2},a1,3,3\n"{3}\nx",a1,3,3\n')


@pytest.mark.parametrize("row, line", [(0, 2), (1, 3), (2, 5), (3, 6)],
                         ids=["line-2", "line-3", "line-5", "line-6"])
def test_unknown_candidate_names_the_first_line_of_a_multi_line_row(tmp_path, capsys, row, line):
    names = ["c0", "c1", "c2", "c3"]
    ids = [name + "\nx" if i % 2 else name for i, name in enumerate(names)]
    candidates = tmp_path / "candidates.jsonl"
    write_jsonl([make_rated_candidate(cid, "k1") for cid in ids], candidates)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(MULTI_LINE_RATINGS.format(*names), encoding="utf-8")
    argv = ["eval", "--candidates", str(candidates), "--ratings", str(ratings)]
    assert main(argv) == 0
    capsys.readouterr()
    names[row] = "ghost"
    ratings.write_text(MULTI_LINE_RATINGS.format(*names), encoding="utf-8")
    assert main(argv) == 1
    unknown = "ghost\nx" if row % 2 else "ghost"
    captured = capsys.readouterr()
    assert last_error(captured.err) == (
        f"{ratings}:{line}: rating references unknown candidate_id {unknown!r}")
    assert captured.out == ""


KNOWN = "e001:R_K1:2:0"


@pytest.mark.parametrize("rows, line, reason", [
    # An unknown id on line 2 comes before the duplicate of its pair on line 3 ...
    ([("ghost", "a1", 5, 4), ("ghost", "a1", 3, 3)], 2,
     "rating references unknown candidate_id 'ghost'"),
    # ... and before a later duplicate pair of a known id.
    ([("ghost", "a1", 5, 4), (KNOWN, "a1", 3, 3), (KNOWN, "a1", 3, 3)], 2,
     "rating references unknown candidate_id 'ghost'"),
    # A duplicate pair on line 3 comes before an unknown id on line 4.
    ([(KNOWN, "a1", 5, 4), (KNOWN, "a1", 3, 3), ("ghost", "a1", 3, 3)], 3,
     "duplicate rating for candidate {KNOWN!r} by annotator 'a1', first used at {ratings}:2"),
    # Within one row, its columns and scores come before its candidate_id.
    ([(KNOWN, "a1", 5, 4), ("ghost", "a1", 9, 4)], 3, "syntax score 9 outside 1..5"),
], ids=["unknown-then-its-duplicate", "unknown-then-duplicate", "duplicate-then-unknown",
        "score-and-unknown-in-one-row"])
def test_eval_reports_the_first_fault_in_file_order(tmp_path, capsys, rows, line, reason):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, rows)
    assert main(["eval", "--out", str(out), "--ratings", str(ratings)]) == 1
    assert last_error(capsys.readouterr().err) == (
        f"{ratings}:{line}: {reason.format(KNOWN=KNOWN, ratings=ratings)}")


def eval_and_pipeline(tmp_path, capsys, rows):
    """(exit code, last error, stdout) of eval and of pipeline --ratings on rows."""
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, rows)
    capsys.readouterr()
    results = []
    for args in (["eval", "--out", str(out)],
                 ["pipeline", "--input", str(src), "--out", str(tmp_path / "piped")]):
        rc = main(args + ["--ratings", str(ratings), "--format", "json"])
        captured = capsys.readouterr()
        results.append((rc, last_error(captured.err), captured.out))
    return ratings, results


def test_a_repeat_among_seventy_annotators_names_the_pairs_first_line(tmp_path, capsys):
    rows = [(KNOWN, f"a{i}", 5, 4) for i in range(70)] + [(KNOWN, "a66", 3, 3)]
    ratings, results = eval_and_pipeline(tmp_path, capsys, rows)
    # a66 first rates on line 68; its repeat is the last row, on line 72.
    message = (f"{ratings}:72: duplicate rating for candidate {KNOWN!r} by annotator 'a66', "
               f"first used at {ratings}:68")
    assert results == [(1, message, "")] * 2


def test_one_annotator_on_two_candidates_is_not_a_repeat(tmp_path, capsys):
    rows = [(KNOWN, "a1", 5, 4), ("e001:R_K2:4:0", "a1", 3, 2)]
    _, results = eval_and_pipeline(tmp_path, capsys, rows)
    assert [rc for rc, _, _ in results] == [0, 0] and results[0] == results[1]
    assert json.loads(results[0][2])["table"]["totals"]["syntax_mean"] == 4.0


def test_index_pairs_a_packed_key_would_merge_stay_distinct(tmp_path, capsys):
    # Candidate 0 (the first line of candidates.jsonl) is rated by annotators
    # 0..70, then candidate 1 by annotator 0: a key packing the two indices with
    # any stride up to 70 would take the last row for a repeat.
    rows = [(KNOWN, f"a{i}", 5, 5) for i in range(71)] + [("e001:R_K2:4:0", "a0", 1, 1)]
    _, results = eval_and_pipeline(tmp_path, capsys, rows)
    assert [rc for rc, _, _ in results] == [0, 0] and results[0] == results[1]
    table = json.loads(results[0][2])["table"]["rows"]
    assert (table["k1"]["syntax_mean"], table["k2"]["syntax_mean"]) == (5.0, 1.0)


@pytest.mark.parametrize("syntax, semantic", [
    ("0_5", "4"), ("5", "\uff14"), ("\u0663", "3"), ("4", "1_0"),
], ids=["underscore", "full-width", "arabic-indic", "underscore-out-of-range"])
def test_a_score_outside_ascii_digits_is_not_an_integer(tmp_path, capsys, syntax, semantic):
    # int() alone would read 0_5 as 5 and the full-width 4 as 4.
    rows = [(KNOWN, "a1", 5, 4), (KNOWN, "a2", syntax, semantic)]
    ratings, results = eval_and_pipeline(tmp_path, capsys, rows)
    assert results == [(1, f"{ratings}:3: scores must be integers", "")] * 2


def test_a_repeated_unknown_id_fails_as_unknown_at_its_first_row(tmp_path, capsys):
    rows = [(KNOWN, "a1", 5, 4), ("ghost", "a1", 3, 3), ("ghost", "a1", 3, 3)]
    ratings, results = eval_and_pipeline(tmp_path, capsys, rows)
    message = f"{ratings}:3: rating references unknown candidate_id 'ghost'"
    assert results == [(1, message, "")] * 2


def test_an_empty_annotator_id_is_an_input_error(tmp_path, capsys):
    rows = [(KNOWN, "a1", 5, 4), (KNOWN, "", 3, 3)]
    ratings, results = eval_and_pipeline(tmp_path, capsys, rows)
    assert results == [(1, f"{ratings}:3: empty annotator_id", "")] * 2


def run_cli(capsys, argv) -> str:
    """main(argv)'s standard output, or ValueError with the error it wrote to stderr."""
    rc = main(argv)
    captured = capsys.readouterr()
    if rc != 0:
        raise ValueError(last_error(captured.err))
    return captured.out


def rate_with(command, cli, path) -> str:
    """The output of command (eval or pipeline) with --ratings path, over TREEBANK's candidates."""
    src, out = write_input(path.parent), path.parent / "out"
    if not out.exists():
        cli(["pipeline", "--input", str(src), "--out", str(out)])
    args = {"eval": ["eval", "--out", str(out)],
            "pipeline": ["pipeline", "--input", str(src), "--out", str(path.parent / "piped")]}
    return cli(args[command] + ["--ratings", str(path), "--format", "json"])


def lexicon_state(path):
    lexicon = load_lexicon(path)
    return lexicon.entries, lexicon.duplicate_count


SENTENCE = ("1\traam\traam\tPROPN\t_\t3\tk1\n2\tkhaana\tkhaana\tNOUN\t_\t3\t{}\n"
            "3\tkhaaya\tkhaa\tVERB\t_\t0\troot\n")
RATED = "candidate_id,annotator_id,syntax,semantic\n{0},a1,5,4\n{1},{2},1,1\n"

# reader (a function of the path, or eval or pipeline), file name, the file with
# {} where the id goes, the id, and the line of {}. Each file holds the id
# elsewhere too, so an id read as a second one shows. A fold's candidate_id is
# not here: one that no candidate has is already an error.
EDGE_READERS = {
    "treebank-deprel": (load_treebank, "t.conllu", "# sent_id = a\n" + SENTENCE, "k2", 3),
    "treebank-sent_id": (load_treebank, "t.conllu", "# sent_id = a\n" + SENTENCE.format("k2")
                         + "\n# sent_id = {}\n" + SENTENCE.format("k2"), "a", 6),
    "lexicon-lemma": (lexicon_state, "lexicon.tsv", "kitaab\tNONLIVING\n{}\tPLACE\n", "kitaab", 2),
    "marker-form": (load_marker_table, "markers.tsv", "erg\tne\nerg\t{}\n", "ne", 2),
    "load_ratings-candidate_id": (load_ratings, "ratings.csv", RATED.format(KNOWN, "{}", "a1"), KNOWN, 3),
    **{f"{name}-annotator_id": (read, "ratings.csv", RATED.format(KNOWN, KNOWN, "{}"), "a1", 3)
       for name, read in (("load_ratings", load_ratings),
                          ("evaluate_ratings", lambda path: evaluate_ratings(path, {KNOWN: "k1"})),
                          ("eval", "eval"), ("pipeline-ratings", "pipeline"))},
}


@pytest.mark.parametrize("edge", ["{} ", "\xa0{}"], ids=["trailing-space", "leading-nbsp"])
@pytest.mark.parametrize("case", list(EDGE_READERS))
def test_an_id_with_edge_whitespace_is_an_error_at_its_line_or_the_same_id(tmp_path, capsys,
                                                                           case, edge):
    read, name, text, ident, line = EDGE_READERS[case]
    if isinstance(read, str):
        read = partial(rate_with, read, partial(run_cli, capsys))
    path = tmp_path / name
    path.write_text(text.format(ident), encoding="utf-8")
    try:
        twin = read(path)
    except ValueError as exc:
        twin = exc
    path.write_text(text.format(edge.format(ident)), encoding="utf-8")
    try:
        spaced = read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:{line}: "), str(exc)
    else:
        assert spaced == twin


def test_unknown_rating_comes_before_an_uncovered_candidate(tmp_path, capsys):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    verdicts = out / "verdicts.jsonl"
    lines = verdicts.read_text(encoding="utf-8").splitlines()
    verdicts.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [(KNOWN, "a1", 5, 4), ("ghost", "a1", 3, 3)])
    assert main(["eval", "--out", str(out), "--ratings", str(ratings)]) == 1
    assert last_error(capsys.readouterr().err) == (
        f"{ratings}:3: rating references unknown candidate_id 'ghost'")
    write_ratings(ratings, [(KNOWN, "a1", 5, 4)])
    assert main(["eval", "--out", str(out), "--ratings", str(ratings)]) == 1
    assert last_error(capsys.readouterr().err).startswith(
        f"{out / 'candidates.jsonl'}:1: no filter verdict for candidate ")


@pytest.mark.parametrize("case", ["filter-repeated-id", "eval-repeated-id", "unknown-sentence",
                                  "uncovered-candidate", "repeated-rating", "bad-byte-in-ratings"])
def test_piped_input_faults_name_the_true_line(tmp_path, case):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    lines = (out / "candidates.jsonl").read_bytes().splitlines(keepends=True)
    ids = [json.loads(line)["candidate_id"] for line in lines]
    unknown = json.dumps({**json.loads(lines[2]), "sentence_id": "ghost"}).encode() + b"\n"
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [(KNOWN, "a1", 5, 4)])
    verdicts = tmp_path / "verdicts.jsonl"  # all but the first candidate's
    verdicts.write_bytes(b"".join((out / "verdicts.jsonl").read_bytes().splitlines(True)[1:]))
    header, a1, a2 = (b"candidate_id,annotator_id,syntax,semantic\n",
                      f"{KNOWN},a1,5,4\n".encode(), f"{KNOWN},a2,3,3\n".encode())
    filter_args = ["filter", "--input", str(src), "--candidates", "/dev/stdin",
                   "--out", str(tmp_path / "filtered")]
    eval_args = ["eval", "--out", str(out), "--candidates", "/dev/stdin", "--ratings", str(ratings)]
    ratings_args = ["eval", "--out", str(out), "--ratings", "/dev/stdin"]
    # The input's first line is blank or a header, so no fault is on line 1.
    args, stdin, message = {
        "filter-repeated-id": (filter_args, [b"\n", *lines, lines[1]],
                               f"10: duplicate candidate_id {ids[1]!r}, first used at /dev/stdin:3"),
        "eval-repeated-id": (eval_args, [b"\n", *lines, lines[1]],
                             f"10: duplicate candidate_id {ids[1]!r}, first used at /dev/stdin:3"),
        "unknown-sentence": (filter_args, [b"\n", *lines[:2], unknown],
                             f"4: candidate {ids[2]}: unknown sentence_id 'ghost'"),
        "uncovered-candidate": (eval_args + ["--verdicts", str(verdicts)], [b"\n", *lines],
                                f"2: no filter verdict for candidate {ids[0]!r} (1 candidates uncovered)"),
        "repeated-rating": (ratings_args, [header, a1, a2, a1],
                            f"4: duplicate rating for candidate {KNOWN!r} by annotator 'a1', "
                            "first used at /dev/stdin:2"),
        "bad-byte-in-ratings": (ratings_args, [header, a1, b"\xff\n", a2], "3: not valid UTF-8"),
    }[case]
    proc = subprocess.run([sys.executable, "-m", "karaka_qg.cli", *args], input=b"".join(stdin),
                          capture_output=True, env=PACKAGE_ENV)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == f"ERROR /dev/stdin:{message}"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pipeline_ratings_prints_what_the_three_commands_print(tmp_path, capsys, fmt):
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("c001:R_K1:1:0", "a1", 5, 4), ("c001:R_K2:3:0", "a2", 3, 2),
                            ("c006:R_K3:2:0", "a1", 1, 2)])
    piped, stepped = tmp_path / "piped", tmp_path / "stepped"
    assert main(["pipeline", "--input", str(src), "--out", str(piped),
                 "--ratings", str(ratings), "--format", fmt]) == 0
    pipeline_out = capsys.readouterr().out
    assert main(["generate", "--input", str(src), "--out", str(stepped)]) == 0
    assert main(["filter", "--input", str(src), "--out", str(stepped)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["eval", "--out", str(stepped), "--ratings", str(ratings), "--format", fmt]) == 0
    eval_out = capsys.readouterr().out
    assert "before" in eval_out and "after" in eval_out
    assert pipeline_out == eval_out


def _spoil_line(path, line_no):
    """Put a byte that is not UTF-8 into the given line of a text file."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("name", ["treebank", "lexicon", "markers", "candidates",
                                  "verdicts", "ratings"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, name):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("# lemma\tcategory\nraam\tHUMAN\n", encoding="utf-8")
    markers = tmp_path / "markers.tsv"
    markers.write_text("erg\tne\nacc\tko\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("e001:R_K1:2:0", "a1", 5, 4), ("e001:R_K2:4:0", "a1", 4, 4)])
    path, command = {
        "treebank": (src, ["generate", "--input", str(src)]),
        "lexicon": (lexicon, ["generate", "--input", str(src), "--lexicon", str(lexicon)]),
        "markers": (markers, ["generate", "--input", str(src), "--markers", str(markers)]),
        "candidates": (out / "candidates.jsonl", ["filter", "--input", str(src)]),
        "verdicts": (out / "verdicts.jsonl", ["eval", "--ratings", str(ratings)]),
        "ratings": (ratings, ["eval", "--ratings", str(ratings)]),
    }[name]
    _spoil_line(path, 2)
    rc = main(command + ["--out", str(out)])
    assert rc == 1
    assert last_error(capsys.readouterr().err) == f"{path}:2: not valid UTF-8"


def test_unknown_rule_is_a_config_error(tmp_path):
    src = write_input(tmp_path)
    assert main(["generate", "--input", str(src), "--out", str(tmp_path),
                 "--rules", "k1,k99"]) == 2


def test_empty_rule_selection_is_a_config_error(tmp_path, capsys):
    src = write_input(tmp_path)
    rc = main(["generate", "--input", str(src), "--out", str(tmp_path), "--rules", ","])
    assert rc == 2
    assert last_error(capsys.readouterr().err) == "no rules selected"


def test_bad_theta_is_a_config_error(tmp_path):
    src = write_input(tmp_path)
    assert main(["filter", "--input", str(src), "--out", str(tmp_path),
                 "--theta", "0"]) == 2


def test_theta_below_one_names_the_check(tmp_path, capsys):
    src = write_input(tmp_path)
    rc = main(["filter", "--input", str(src), "--out", str(tmp_path), "--theta", "0"])
    assert rc == 2
    assert "theta must be >= 1" in capsys.readouterr().err


def test_unknown_filter_is_a_config_error(tmp_path):
    src = write_input(tmp_path)
    assert main(["filter", "--input", str(src), "--out", str(tmp_path),
                 "--disable-filter", "F_TYPO"]) == 2


def test_pipeline_json_format_without_ratings_is_a_config_error(tmp_path, capsys):
    src = write_input(tmp_path)
    rc = main(["pipeline", "--input", str(src), "--out", str(tmp_path / "out"),
               "--format", "json"])
    assert rc == 2
    assert "--format json formats the ratings table; it needs --ratings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# Sentence x's k1 and sentence y's k2 carry a se their rules have no question for.
SKIP_PROBE = ("# sent_id = x\n1\traam\traam\tPROPN\t_\t3\tk1\n2\tse\tse\tADP\t_\t1\tpsp\n"
              "3\tgaya\tjaa\tVERB\t_\t0\troot\n\n"
              "# sent_id = y\n1\tsiita\tsiita\tPROPN\t_\t4\tk2\n2\tse\tse\tADP\t_\t1\tpsp\n"
              "3\traam\traam\tPROPN\t_\t4\tk1\n4\tdekha\tdekh\tVERB\t_\t0\troot\n\n")
SKIP_LINES = ("INFO k1 token 'raam' carries non-ergative marker 'se'; skipped\n"
              "INFO k2 token 'siita' carries unexpected marker 'se'; skipped\n")


@pytest.mark.parametrize("command, count", [("generate", "generated 1 candidates from 2 sentences"),
                                            ("pipeline", "kept 1 of 1 candidates")])
def test_each_skipped_target_is_a_line_before_the_count(tmp_path, capsys, command, count):
    src = tmp_path / "probe.conllu"
    src.write_text(SKIP_PROBE, encoding="utf-8")
    assert main([command, "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == f"{SKIP_LINES}INFO {count}\n"


@contextmanager
def bare_root_logger():
    """The root logger with no handler, as in a fresh interpreter; restored on exit."""
    import logging

    root = logging.getLogger()
    handlers, level = root.handlers, root.level
    root.handlers = []
    try:
        yield root
    finally:
        root.handlers = handlers
        root.setLevel(level)


@pytest.mark.parametrize("host", ["bare", "warning-handler"])
def test_main_writes_its_own_lines_and_leaves_logging_alone(tmp_path, capsys, host):
    # A host that set up logging, or did not, neither silences nor reformats main's
    # lines, and main leaves its root logger's handlers and level as they were.
    import logging

    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    missing = tmp_path / "absent.conllu"
    with bare_root_logger() as root:
        if host == "warning-handler":
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("HOST %(levelname)s %(name)s: %(message)s"))
            root.addHandler(handler)
            root.setLevel(logging.WARNING)
        before = (root.handlers[:], root.level)
        assert main(["pipeline", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "INFO kept 75 of 96 candidates\n"
        assert main(["pipeline", "--input", str(missing), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"ERROR [Errno 2] No such file or directory: {str(missing)!r}\n")
        assert (root.handlers, root.level) == before


def test_a_library_caller_gets_skips_only_in_the_list_it_passes(tmp_path, capsys):
    src = tmp_path / "probe.conllu"
    src.write_text(SKIP_PROBE, encoding="utf-8")
    s = load_treebank(src)[0]
    with bare_root_logger():
        assert main(["generate", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert generate_all(s, default_lexicon()) == []
        assert capsys.readouterr().err == ""
        skipped = []
        assert generate_all(s, default_lexicon(), skipped=skipped) == []
        assert skipped == [(s.token(1), "carries non-ergative marker 'se'")]
        assert capsys.readouterr().err == ""


def test_a_stderr_that_cannot_be_written_drops_the_lines_not_the_command(tmp_path):
    # With fd 2 closed the interpreter starts with no sys.stderr; on a read-only fd 2
    # each write fails. Either way the command exits 0 and writes what it writes.
    src = tmp_path / "corpus.conllu"
    src.write_text(bundled_corpus_text(), encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [("c001:R_K1:1:0", "a1", 5, 4)])
    data = ("candidates.jsonl", "kept.jsonl", "verdicts.jsonl")
    written = sorted(data + ("filter_summary.json", "generate_summary.json", "run_meta.json"))
    runs = {}
    with open(os.devnull, "rb") as read_only:
        def run(stderr, *argv):
            return subprocess.run(
                [sys.executable, "-m", "karaka_qg.cli", *argv], cwd=tmp_path, env=PACKAGE_ENV,
                stdout=subprocess.PIPE, stderr=read_only if stderr == "read-only" else subprocess.PIPE,
                preexec_fn=partial(os.close, 2) if stderr == "closed" else None)

        for stderr in ("open", "closed", "read-only"):
            out = tmp_path / stderr
            piped = run(stderr, "pipeline", "--input", str(src), "--out", str(out))
            assert (piped.returncode, piped.stdout) == (0, b"")
            assert sorted(path.name for path in out.iterdir()) == written
            # tmp_path holds no verdicts, so eval prints the table alone.
            evaluated = run(stderr, "eval", "--candidates", str(out / "candidates.jsonl"),
                            "--out", str(tmp_path), "--ratings", str(ratings), "--format", "json")
            assert evaluated.returncode == 0
            runs[stderr] = ([(out / name).read_bytes() for name in data], evaluated.stdout)
            if stderr == "open":
                assert piped.stderr == b"INFO kept 75 of 96 candidates\n"
                assert evaluated.stderr == (f"INFO no verdicts at {tmp_path / 'verdicts.jsonl'}; "
                                            "skipping the before/after block\n").encode()
    assert json.loads(runs["open"][1])["before_after"] is None
    assert runs["closed"] == runs["open"] and runs["read-only"] == runs["open"]


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case, code", [("done", 0), ("bad-line", 1), ("unknown-rule", 2),
                                        ("usage", 2), ("raises", None)])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, case, code,
                                                  collecting):
    src = write_input(tmp_path)
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\traam\n", encoding="utf-8")
    argv = {"done": ["--input", str(src)], "bad-line": ["--input", str(bad)],
            "unknown-rule": ["--input", str(src), "--rules", "k99"], "usage": [],
            "raises": ["--input", str(src)]}[case]
    during = []

    def fail(cfg):
        during.append(gc.isenabled())
        raise RuntimeError("not an input error")

    if case == "raises":
        monkeypatch.setitem(karaka_qg.cli.COMMANDS, "generate", fail)
    (gc.enable if collecting else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError):
                main(["generate", "--out", str(tmp_path / "out"), *argv])
            assert during == [False]  # paused while the command ran
        else:
            assert main(["generate", "--out", str(tmp_path / "out"), *argv]) == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    capsys.readouterr()


def bundled_copies(tmp_path, copies):
    """The bundled corpus `copies` times, each copy's sentence ids renamed, and a
    ratings file rating every candidate pipeline makes of it."""
    text = bundled_corpus_text().strip("\n")
    assert text.count("# sent_id = ") == 30
    src = tmp_path / f"x{copies}.conllu"
    src.write_text("\n\n".join(text.replace("# sent_id = ", f"# sent_id = x{k}-")
                               for k in range(copies)) + "\n", encoding="utf-8")
    base = tmp_path / f"x{copies}-base"
    assert main(["pipeline", "--input", str(src), "--out", str(base)]) == 0
    ids = [r["candidate_id"] for r in read_jsonl(base / "candidates.jsonl")]
    assert len(ids) == 96 * copies
    ratings = tmp_path / f"x{copies}.csv"
    write_ratings(ratings, [(candidate_id, "a1", 4, 3) for candidate_id in ids])
    return src, base, ratings


@pytest.mark.parametrize("command", ["pipeline", "generate", "filter", "eval", "pipeline-ratings"])
def test_a_commands_cyclic_garbage_does_not_grow_with_its_input(tmp_path, capsys, command):
    # cli.main pauses the collector for a command on the premise that the command's
    # records hold no reference cycles. Cycles made per sentence or per candidate
    # would grow with the input, which a paused collector would not reclaim.
    def argv(copies, out):
        src, base, ratings = inputs[copies]
        return {"pipeline": ["pipeline", "--input", str(src)],
                "generate": ["generate", "--input", str(src)],
                "filter": ["filter", "--input", str(src),
                           "--candidates", str(base / "candidates.jsonl")],
                "eval": ["eval", "--candidates", str(base / "candidates.jsonl"),
                         "--verdicts", str(base / "verdicts.jsonl"), "--ratings", str(ratings)],
                "pipeline-ratings": ["pipeline", "--input", str(src), "--ratings", str(ratings)],
                }[command] + ["--out", str(tmp_path / out)]

    def garbage(copies, out):
        gc.collect()
        gc.disable()
        try:
            assert main(argv(copies, out)) == 0
            return gc.collect()
        finally:
            gc.enable()

    inputs = {copies: bundled_copies(tmp_path, copies) for copies in (1, 4)}
    assert main(argv(1, "warm-up")) == 0  # imports and compiles what the command first uses
    assert garbage(1, "x1") == garbage(4, "x4")
    capsys.readouterr()


@pytest.mark.parametrize("command, flag", [
    ("generate", "--theta"), ("generate", "--candidates"),
    ("filter", "--rules"), ("filter", "--lexicon"), ("filter", "--ratings"),
    ("eval", "--input"), ("eval", "--theta"), ("eval", "--markers"),
    ("pipeline", "--candidates"), ("pipeline", "--verdicts"),
])
def test_flag_of_another_subcommand_is_a_usage_error(tmp_path, capsys, command, flag):
    src = write_input(tmp_path)
    ratings = tmp_path / "ratings.csv"
    write_ratings(ratings, [])
    # Each command gets its required flags, so the stray flag is the only fault.
    required = (["--ratings", str(ratings)] if command == "eval"
                else ["--input", str(src)])
    argv = [command, *required, "--out", str(tmp_path / "out"), flag, "1"]
    assert main(argv) == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rules_flag_narrows_generation(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--input", str(src), "--out", str(out),
                 "--rules", "k1,R_K7T"]) == 0
    rows = read_jsonl(out / "candidates.jsonl")
    assert {r["rule"] for r in rows} == {"R_K1", "R_K7T"}


def test_disable_filter_keeps_more_candidates(tmp_path):
    src = write_input(tmp_path)
    strict = tmp_path / "strict"
    lax = tmp_path / "lax"
    assert main(["pipeline", "--input", str(src), "--out", str(strict)]) == 0
    assert main(["pipeline", "--input", str(src), "--out", str(lax),
                 "--disable-filter", "anaphora"]) == 0
    strict_summary = json.loads((strict / "filter_summary.json").read_text(encoding="utf-8"))
    lax_summary = json.loads((lax / "filter_summary.json").read_text(encoding="utf-8"))
    assert lax_summary["kept"] > strict_summary["kept"]
    assert lax_summary["dropped"]["F_ANAPHORA"] == 0


def test_empty_treebank_produces_empty_outputs(tmp_path):
    src = tmp_path / "empty.conllu"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(src), "--out", str(out)]) == 0
    assert (out / "candidates.jsonl").read_text(encoding="utf-8") == ""
    summary = json.loads((out / "generate_summary.json").read_text(encoding="utf-8"))
    assert set(summary.values()) == {0}


def test_custom_marker_table_changes_case_detection(tmp_path):
    src = tmp_path / "input.conllu"
    src.write_text(
        "1\traam\traam\tPROPN\t_\t4\tk1\n"
        "2\tnai\tnai\tADP\t_\t1\tpsp\n"
        "3\tseb\tseb\tNOUN\t_\t4\tk2\n"
        "4\tkhaya\tkha\tVERB\t_\t0\troot\n",
        encoding="utf-8",
    )
    markers = tmp_path / "markers.tsv"
    markers.write_text("erg\tnai\nerg\tne\n", encoding="utf-8")
    default_out = tmp_path / "default"
    custom_out = tmp_path / "custom"
    assert main(["generate", "--input", str(src), "--out", str(default_out)]) == 0
    assert main(["generate", "--input", str(src), "--out", str(custom_out),
                 "--markers", str(markers)]) == 0
    default_wh = {r["interrogative"] for r in read_jsonl(default_out / "candidates.jsonl")
                  if r["rule"] == "R_K1"}
    custom_wh = {r["interrogative"] for r in read_jsonl(custom_out / "candidates.jsonl")
                 if r["rule"] == "R_K1"}
    assert default_wh == {"kaun"}
    assert custom_wh == {"kisne"}


def declared_console_script():
    """The ``karaka-qg`` target that ``pyproject.toml`` declares, e.g. ``pkg.mod:func``."""
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["karaka-qg"]


def check_command_runs_pipeline(command, tmp_path, env=None):
    """Run ``command`` as its own process and check the pipeline and its exit codes."""
    def run(*args):
        return subprocess.run([*command, *args], capture_output=True, text=True,
                              env=env, cwd=tmp_path)

    src = write_input(tmp_path)
    out = tmp_path / "out"
    proc = run("pipeline", "--input", str(src), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "kept.jsonl").exists()
    assert "kept 6 of 8 candidates" in proc.stderr

    missing = tmp_path / "missing.conllu"
    proc = run("pipeline", "--input", str(missing), "--out", str(tmp_path / "missing_out"))
    assert proc.returncode == 1
    assert str(missing) in proc.stderr

    proc = run("pipeline", "--input", str(src), "--out", str(tmp_path / "theta_out"),
               "--theta", "0")
    assert proc.returncode == 2
    assert "theta must be >= 1" in proc.stderr


def test_console_script_is_installed(tmp_path):
    target = declared_console_script()
    assert pkgutil.resolve_name(target) is karaka_qg.cli.run
    module, _, attr = target.partition(":")
    # What an installer's generated console-script wrapper does.
    wrapper = (f"import sys; sys.argv[0] = 'karaka-qg'; "
               f"from {module} import {attr}; sys.exit({attr}())")
    check_command_runs_pipeline([sys.executable, "-c", wrapper], tmp_path, env=PACKAGE_ENV)


@pytest.mark.skipif(shutil.which("karaka-qg") is None,
                    reason="no karaka-qg executable on PATH (package not installed)")
def test_installed_console_script_matches_declaration(tmp_path):
    installed = importlib.metadata.entry_points(group="console_scripts", name="karaka-qg")
    assert [ep.value for ep in installed] == [declared_console_script()]
    check_command_runs_pipeline([shutil.which("karaka-qg")], tmp_path)


def test_importing_the_cli_does_not_import_statistics():
    # The ratings fold counts scores itself, and the records are named tuples: statistics
    # and dataclasses (with the inspect it imports) cost start-up time on every command.
    # The ratings stage (with csv) is imported by the commands that read ratings, and the
    # run_meta.json timestamp comes from time, so no other command pays for them. The
    # command line writes its stderr lines itself, so logging is not imported either.
    unloaded = ("statistics", "dataclasses", "csv", "datetime", "karaka_qg.evaluation", "logging")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, karaka_qg.cli; "
                               "print(*[m for m in sys.argv[1:] if m in sys.modules])", *unloaded],
        capture_output=True, text=True, env=PACKAGE_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_the_cli_serves_the_traced_ratings_functions_on_first_use():
    import karaka_qg.evaluation

    for name in ("load_ratings", "aggregate", "before_after"):
        assert getattr(karaka_qg.cli, name) is getattr(karaka_qg.evaluation, name)
    with pytest.raises(AttributeError, match="has no attribute 'render_eval_table'"):
        karaka_qg.cli.render_eval_table


def test_each_jsonl_decoder_is_compiled_on_its_first_line_only(tmp_path):
    # pipeline decodes no line, so it compiles no decoder; eval compiles one per record
    # type it reads, however many lines; filter reads candidates only.
    child = ("import sys\n"
             "from karaka_qg import cli, textfile\n"
             "compiled = []\n"
             "source = textfile._json_values_source\n"
             "textfile._json_values_source = lambda *args: compiled.append(1) or source(*args)\n"
             "rc = cli.main(sys.argv[1:])\n"
             "print(rc, len(compiled))\n")
    (tmp_path / "corpus.conllu").write_text(bundled_corpus_text(), encoding="utf-8")
    out = tmp_path / "out"
    runs = [
        (["pipeline", "--input", "corpus.conllu", "--out", "out"], "0 0"),
        (["eval", "--out", "out", "--ratings", "ratings.csv"], "0 2"),
        (["filter", "--input", "corpus.conllu", "--candidates", "out/candidates.jsonl",
          "--out", "filtered"], "0 1"),
    ]
    for argv, expected in runs:
        if argv[0] == "eval":
            ids = [row["candidate_id"] for row in read_jsonl(out / "candidates.jsonl")]
            assert len(ids) == 96
            write_ratings(tmp_path / "ratings.csv", [(i, a, 4, 3) for i in ids for a in ("a1", "a2")])
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                              text=True, env=PACKAGE_ENV, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == expected, argv


def test_every_reader_error_is_an_input_error():
    # main exits 1 on any InputError; a bad flag value is a ConfigError and exits 2.
    from karaka_qg.evaluation import RatingsError, UncoveredCandidateError
    from karaka_qg.filters import FilterError, UnknownSentenceError
    from karaka_qg.lexicon import LexiconError
    from karaka_qg.morphology import MarkerTableError
    from karaka_qg.textfile import InputError, JsonlError
    from karaka_qg.treebank_io import TreebankError

    for error in (TreebankError, LexiconError, MarkerTableError, RatingsError,
                  UncoveredCandidateError, FilterError, UnknownSentenceError, JsonlError):
        assert issubclass(error, InputError), error
    assert issubclass(InputError, ValueError)
    assert not issubclass(karaka_qg.cli.ConfigError, InputError)


def test_each_command_takes_its_flags():
    # (option strings, dest, default, required) of each subcommand's flags, in --help order.
    path = Path(".")
    expected = {
        "generate": [
            ("--input", "input_path", None, True), ("--out", "output_dir", path, False),
            ("--markers", "marker_table_path", None, False), ("--lexicon", "lexicon_paths", [], False),
            ("--rules", "rules", "all", False),
        ],
        "filter": [
            ("--input", "input_path", None, True), ("--out", "output_dir", path, False),
            ("--markers", "marker_table_path", None, False),
            ("--candidates", "candidates_path", None, False), ("--theta", "theta", 5, False),
            ("--disable-filter", "disabled_filters", [], False),
        ],
        "eval": [
            ("--out", "output_dir", path, False), ("--candidates", "candidates_path", None, False),
            ("--format", "fmt", "text", False), ("--verdicts", "verdicts_path", None, False),
            ("--ratings", "ratings_path", None, True),
        ],
        "pipeline": [
            ("--input", "input_path", None, True), ("--out", "output_dir", path, False),
            ("--markers", "marker_table_path", None, False), ("--lexicon", "lexicon_paths", [], False),
            ("--rules", "rules", "all", False), ("--theta", "theta", 5, False),
            ("--disable-filter", "disabled_filters", [], False), ("--format", "fmt", "text", False),
            ("--ratings", "ratings_path", None, False),
        ],
    }
    parser = karaka_qg.cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(expected)
    for command, flags in expected.items():
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        assert [(*a.option_strings, a.dest, a.default, a.required) for a in actions] == flags, command
        assert all(type(a.default) is type(f[2]) for a, f in zip(actions, flags)), command


def modules_each_import_loads():
    """Each karaka_qg module's name, mapped to the karaka_qg modules that importing it
    loads: the package, the module, and what its top-level relative imports reach."""
    package_dir = Path(karaka_qg.__file__).resolve().parent
    imports = {}
    for path in package_dir.glob("*.py"):
        name = "karaka_qg" if path.stem == "__init__" else f"karaka_qg.{path.stem}"
        body = ast.parse(path.read_text(encoding="utf-8")).body
        imports[name] = {f"karaka_qg.{node.module}" for node in body
                         if isinstance(node, ast.ImportFrom) and node.level == 1}

    def reach(name):
        return {"karaka_qg", name}.union(*map(reach, imports[name]))
    return {name: reach(name) for name in imports}


def test_importing_a_module_loads_only_what_it_imports():
    # The package re-exports nothing, so importing one module does not load the others.
    # Modules are imported in dependency order: each adds itself and nothing else.
    reached = modules_each_import_loads()
    assert reached["karaka_qg"] == {"karaka_qg"}
    assert reached["karaka_qg.treebank_io"] == {"karaka_qg", "karaka_qg.textfile",
                                                "karaka_qg.treebank_io"}
    order = sorted(reached, key=lambda name: (len(reached[name]), name))
    child = ("import importlib, sys\n"
             "for name in sys.argv[1:]:\n"
             "    importlib.import_module(name)\n"
             "    print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'karaka_qg'))\n")
    proc = subprocess.run([sys.executable, "-c", child, *order],
                          capture_output=True, text=True, env=PACKAGE_ENV)
    assert proc.returncode == 0, proc.stderr
    loaded = set()
    for name, line in zip(order, proc.stdout.splitlines(), strict=True):
        loaded |= reached[name]
        assert line.split() == sorted(loaded), name


def readme_library_use_blocks():
    """The Python blocks of README's "Library use" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_readme_library_use_blocks_run(tmp_path):
    (tmp_path / "corpus.conllu").write_text(bundled_corpus_text(), encoding="utf-8")
    blocks = readme_library_use_blocks()
    assert len(blocks) == 2
    outputs = []
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                              capture_output=True, text=True, env=PACKAGE_ENV)
        assert proc.returncode == 0, block + proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].strip()


RECORDS = [
    Token(1, "gaya", "ja", "VERB", {}, 0, "root"),
    build_sentence("s1", ()),
    QuestionCandidate("s1:R_K1:1:0", "s1", RuleId.R_K1, "k1", "kaun", ("kaun", "?"), "g", 1),
    Role("ergative"),
    SUBSTITUTIONS[0],
    FilterVerdict("s1:R_K1:1:0", True),
    FilterConfig(),
    DEFAULT_MARKERS,
    RatingRecord("c", "a", 5, 4),
    RowStats(None, None, None, None, 0),
    EvalTable({}, RowStats(None, None, None, None, 0)),
    SplitStats(None, None, 0),
    BeforeAfter(SplitStats(None, None, 0), SplitStats(None, None, 0)),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_refuse_attribute_assignment(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_no_module_imports_a_private_name_of_another():
    # A name shared between modules is public; its module's underscore names stay its own.
    package_dir = Path(karaka_qg.__file__).resolve().parent
    private = [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
               for path in sorted(package_dir.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
