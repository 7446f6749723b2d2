"""Command line front end: generate, filter, eval, and pipeline.

Data goes to files under --out (and evaluation results to stdout); logs
go to stderr. Data files are byte-identical across reruns on the same
inputs; per-run metadata is kept out of them in run_meta.json.

Exit codes: 0 on success, 1 for input errors (textfile.InputError, the base of
every reader's error, or OSError), 2 for configuration errors (ConfigError).
The ratings stage is imported only by the commands that read ratings.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path

from .filters import (
    FilterConfig,
    FilterError,
    FilterId,
    UnknownSentenceError,
    read_verdicts_jsonl,
    run_filters,
    write_verdicts_jsonl,
)
from .lexicon import default_lexicon, load_lexicon, merge_lexicons
from .morphology import DEFAULT_MARKERS, load_marker_table
from .rule_engine import RuleId, generate_all, read_candidates_jsonl, write_candidates_jsonl
from .textfile import InputError
from .treebank_io import KARAKA_ORDER, load_treebank

log = logging.getLogger("karaka_qg")


class ConfigError(ValueError):
    """Raised for bad flag values such as unknown rule or filter names."""


def __getattr__(name: str):
    # perfbench/tracing.py wraps these three evaluation functions as bound here,
    # so they are served on first use. This goes when the benchmark-only
    # ROADMAP item has the tracer wrap evaluate_ratings instead.
    if name in ("load_ratings", "aggregate", "before_after"):
        from . import evaluation
        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_name(kind, noun: str, raw: str):
    """The RuleId or FilterId named by raw; its R_/F_ prefix may be left out."""
    name = raw.strip().upper()
    prefix = noun[0].upper() + "_"
    if not name.startswith(prefix):
        name = prefix + name
    try:
        return kind(name)
    except ValueError:
        raise ConfigError(f"unknown {noun} {raw.strip()!r}") from None


def _parse_rules(selection: str) -> set:
    if selection.strip().lower() == "all":
        return set(RuleId)
    rules = {_parse_name(RuleId, "rule", raw) for raw in selection.split(",") if raw.strip()}
    if not rules:
        raise ConfigError("no rules selected")
    return rules


def _load_markers(cfg: argparse.Namespace):
    if cfg.marker_table_path is None:
        return DEFAULT_MARKERS
    return load_marker_table(cfg.marker_table_path)


def _load_lexicon(cfg: argparse.Namespace):
    lexicons = [default_lexicon()]
    for path in cfg.lexicon_paths:
        lexicons.append(load_lexicon(path))
    return merge_lexicons(lexicons)


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=2) + "\n",
                    encoding="utf-8")


def _utc_now() -> str:
    """The time now in ISO 8601 UTC, to the microsecond: 2026-01-31T09:05:00.000123+00:00."""
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{ns // 1000:06d}+00:00"


def _write_run_meta(cfg: argparse.Namespace) -> None:
    # Per-run metadata is quarantined here so the data files stay
    # byte-identical across reruns. A setting the command has no flag for
    # is recorded at its default.
    filters = getattr(cfg, "filters", FilterConfig())
    meta = {
        "command": cfg.command,
        "input": str(cfg.input_path),
        "lexicons": [str(p) for p in getattr(cfg, "lexicon_paths", [])],
        "markers": str(cfg.marker_table_path) if cfg.marker_table_path else None,
        "theta": filters.theta,
        "rules": sorted(r.value for r in getattr(cfg, "enabled_rules", RuleId)),
        "filters": sorted(f.value for f in filters.enabled),
        "written_at": _utc_now(),
    }
    _write_json(meta, cfg.output_dir / "run_meta.json")


def _generate(cfg: argparse.Namespace, markers):
    """Write the candidates' summary; return the sentences and the sorted candidates."""
    lexicon = _load_lexicon(cfg)
    sentences = load_treebank(cfg.input_path)
    candidates = []
    for s in sentences:
        candidates.extend(generate_all(s, lexicon, markers, cfg.enabled_rules))
    candidates.sort(key=lambda c: c.candidate_id)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    # Every karaka of KARAKA_ORDER, then any other in order of first use.
    summary = {**dict.fromkeys(KARAKA_ORDER, 0), **Counter(c.karaka for c in candidates)}
    _write_json(summary, cfg.output_dir / "generate_summary.json")
    return sentences, candidates


def cmd_generate(cfg: argparse.Namespace) -> int:
    sentences, candidates = _generate(cfg, _load_markers(cfg))
    write_candidates_jsonl(candidates, cfg.output_dir / "candidates.jsonl")
    _write_run_meta(cfg)
    log.info("generated %d candidates from %d sentences",
             len(candidates), len(sentences))
    return 0


def _write_verdicts(cfg: argparse.Namespace, verdicts) -> None:
    """Write the verdicts, one per input candidate, and their summary."""
    write_verdicts_jsonl(verdicts, cfg.output_dir / "verdicts.jsonl")
    drops = Counter(v.dropped_by.value for v in verdicts if not v.kept)
    summary = {"input": len(verdicts), "kept": len(verdicts) - sum(drops.values()),
               "dropped": {f.value: drops[f.value] for f in FilterId}}
    _write_json(summary, cfg.output_dir / "filter_summary.json")
    log.info("kept %d of %d candidates", summary["kept"], len(verdicts))


def cmd_filter(cfg: argparse.Namespace) -> int:
    sentences = load_treebank(cfg.input_path)
    line_of = {}
    candidates = read_candidates_jsonl(cfg.candidates_path, line_of=line_of)
    filters = cfg.filters._replace(markers=_load_markers(cfg))
    try:
        kept, verdicts = run_filters(candidates, sentences, filters)
    except UnknownSentenceError as exc:  # raised before the output directory is made
        raise FilterError(f"{cfg.candidates_path}:{line_of[exc.candidate_id]}: {exc}") from None
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_candidates_jsonl(kept, cfg.output_dir / "kept.jsonl")
    _write_verdicts(cfg, verdicts)
    _write_run_meta(cfg)
    return 0


def _evaluate(cfg: argparse.Namespace, karaka_of: dict, kept_of: dict | None) -> None:
    """Print the ratings table, and the before/after block when there are verdicts."""
    from . import evaluation

    table, ba = evaluation.evaluate_ratings(cfg.ratings_path, karaka_of, kept_of)
    if cfg.fmt == "json":
        payload = {
            "table": evaluation.eval_table_to_dict(table),
            "before_after": evaluation.before_after_to_dict(ba) if ba else None,
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return
    print(evaluation.render_eval_table(table))
    if ba:
        print()
        print(evaluation.render_before_after(ba))


def cmd_eval(cfg: argparse.Namespace) -> int:
    from .evaluation import RatingsError, UncoveredCandidateError

    line_of = {}
    karaka_of = read_candidates_jsonl(cfg.candidates_path, "karaka", line_of=line_of)
    # Only the default verdicts file may be absent; a named one must be read.
    verdicts_path = cfg.verdicts_path or cfg.output_dir / "verdicts.jsonl"
    kept_of = None
    if cfg.verdicts_path is not None or verdicts_path.exists():
        kept_of = read_verdicts_jsonl(verdicts_path, "kept")
    else:
        log.info("no verdicts at %s; skipping the before/after block", verdicts_path)
    try:
        _evaluate(cfg, karaka_of, kept_of)
    except UncoveredCandidateError as exc:
        raise RatingsError(f"{cfg.candidates_path}:{line_of[exc.candidate_id]}: {exc}") from None
    return 0


def cmd_pipeline(cfg: argparse.Namespace) -> int:
    markers = _load_markers(cfg)
    sentences, candidates = _generate(cfg, markers)
    _, verdicts = run_filters(candidates, sentences, cfg.filters._replace(markers=markers))
    # Filtered first, so that each candidate is encoded once for both files.
    write_candidates_jsonl(candidates, cfg.output_dir / "candidates.jsonl",
                           cfg.output_dir / "kept.jsonl", (v.kept for v in verdicts))
    _write_verdicts(cfg, verdicts)
    _write_run_meta(cfg)
    if cfg.ratings_path is not None:
        _evaluate(cfg, {c.candidate_id: c.karaka for c in candidates},
                  {v.candidate_id: v.kept for v in verdicts})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karaka-qg",
        description="Generate, filter, and evaluate Hindi questions from "
                    "karaka-labeled dependency trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("generate", "produce question candidates"),
        ("filter", "prune candidates with surface filters"),
        ("eval", "aggregate human ratings"),
        ("pipeline", "generate, filter, and optionally eval"),
    )}
    # Each flag once: the commands that take it, "!" marking one that requires
    # it, then its name and spec. Each command's --help lists them in this order.
    for takers, name, spec in (
        ("generate! filter! pipeline!", "--input",
         dict(dest="input_path", type=Path, help="treebank file")),
        ("generate filter eval pipeline", "--out",
         dict(dest="output_dir", type=Path, default=Path("."), help="output directory")),
        ("generate filter pipeline", "--markers",
         dict(dest="marker_table_path", type=Path, help="marker table TSV")),
        ("generate pipeline", "--lexicon",
         dict(dest="lexicon_paths", type=Path, action="append", default=[], metavar="PATH",
              help="semantic lexicon TSV; repeatable, later files win")),
        ("generate pipeline", "--rules",
         dict(default="all", help="comma-separated rule names or 'all'")),
        ("filter eval", "--candidates",
         dict(dest="candidates_path", type=Path,
              help="candidates JSONL to read (default: OUT/candidates.jsonl)")),
        ("filter pipeline", "--theta",
         dict(type=int, default=FilterConfig._field_defaults["theta"],
              help="token count allowed on each side of a conjunct")),
        ("filter pipeline", "--disable-filter",
         dict(dest="disabled_filters", action="append", default=[], metavar="NAME",
              help="filter name to switch off; repeatable")),
        ("eval pipeline", "--format", dict(dest="fmt", choices=("text", "json"), default="text")),
        ("eval", "--verdicts",
         dict(dest="verdicts_path", type=Path,
              help="verdicts JSONL for before/after (default: OUT/verdicts.jsonl if present)")),
        ("eval! pipeline", "--ratings", dict(dest="ratings_path", type=Path, help="ratings CSV")),
    ):
        for taker in takers.split():
            command = taker.rstrip("!")
            commands[command].add_argument(name, required=taker != command, **spec)
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed flags with `enabled_rules`, `filters` and the default
    candidates path filled in; bad names or values raise ConfigError."""
    if "rules" in args:
        args.enabled_rules = _parse_rules(args.rules)
    if "theta" in args:  # the commands that filter, which also take --disable-filter
        disabled = {_parse_name(FilterId, "filter", raw) for raw in args.disabled_filters}
        try:
            args.filters = FilterConfig(theta=args.theta, enabled=frozenset(FilterId) - disabled)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if args.command == "pipeline" and args.fmt == "json" and args.ratings_path is None:
        raise ConfigError("--format json formats the ratings table; it needs --ratings")
    if "candidates_path" in args and args.candidates_path is None:
        args.candidates_path = args.output_dir / "candidates.jsonl"
    return args


COMMANDS = {
    "generate": cmd_generate,
    "filter": cmd_filter,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the problem; its code 2 matches ours.
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (InputError, OSError) as exc:
        log.error("%s", exc)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
