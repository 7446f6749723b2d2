"""Command line front end: generate, filter, eval, and pipeline.

Data goes to files under --out (and evaluation results to stdout); logs
go to stderr. Data files are byte-identical across reruns on the same
inputs; per-run metadata is kept out of them in run_meta.json.

Exit codes: 0 on success, 1 for input errors, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .evaluation import (
    RatingsError,
    aggregate,
    before_after,
    before_after_to_dict,
    eval_table_to_dict,
    load_ratings,
    render_before_after,
    render_eval_table,
)
from .filters import (
    FilterConfig,
    FilterError,
    FilterId,
    read_verdicts_jsonl,
    run_filters,
    write_verdicts_jsonl,
)
from .lexicon import LexiconError, default_lexicon, load_lexicon, merge_lexicons
from .morphology import DEFAULT_MARKERS, MarkerTableError, load_marker_table
from .rule_engine import (
    RuleId,
    generate_all,
    read_candidates_jsonl,
    write_candidates_jsonl,
)
from .treebank_io import KARAKA_ORDER, TreebankError, load_treebank

log = logging.getLogger("karaka_qg")


class ConfigError(ValueError):
    """Raised for bad flag values such as unknown rule or filter names."""


@dataclass
class PipelineConfig:
    input_path: Path | None = None
    lexicon_paths: list = field(default_factory=list)
    marker_table_path: Path | None = None
    output_dir: Path = Path(".")
    theta: int = 5
    enabled_rules: set = field(default_factory=lambda: set(RuleId))
    enabled_filters: set = field(default_factory=lambda: set(FilterId))
    candidates_path: Path | None = None
    verdicts_path: Path | None = None
    ratings_path: Path | None = None
    fmt: str = "text"


def _parse_rules(selection: str) -> set:
    if selection.strip().lower() == "all":
        return set(RuleId)
    rules = set()
    for raw in selection.split(","):
        name = raw.strip().upper()
        if not name:
            continue
        if not name.startswith("R_"):
            name = "R_" + name
        try:
            rules.add(RuleId(name))
        except ValueError:
            raise ConfigError(f"unknown rule {raw.strip()!r}") from None
    if not rules:
        raise ConfigError("no rules selected")
    return rules


def _parse_filter_name(raw: str) -> FilterId:
    name = raw.strip().upper()
    if not name.startswith("F_"):
        name = "F_" + name
    try:
        return FilterId(name)
    except ValueError:
        raise ConfigError(f"unknown filter {raw.strip()!r}") from None


def _load_markers(cfg: PipelineConfig):
    if cfg.marker_table_path is None:
        return DEFAULT_MARKERS
    return load_marker_table(cfg.marker_table_path)


def _load_lexicon(cfg: PipelineConfig):
    lexicons = [default_lexicon()]
    for path in cfg.lexicon_paths:
        lexicons.append(load_lexicon(path))
    return merge_lexicons(lexicons)


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=2) + "\n",
                    encoding="utf-8")


def _write_run_meta(cfg: PipelineConfig, command: str) -> None:
    # Per-run metadata is quarantined here so the data files stay
    # byte-identical across reruns.
    meta = {
        "command": command,
        "input": str(cfg.input_path) if cfg.input_path else None,
        "lexicons": [str(p) for p in cfg.lexicon_paths],
        "markers": str(cfg.marker_table_path) if cfg.marker_table_path else None,
        "theta": cfg.theta,
        "rules": sorted(r.value for r in cfg.enabled_rules),
        "filters": sorted(f.value for f in cfg.enabled_filters),
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(meta, cfg.output_dir / "run_meta.json")


def _generate(cfg: PipelineConfig, markers):
    lexicon = _load_lexicon(cfg)
    sentences = load_treebank(cfg.input_path)
    candidates = []
    for s in sentences:
        candidates.extend(generate_all(s, lexicon, markers, cfg.enabled_rules))
    candidates.sort(key=lambda c: c.candidate_id)
    return sentences, candidates


def _write_generate_outputs(cfg: PipelineConfig, candidates) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_candidates_jsonl(candidates, cfg.output_dir / "candidates.jsonl")
    summary = {k: 0 for k in KARAKA_ORDER}
    for c in candidates:
        summary[c.karaka] = summary.get(c.karaka, 0) + 1
    _write_json(summary, cfg.output_dir / "generate_summary.json")


def cmd_generate(cfg: PipelineConfig) -> int:
    sentences, candidates = _generate(cfg, _load_markers(cfg))
    _write_generate_outputs(cfg, candidates)
    _write_run_meta(cfg, "generate")
    log.info("generated %d candidates from %d sentences",
             len(candidates), len(sentences))
    return 0


def _filter(cfg: PipelineConfig, markers, sentences, candidates):
    filter_cfg = FilterConfig(theta=cfg.theta, enabled=frozenset(cfg.enabled_filters),
                              markers=markers)
    return run_filters(candidates, sentences, filter_cfg)


def _write_filter_outputs(cfg: PipelineConfig, candidates, kept, verdicts) -> None:
    write_candidates_jsonl(kept, cfg.output_dir / "kept.jsonl")
    write_verdicts_jsonl(verdicts, cfg.output_dir / "verdicts.jsonl")
    drops = {f.value: 0 for f in FilterId}
    for v in verdicts:
        if not v.kept:
            drops[v.dropped_by.value] += 1
    summary = {"input": len(candidates), "kept": len(kept), "dropped": drops}
    _write_json(summary, cfg.output_dir / "filter_summary.json")
    log.info("kept %d of %d candidates", len(kept), len(candidates))


def cmd_filter(cfg: PipelineConfig) -> int:
    sentences = load_treebank(cfg.input_path)
    candidates_path = cfg.candidates_path or cfg.output_dir / "candidates.jsonl"
    candidates = read_candidates_jsonl(candidates_path)
    kept, verdicts = _filter(cfg, _load_markers(cfg), sentences, candidates)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_filter_outputs(cfg, candidates, kept, verdicts)
    _write_run_meta(cfg, "filter")
    return 0


def _print_eval(cfg: PipelineConfig, table, ba) -> None:
    if cfg.fmt == "json":
        payload = {
            "table": eval_table_to_dict(table),
            "before_after": before_after_to_dict(ba) if ba else None,
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return
    print(render_eval_table(table))
    if ba:
        print()
        print(render_before_after(ba))


def cmd_eval(cfg: PipelineConfig) -> int:
    candidates_path = cfg.candidates_path or cfg.output_dir / "candidates.jsonl"
    candidates = read_candidates_jsonl(candidates_path)
    ratings = load_ratings(cfg.ratings_path)
    table = aggregate(ratings, candidates)
    verdicts_path = cfg.verdicts_path or cfg.output_dir / "verdicts.jsonl"
    ba = None
    if Path(verdicts_path).exists():
        verdicts = read_verdicts_jsonl(verdicts_path)
        ba = before_after(ratings, candidates, verdicts)
    else:
        log.info("no verdicts at %s; skipping the before/after block", verdicts_path)
    _print_eval(cfg, table, ba)
    return 0


def cmd_pipeline(cfg: PipelineConfig) -> int:
    markers = _load_markers(cfg)
    sentences, candidates = _generate(cfg, markers)
    _write_generate_outputs(cfg, candidates)
    kept, verdicts = _filter(cfg, markers, sentences, candidates)
    _write_filter_outputs(cfg, candidates, kept, verdicts)
    _write_run_meta(cfg, "pipeline")
    if cfg.ratings_path is not None:
        ratings = load_ratings(cfg.ratings_path)
        table = aggregate(ratings, candidates)
        ba = before_after(ratings, candidates, verdicts)
        _print_eval(cfg, table, ba)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karaka-qg",
        description="Generate, filter, and evaluate Hindi questions from "
                    "karaka-labeled dependency trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="treebank file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--markers", default=None, help="marker table TSV")

    g = sub.add_parser("generate", help="produce question candidates")
    add_common(g)
    g.add_argument("--lexicon", action="append", default=[],
                   help="semantic lexicon TSV; repeatable, later files win")
    g.add_argument("--rules", default="all", help="comma-separated rule names or 'all'")

    f = sub.add_parser("filter", help="prune candidates with surface filters")
    add_common(f)
    f.add_argument("--candidates", default=None, help="candidates JSONL to read")
    f.add_argument("--theta", type=int, default=5,
                   help="token count allowed on each side of a conjunct")
    f.add_argument("--disable-filter", action="append", default=[],
                   help="filter name to switch off; repeatable")

    e = sub.add_parser("eval", help="aggregate human ratings")
    add_common(e, needs_input=False)
    e.add_argument("--candidates", default=None, help="candidates JSONL to read")
    e.add_argument("--verdicts", default=None, help="verdicts JSONL for before/after")
    e.add_argument("--ratings", required=True, help="ratings CSV")
    e.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pipeline", help="generate, filter, and optionally eval")
    add_common(p)
    p.add_argument("--lexicon", action="append", default=[],
                   help="semantic lexicon TSV; repeatable, later files win")
    p.add_argument("--rules", default="all", help="comma-separated rule names or 'all'")
    p.add_argument("--theta", type=int, default=5,
                   help="token count allowed on each side of a conjunct")
    p.add_argument("--disable-filter", action="append", default=[],
                   help="filter name to switch off; repeatable")
    p.add_argument("--ratings", default=None, help="ratings CSV")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _config_from_args(args) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.input_path = Path(args.input) if getattr(args, "input", None) else None
    cfg.lexicon_paths = [Path(p) for p in getattr(args, "lexicon", [])]
    cfg.marker_table_path = Path(args.markers) if getattr(args, "markers", None) else None
    cfg.output_dir = Path(args.out)
    cfg.candidates_path = (
        Path(args.candidates) if getattr(args, "candidates", None) else None
    )
    cfg.verdicts_path = Path(args.verdicts) if getattr(args, "verdicts", None) else None
    cfg.ratings_path = Path(args.ratings) if getattr(args, "ratings", None) else None
    cfg.fmt = getattr(args, "format", "text")
    theta = getattr(args, "theta", 5)
    if theta < 1:
        raise ConfigError(f"theta must be >= 1, got {theta}")
    cfg.theta = theta
    cfg.enabled_rules = _parse_rules(getattr(args, "rules", "all"))
    disabled = {_parse_filter_name(name) for name in getattr(args, "disable_filter", [])}
    cfg.enabled_filters = set(FilterId) - disabled
    return cfg


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
    except (TreebankError, LexiconError, MarkerTableError, RatingsError,
            FilterError, OSError) as exc:
        log.error("%s", exc)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
