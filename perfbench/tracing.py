"""Spans around the calls into each karaka_qg module, and the metrics they give.

Nothing under ``src/`` is changed: ``Tracer.install`` replaces the public
functions where their callers look them up (the names ``karaka_qg.cli``
imported, ``RULE_FUNCTIONS``, ``FILTER_FUNCTIONS``, and every
``morphology`` function as bound in ``filters`` and ``rule_engine``) with
wrappers that record a span per call. A span is a
name, a start, an end and the span open when it began (its parent).
Spans are kept in flat arrays in memory and written out at the end.

A span's name is ``<module>.<what>``; a module's self time is the time
inside its spans minus the part their child spans cover. ``cli`` is the
rest of the command: its wall time minus the top-level spans.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array
from collections import Counter, defaultdict

RULE_IDS = ("R_K1", "R_K1S", "R_K2", "R_K2P", "R_K3", "R_RT", "R_RH", "R_K5",
            "R_R6", "R_R6_NONLIVING", "R_K7S", "R_K7T")
FILTER_IDS = ("F_ANAPHORA", "F_GENDER_AGREEMENT", "F_WORD_ORDER",
              "F_ALREADY_QUESTION", "F_COMPLEX_COMPOUND")
MODULES = ("treebank_io", "lexicon", "morphology", "rule_engine", "filters",
           "evaluation", "cli")

# (module attribute in karaka_qg.cli, span name)
CLI_BINDINGS = (
    ("load_treebank", "treebank_io.load"),
    ("default_lexicon", "lexicon.load"),
    ("load_lexicon", "lexicon.load"),
    ("merge_lexicons", "lexicon.load"),
    ("load_marker_table", "morphology.load_marker_table"),
    ("generate_all", "rule_engine.generate_all"),
    ("write_candidates_jsonl", "rule_engine.write_candidates"),
    ("read_candidates_jsonl", "rule_engine.read_candidates"),
    ("run_filters", "filters.run_filters"),
    ("write_verdicts_jsonl", "filters.write_verdicts"),
    ("read_verdicts_jsonl", "filters.read_verdicts"),
    ("load_ratings", "evaluation.load_ratings"),
    ("aggregate", "evaluation.aggregate"),
    ("before_after", "evaluation.before_after"),
)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.unwrapped: list[str] = []
        # Counts made at the same boundaries as the spans.
        self.rule_candidates = Counter()
        self.rule_kept = Counter()
        self.filter_dropped = Counter()
        self.filter_us_by_sentence = defaultdict(float)
        self.sentence_us: list[float] = []
        self.tokens_loaded = 0
        self.candidates_filtered = 0
        self.candidates_kept = 0

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result, seconds)``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result, t1 - t0)
            return result

        return traced

    def _patch(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.unwrapped.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(name, fn, after))

    def install(self) -> None:
        from karaka_qg import cli, filters, morphology, rule_engine

        after = {
            "load_treebank": self._after_load,
            "generate_all": self._after_generate,
            "run_filters": self._after_run_filters,
        }
        for attr, name in CLI_BINDINGS:
            self._patch(cli, attr, name, after.get(attr))
        for module in (filters, rule_engine):
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == morphology.__name__:
                    self._patch(module, attr, f"morphology.{attr}")
        rule_engine.RULE_FUNCTIONS = tuple(
            (rid, self.wrap(f"rule_engine.{rid.value}", fn, self._after_rule(rid.value)))
            for rid, fn in rule_engine.RULE_FUNCTIONS
        )
        filters.FILTER_FUNCTIONS = {
            fid: self.wrap(f"filters.{fid.value}", fn, self._after_filter(fid.value))
            for fid, fn in filters.FILTER_FUNCTIONS.items()
        }

    # --- counts at the boundaries -----------------------------------------

    def _after_load(self, args, sentences, seconds) -> None:
        self.tokens_loaded += sum(len(s.tokens) for s in sentences)

    def _after_generate(self, args, candidates, seconds) -> None:
        self.sentence_us.append(seconds * 1e6)

    def _after_rule(self, rule: str):
        def after(args, candidates, seconds):
            self.rule_candidates[rule] += len(candidates)
        return after

    def _after_filter(self, fid: str):
        def after(args, verdict, seconds):
            self.filter_us_by_sentence[args[1].sentence_id] += seconds * 1e6
            if not verdict.kept:
                self.filter_dropped[fid] += 1
        return after

    def _after_run_filters(self, args, result, seconds) -> None:
        kept, verdicts = result
        self.candidates_filtered += len(verdicts)
        self.candidates_kept += len(kept)
        for c in kept:
            self.rule_kept[c.rule.value] += 1

    # --- metrics -----------------------------------------------------------

    def _durations(self):
        """Total seconds and calls per span name, and self seconds per module."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                top += dur[i]
            else:
                child[p] += dur[i]
        total = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            total[name] += dur[i]
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += dur[i] - child[i]
        return total, calls, self_s, top

    def metrics(self, wall_s: float, import_s: float) -> dict:
        """Per-module metrics of this job, by name; 0 for layers it skips.

        The per-sentence percentiles are left out: they come from the
        samples of several jobs pooled (``samples``, ``percentile_metrics``).
        """
        total, calls, self_s, top = self._durations()
        sentences = calls["rule_engine.generate_all"]
        m = {}
        load_s = total["treebank_io.load"]
        m["treebank_io.load_s"] = load_s
        m["treebank_io.tokens_per_s"] = self.tokens_loaded / load_s if load_s else 0.0
        m["lexicon.load_s"] = total["lexicon.load"]
        m["morphology.marker_table_load_s"] = total["morphology.load_marker_table"]
        for fn in ("interrogative_spans", "case_of"):
            m[f"morphology.{fn}_s"] = total[f"morphology.{fn}"]
            m[f"morphology.{fn}_calls"] = calls[f"morphology.{fn}"]

        m["rule_engine.generate_s"] = total["rule_engine.generate_all"]
        for rule in RULE_IDS:
            made = self.rule_candidates[rule]
            spent = total[f"rule_engine.{rule}"]
            m[f"rule_engine.{rule}.ns_per_sentence"] = spent * 1e9 / sentences if sentences else 0.0
            m[f"rule_engine.{rule}.candidates"] = made
            m[f"rule_engine.{rule}.kept_ratio"] = self.rule_kept[rule] / made if made else 0.0
        m["rule_engine.write_candidates_s"] = total["rule_engine.write_candidates"]
        m["rule_engine.read_candidates_s"] = total["rule_engine.read_candidates"]

        m["filters.run_s"] = total["filters.run_filters"]
        for fid in FILTER_IDS:
            n_calls = calls[f"filters.{fid}"]
            spent = total[f"filters.{fid}"]
            m[f"filters.{fid}.ns_per_call"] = spent * 1e9 / n_calls if n_calls else 0.0
            m[f"filters.{fid}.calls"] = n_calls
            m[f"filters.{fid}.dropped"] = self.filter_dropped[fid]
        m["filters.keep_ratio"] = (self.candidates_kept / self.candidates_filtered
                                   if self.candidates_filtered else 0.0)
        m["filters.write_verdicts_s"] = total["filters.write_verdicts"]
        m["filters.read_verdicts_s"] = total["filters.read_verdicts"]

        for fn in ("load_ratings", "aggregate", "before_after"):
            m[f"evaluation.{fn}_s"] = total[f"evaluation.{fn}"]

        self_s["cli"] = wall_s - top
        for module in MODULES:
            m[f"{module}.self_s"] = self_s[module]
        m["cli.import_s"] = import_s
        m["trace.spans"] = len(self.start)
        return m

    def samples(self) -> dict:
        """Per-sentence times in microseconds, to pool across jobs."""
        return {"rule_engine.sentence_us": self.sentence_us,
                "filters.sentence_us": list(self.filter_us_by_sentence.values())}

    def write_spans(self, path, t0: float) -> None:
        """One TSV row per span: id, parent id, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def percentile_metrics(prefix: str, samples) -> dict:
    """Median, 99th percentile and sample count of per-sentence times."""
    samples = sorted(samples)
    return {f"{prefix}.p50": percentile(samples, 0.50),
            f"{prefix}.p99": percentile(samples, 0.99),
            f"{prefix}.samples": len(samples)}
