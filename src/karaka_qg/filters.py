"""Surface and syntactic pruning of overgenerated question candidates.

Filters run in a fixed order and only ever drop candidates, never repair
them. A dropped candidate records the first filter that rejected it.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import partial
from typing import NamedTuple

from .morphology import (
    DEFAULT_MARKERS,
    MarkerTable,
    case_of,
    interrogative_spans,
    is_interrogative_form,
    verb_gender,
    verb_number,
)
from .rule_engine import QuestionCandidate, RuleId
from .textfile import jsonl_record, read_jsonl, write_jsonl
from .treebank_io import ParsedSentence


class FilterId(str, Enum):
    F_ANAPHORA = "F_ANAPHORA"
    F_GENDER_AGREEMENT = "F_GENDER_AGREEMENT"
    F_WORD_ORDER = "F_WORD_ORDER"
    F_ALREADY_QUESTION = "F_ALREADY_QUESTION"
    F_COMPLEX_COMPOUND = "F_COMPLEX_COMPOUND"


FILTER_ORDER = tuple(FilterId)

PRONOUN_POS_TAGS = frozenset({"PRON", "PRP"})


class FilterError(ValueError):
    """Raised when candidates cannot be matched to their source sentences."""


class UnknownSentenceError(FilterError):
    """Raised for a candidate whose sentence_id no sentence has."""

    def __init__(self, candidate_id: str, sentence_id: str):
        super().__init__(f"candidate {candidate_id}: unknown sentence_id {sentence_id!r}")
        self.candidate_id = candidate_id


class _FilterSettings(NamedTuple):
    theta: int = 5
    enabled: frozenset = frozenset(FilterId)
    markers: MarkerTable = DEFAULT_MARKERS


class FilterConfig(_FilterSettings):
    """The filters' settings; theta is checked whenever one is made, _replace included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_kept(d: dict) -> None:
    """Raise ValueError for a verdict that is kept yet names a filter, or
    dropped yet names none."""
    kept, dropped = d["kept"], d.get("dropped_by")
    if kept != (dropped is None):
        raise ValueError(f"kept is {json.dumps(kept)} but dropped_by is {json.dumps(dropped)}")


@partial(jsonl_record, check=_check_kept)
class FilterVerdict(NamedTuple):
    candidate_id: str
    kept: bool
    dropped_by: FilterId | None = None
    detail: str = ""


def _kept(c: QuestionCandidate) -> FilterVerdict:
    return FilterVerdict(c.candidate_id, True)


def _dropped(c: QuestionCandidate, fid: FilterId, detail: str) -> FilterVerdict:
    return FilterVerdict(c.candidate_id, False, fid, detail)


def filter_anaphora(c: QuestionCandidate, s: ParsedSentence, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates that still contain a non-interrogative pronoun."""
    candidate_forms = set(c.tokens)
    for t in s.tokens:
        if (t.upos in PRONOUN_POS_TAGS
                and t.form in candidate_forms
                and not is_interrogative_form(t.form, cfg.markers)):
            return _dropped(c, FilterId.F_ANAPHORA,
                            f"retained pronoun {t.form!r} leaves the answer ambiguous")
    return _kept(c)


def filter_gender_agreement(c: QuestionCandidate, s: ParsedSentence, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates whose verb agreement clashes with the interrogative.

    kya is masculine, so substituting it for the object of a feminine
    verb group with an oblique subject breaks agreement. Likewise a
    replaced subject leaves an intransitive verb stranded in feminine or
    plural form, where the question would need masculine singular.
    """
    verb = s.main_verb()
    gender = verb_gender(s, verb.id)
    if gender is None:
        return _kept(c)
    if c.rule is RuleId.R_K2 and c.interrogative == "kya" and gender == "Fem":
        subject = next((t for t in s.children(verb.id) if t.deprel == "k1"), None)
        if subject is not None and case_of(s, subject.id, cfg.markers) is not None:
            return _dropped(c, FilterId.F_GENDER_AGREEMENT,
                            "kya is masculine but the verb group agrees feminine")
    if c.rule is RuleId.R_K1:
        transitive = any(t.deprel == "k2" for t in s.children(verb.id))
        if not transitive and (gender == "Fem" or verb_number(s, verb.id) == "Plur"):
            return _dropped(c, FilterId.F_GENDER_AGREEMENT,
                            "subject replaced but the verb is not masculine singular")
    return _kept(c)


def filter_word_order(c: QuestionCandidate, s: ParsedSentence, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates whose interrogative lands after the main verb."""
    forms = list(c.tokens)
    verb_form = s.main_verb().form
    if verb_form not in forms:
        return _kept(c)
    verb_index = forms.index(verb_form)
    spans = interrogative_spans(forms, cfg.markers)
    if not spans:
        return _kept(c)
    inserted = c.interrogative.split(" ")
    span = next((sp for sp in spans if forms[sp[0]:sp[1]] == inserted), spans[0])
    if span[0] > verb_index:
        return _dropped(c, FilterId.F_WORD_ORDER,
                        f"interrogative at position {span[0] + 1} follows the verb "
                        f"at position {verb_index + 1}")
    return _kept(c)


def filter_already_question(c: QuestionCandidate, s: ParsedSentence, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates built from questions or carrying two interrogatives."""
    source_spans = interrogative_spans([t.form for t in s.tokens], cfg.markers)
    if source_spans:
        start = source_spans[0][0]
        return _dropped(c, FilterId.F_ALREADY_QUESTION,
                        f"source sentence already contains an interrogative "
                        f"at position {start + 1}")
    if s.tokens[-1].form == "?":
        return _dropped(c, FilterId.F_ALREADY_QUESTION,
                        f"source sentence already ends in '?' at position {len(s.tokens)}")
    spans = interrogative_spans(list(c.tokens), cfg.markers)
    if len(spans) >= 2:
        return _dropped(c, FilterId.F_ALREADY_QUESTION,
                        f"candidate contains {len(spans)} interrogative spans")
    return _kept(c)


def filter_complex(c: QuestionCandidate, s: ParsedSentence, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates from conjunct sentences too long on either side."""
    n = len(s.tokens)
    for index, t in enumerate(s.tokens):
        if t.deprel == "coof":
            before = index
            after = n - index - 1
            if before > cfg.theta or after > cfg.theta:
                return _dropped(c, FilterId.F_COMPLEX_COMPOUND,
                                f"conjunct at position {index + 1} splits the sentence "
                                f"into {before}+{after} tokens, past theta={cfg.theta}")
    return _kept(c)


FILTER_FUNCTIONS = {
    FilterId.F_ANAPHORA: filter_anaphora,
    FilterId.F_GENDER_AGREEMENT: filter_gender_agreement,
    FilterId.F_WORD_ORDER: filter_word_order,
    FilterId.F_ALREADY_QUESTION: filter_already_question,
    FilterId.F_COMPLEX_COMPOUND: filter_complex,
}


def run_filters(candidates, sentences, cfg: FilterConfig = FilterConfig()):
    """Apply enabled filters in order; the first failure decides.

    Returns (kept_candidates, verdicts). Verdicts cover every input
    candidate and kept candidates preserve the input order.
    """
    by_id = {s.sentence_id: s for s in sentences}
    kept: list[QuestionCandidate] = []
    verdicts: list[FilterVerdict] = []
    for c in candidates:
        source = by_id.get(c.sentence_id)
        if source is None:
            raise UnknownSentenceError(c.candidate_id, c.sentence_id)
        verdict = None
        for fid in FILTER_ORDER:
            if fid not in cfg.enabled:
                continue
            result = FILTER_FUNCTIONS[fid](c, source, cfg)
            if not result.kept:
                verdict = result
                break
        if verdict is None:
            verdict = _kept(c)
            kept.append(c)
        verdicts.append(verdict)
    return kept, verdicts


write_verdicts_jsonl = write_jsonl


def read_verdicts_jsonl(path, project: str | None = None):
    return read_jsonl(path, FilterVerdict, project)
