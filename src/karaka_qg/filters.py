"""Surface and syntactic pruning of overgenerated question candidates.

Filters run in the fixed order of FILTER_FUNCTIONS and only ever drop
candidates, never repair them. A dropped candidate records the first
filter that rejected it.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple

from .morphology import (
    DEFAULT_MARKERS,
    MarkerTable,
    case_of,
    interrogative_spans,
    verb_agreement,
)
from .rule_engine import QuestionCandidate, RuleId
from .textfile import InputError, jsonl_record, read_jsonl
from .treebank_io import ParsedSentence


class FilterId(str, Enum):
    F_ANAPHORA = "F_ANAPHORA"
    F_GENDER_AGREEMENT = "F_GENDER_AGREEMENT"
    F_WORD_ORDER = "F_WORD_ORDER"
    F_ALREADY_QUESTION = "F_ALREADY_QUESTION"
    F_COMPLEX_COMPOUND = "F_COMPLEX_COMPOUND"


PRONOUN_POS_TAGS = frozenset({"PRON", "PRP"})


class FilterError(InputError):
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


# What a filter returns for a candidate it keeps, shared by every candidate;
# run_filters records each kept candidate's own verdict.
PASSED = FilterVerdict("", True)


def _dropped(c: QuestionCandidate, fid: FilterId, detail: str) -> FilterVerdict:
    return FilterVerdict(c.candidate_id, False, fid, detail)


class SentenceFacts(NamedTuple):
    """What the filters read of one source sentence, worked out once per run."""
    sentence_id: str
    pronouns: tuple  # non-interrogative pronoun forms, in source order
    verb_form: str
    kya_clashes: bool
    subject_stranded: bool
    question_detail: str | None
    complex_detail: str | None


def sentence_facts(s: ParsedSentence, cfg: FilterConfig) -> SentenceFacts:
    """One sentence's facts under cfg's marker table and theta."""
    verb = s.main_verb()
    gender, number, _ = verb_agreement(s, verb.id)
    kids = s.children(verb.id)
    subject = next((t for t in kids if t.deprel == "k1"), None)
    n = len(s.tokens)
    source_spans = interrogative_spans(s.forms, cfg.markers)
    if source_spans:
        question = f"source sentence already contains an interrogative at position {source_spans[0][0] + 1}"
    elif s.tokens[-1].form == "?":
        question = f"source sentence already ends in '?' at position {n}"
    else:
        question = None
    split = next((i for i, t in enumerate(s.tokens)
                  if t.deprel == "coof" and max(i, n - i - 1) > cfg.theta), None)
    return SentenceFacts(
        s.sentence_id,
        tuple(t.form for t in s.tokens
              if t.upos in PRONOUN_POS_TAGS and t.form not in cfg.markers.interrogatives),
        verb.form,
        gender == "Fem" and subject is not None and case_of(s, subject.id, cfg.markers)[0] is not None,
        (gender is not None and not any(t.deprel == "k2" for t in kids)
         and (gender == "Fem" or number == "Plur")),
        question,
        None if split is None else (f"conjunct at position {split + 1} splits the sentence into "
                                    f"{split}+{n - split - 1} tokens, past theta={cfg.theta}"),
    )


def filter_anaphora(c: QuestionCandidate, facts: SentenceFacts, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates that still contain a non-interrogative pronoun."""
    pronoun = next((form for form in facts.pronouns if form in c.tokens), None)
    if pronoun is not None:
        return _dropped(c, FilterId.F_ANAPHORA,
                        f"retained pronoun {pronoun!r} leaves the answer ambiguous")
    return PASSED


def filter_gender_agreement(c: QuestionCandidate, facts: SentenceFacts, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates whose verb agreement clashes with the interrogative.

    kya is masculine, so substituting it for the object of a feminine
    verb group with an oblique subject breaks agreement. Likewise a
    replaced subject leaves an intransitive verb stranded in feminine or
    plural form, where the question would need masculine singular.
    """
    if c.rule is RuleId.R_K2 and c.interrogative == "kya" and facts.kya_clashes:
        return _dropped(c, FilterId.F_GENDER_AGREEMENT,
                        "kya is masculine but the verb group agrees feminine")
    if c.rule is RuleId.R_K1 and facts.subject_stranded:
        return _dropped(c, FilterId.F_GENDER_AGREEMENT,
                        "subject replaced but the verb is not masculine singular")
    return PASSED


@lru_cache(maxsize=1)
def _candidate_spans(tokens: tuple, m: MarkerTable) -> list:
    """interrogative_spans of a candidate's tokens. F_WORD_ORDER and
    F_ALREADY_QUESTION both read them, so the last scan is kept, keyed by
    the tokens and the table."""
    return interrogative_spans(tokens, m)


def filter_word_order(c: QuestionCandidate, facts: SentenceFacts, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates whose interrogative lands after the main verb."""
    forms = c.tokens
    try:
        verb_index = forms.index(facts.verb_form)
    except ValueError:
        return PASSED
    spans = _candidate_spans(forms, cfg.markers)
    if not spans:
        return PASSED
    # The span of the inserted interrogative, else the first; a lone span is both.
    span = spans[0] if len(spans) == 1 else next(
        (sp for sp in spans if forms[sp[0]:sp[1]] == tuple(c.interrogative.split(" "))), spans[0])
    if span[0] > verb_index:
        return _dropped(c, FilterId.F_WORD_ORDER,
                        f"interrogative at position {span[0] + 1} follows the verb "
                        f"at position {verb_index + 1}")
    return PASSED


def filter_already_question(c: QuestionCandidate, facts: SentenceFacts, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates built from questions or carrying two interrogatives."""
    if facts.question_detail is not None:
        return _dropped(c, FilterId.F_ALREADY_QUESTION, facts.question_detail)
    spans = _candidate_spans(c.tokens, cfg.markers)
    if len(spans) >= 2:
        return _dropped(c, FilterId.F_ALREADY_QUESTION,
                        f"candidate contains {len(spans)} interrogative spans")
    return PASSED


def filter_complex(c: QuestionCandidate, facts: SentenceFacts, cfg: FilterConfig) -> FilterVerdict:
    """Drop candidates from conjunct sentences too long on either side."""
    if facts.complex_detail is not None:
        return _dropped(c, FilterId.F_COMPLEX_COMPOUND, facts.complex_detail)
    return PASSED


FILTER_FUNCTIONS = {
    FilterId.F_ANAPHORA: filter_anaphora,
    FilterId.F_GENDER_AGREEMENT: filter_gender_agreement,
    FilterId.F_WORD_ORDER: filter_word_order,
    FilterId.F_ALREADY_QUESTION: filter_already_question,
    FilterId.F_COMPLEX_COMPOUND: filter_complex,
}


def run_filters(candidates, sentences, cfg: FilterConfig = FilterConfig()):
    """Apply enabled filters in order; the first failure decides.

    Each sentence's facts are worked out once, before the first candidate.
    Returns (kept_candidates, verdicts). Verdicts cover every input candidate
    and kept candidates preserve the input order.
    """
    facts_of = {s.sentence_id: sentence_facts(s, cfg) for s in sentences}
    chain = [check for fid, check in FILTER_FUNCTIONS.items() if fid in cfg.enabled]
    kept: list[QuestionCandidate] = []
    verdicts: list[FilterVerdict] = []
    for c in candidates:
        facts = facts_of.get(c.sentence_id)
        if facts is None:
            raise UnknownSentenceError(c.candidate_id, c.sentence_id)
        for check in chain:
            verdict = check(c, facts, cfg)
            if not verdict.kept:
                break
        else:
            verdict = FilterVerdict(c.candidate_id, True)
            kept.append(c)
        verdicts.append(verdict)
    return kept, verdicts


def read_verdicts_jsonl(path, project: str | None = None):
    return read_jsonl(path, FilterVerdict, project)
