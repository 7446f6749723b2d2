"""Question generation by interrogative substitution.

Each rule targets one karaka relation on the main verb (the possessive
rules look at any noun's possessor) and swaps the target chunk for an
interrogative. A chunk is the target token plus its whole subtree, so
modifiers and postpositions leave with their head. The sentence is
otherwise copied verbatim, terminal punctuation is dropped, and a "?"
token is appended.

Rules deliberately overgenerate: when the semantic lexicon cannot decide
between readings, every plausible variant is emitted and the surface
filters deal with the fallout later. Candidates that are free variants
of one another (same meaning, different interrogative) share a
variation_group; variants with different meanings get distinct groups.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .lexicon import SemanticCategory, SemanticLexicon
from .morphology import (
    DEFAULT_MARKERS,
    GENITIVE_INTERROGATIVES,
    MarkerTable,
    case_of,
    verb_agreement,
)
from .textfile import jsonl_record, read_jsonl
from .treebank_io import ParsedSentence, Token

# Terminal punctuation replaced by the appended question mark.
TERMINAL_PUNCT = {"।", ".", "|", "?", "!"}


class RuleId(str, Enum):
    R_K1 = "R_K1"
    R_K1S = "R_K1S"
    R_K2 = "R_K2"
    R_K2P = "R_K2P"
    R_K3 = "R_K3"
    R_RT = "R_RT"
    R_RH = "R_RH"
    R_K5 = "R_K5"
    R_R6 = "R_R6"
    R_R6_NONLIVING = "R_R6_NONLIVING"
    R_K7S = "R_K7S"
    R_K7T = "R_K7T"


@jsonl_record
class QuestionCandidate(NamedTuple):
    candidate_id: str
    sentence_id: str
    rule: RuleId
    karaka: str
    interrogative: str
    tokens: tuple[str, ...]
    variation_group: str
    target_token_id: int
    notes: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def _build_tokens(s: ParsedSentence, delete_ids: set[int], insert_at: int,
                  insert_forms: list[str], replacements: dict[int, str] | None = None) -> tuple[str, ...]:
    """Copy the sentence, dropping delete_ids and inserting at a token slot.

    insert_forms land immediately before the token with id insert_at, one
    of the sentence's ids, which itself is kept or dropped according to
    delete_ids. Surviving tokens listed in replacements change surface
    form in place.
    """
    forms = s.forms
    if replacements:
        forms = list(forms)
        for token_id, form in replacements.items():
            forms[token_id - 1] = form
    n = len(delete_ids)
    if n and max(delete_ids) - (lo := min(delete_ids)) + 1 == n:
        # One run of ids, as a projective chunk is: copy the forms around it by slices.
        if lo <= insert_at < lo + n:
            out = [*forms[:lo - 1], *insert_forms, *forms[lo - 1 + n:]]
        else:
            out = [*forms[:lo - 1], *forms[lo - 1 + n:]]
            at = insert_at - 1 if insert_at < lo else insert_at - 1 - n
            out[at:at] = insert_forms
    else:
        out = []
        for token_id, form in enumerate(forms, 1):
            if token_id == insert_at:
                out.extend(insert_forms)
            if token_id not in delete_ids:
                out.append(form)
    if out and out[-1] in TERMINAL_PUNCT:
        out.pop()
    out.append("?")
    return tuple(out)


def _candidate(s: ParsedSentence, rule: RuleId, target: Token, index: int, group: int,
               karaka: str, interrogative: str, tokens: tuple[str, ...],
               notes: tuple[str, ...] = ()) -> QuestionCandidate:
    """The rule's index-th candidate for target, in the target's group-th variation group."""
    base = f"{s.sentence_id}:{rule.value}:{target.id}"
    return QuestionCandidate(f"{base}:{index}", s.sentence_id, rule, karaka, interrogative,
                             tokens, f"{base}:g{group}", target.id, notes)


UNKNOWN = SemanticCategory.UNKNOWN
# Key of a category entry covering every category the row does not name.
OTHER = None


def _unknown_note(lemma: str) -> tuple[str, ...]:
    return (f"category of {lemma!r} unknown; emitting all variants",)


class Role(NamedTuple):
    """Case key matching any marker of one MarkerTable field, e.g. ergative,
    or only ``marker`` when the field lists it."""

    name: str
    marker: str | None = None


# Case key of a target that carries no postposition, whose case_of marker is None.
# It is a Role, so a row keyed by DIRECT alone still reads as keyed by case.
DIRECT = Role("direct")


class Substitution(NamedTuple):
    """A rule that swaps a target chunk for interrogatives read from tables.

    A leaf of ``asks`` is a tuple of interrogatives, which share a
    variation group, or a list of such tuples, one group each. ``asks`` is
    a leaf, or a dict from lexicon category to one, where OTHER covers the
    categories not named and UNKNOWN is always named. A row whose ``asks``
    keys are ``Role``s (DIRECT or a MarkerTable role) is keyed by case: it
    first keys ``asks`` by the target's case. A case not listed skips the
    target, reported when the row says how it ``skip``s (formatted with the
    marker). Targets are the tokens with one of ``labels``, only the main
    verb's children when ``on_verb``. Interrogatives in ``keeps_marker``
    leave a case-keyed row's case marker in place. ``notes`` is a note per
    label.
    """

    rule: RuleId
    labels: tuple[str, ...]
    asks: tuple | list | dict
    skip: str = ""
    on_verb: bool = True
    keeps_marker: frozenset = frozenset()
    notes: dict = {}  # shared by the rows that give none; only ever read


SUBSTITUTIONS = (
    # Agents. The case decides alone; an agent marked with some other
    # postposition is outside the rule.
    Substitution(RuleId.R_K1, ("k1",), skip="carries non-ergative marker {!r}",
                 asks={DIRECT: ("kaun",), Role("ergative"): ("kisne",)}),
    # Copula complements: kaun for people, kaisa for properties.
    Substitution(RuleId.R_K1S, ("k1s",), asks={
        SemanticCategory.HUMAN: ("kaun",),
        SemanticCategory.OCCUPATION: ("kaun",),
        UNKNOWN: ("kaun", "kaisa"),
        OTHER: ("kaisa",),
    }),
    # Patients: ko-marked ones ask kisko, direct ones kya.
    Substitution(RuleId.R_K2, ("k2",), skip="carries unexpected marker {!r}",
                 asks={DIRECT: ("kya",), Role("accusative"): ("kisko",)}),
    # Goal locations.
    Substitution(RuleId.R_K2P, ("k2p",), asks=("kidhar", "kahan")),
    # Instruments; a path also licenses the perlative kisse hokar.
    Substitution(RuleId.R_K3, ("k3",), asks={
        Role("instrumental", "ke dwaaraa"): ("kiske dwaaraa",),
        Role("instrumental", "se"): {
            SemanticCategory.PATH: ("kisse", "kisse hokar"),
            UNKNOWN: ("kisse", "kisse hokar"),
            OTHER: ("kisse",),
        },
    }),
    # Purpose: kiske liye for human beneficiaries, kyon otherwise. The two
    # readings differ in meaning, so they never share a variation group.
    Substitution(RuleId.R_RT, ("rt",), asks={
        SemanticCategory.HUMAN: ("kiske liye",),
        UNKNOWN: [("kiske liye",), ("kyon",)],
        OTHER: ("kyon",),
    }),
    # Sources: a place keeps the se and asks kahan se / kidhar se, anything
    # else asks kisse. The two readings differ in meaning.
    Substitution(RuleId.R_K5, ("k5",), keeps_marker=frozenset({"kahan", "kidhar"}),
                 asks={Role("instrumental", "se"): {
                     SemanticCategory.PLACE: ("kahan", "kidhar"),
                     UNKNOWN: [("kisse",), ("kahan", "kidhar")],
                     OTHER: ("kisse",),
                 }}),
    # Possessors of any noun: the genitive marker picks kiska/kiske/kiski.
    Substitution(RuleId.R_R6, ("r6",), on_verb=False, skip="lacks a genitive marker",
                 asks={Role("genitive", marker): (wh,)
                       for marker, wh in GENITIVE_INTERROGATIVES.items()}),
    # Spatial locatives: kahan and kidhar drop the marker, kis mein / kis
    # par re-express it. k7p has no rule of its own and is routed here.
    Substitution(
        RuleId.R_K7S, ("k7s", "k7p"),
        notes={"k7p": "k7p token routed through the spatial locative rule"},
        asks={
            Role("locative", "mein"): ("kahan", "kidhar", "kis mein"),
            Role("locative", "par"): ("kahan", "kidhar", "kis par"),
        },
    ),
    # Temporals: kab, plus the day-selecting kis din and konse din for dates.
    Substitution(RuleId.R_K7T, ("k7t",), asks={
        SemanticCategory.DATE: ("kab", "kis din", "konse din"),
        UNKNOWN: ("kab", "kis din", "konse din"),
        OTHER: ("kab",),
    }),
)


def _case_asks(row: Substitution, marker: str | None, m: MarkerTable):
    """The row's ask for the target's case marker, or None if the row lists no such case."""
    for key, asks in row.asks.items():
        if (marker is None if key is DIRECT
                else marker in getattr(m, key.name) and key.marker in (None, marker)):
            return asks
    return None


def apply_substitution(row: Substitution):
    """The (s, lex, m, skipped) function giving one row's candidates for a sentence.
    Whether the row is keyed by case is read from its asks keys once, here."""
    by_case = isinstance(row.asks, dict) and isinstance(next(iter(row.asks)), Role)

    def substitute(s: ParsedSentence, lex: SemanticLexicon, m: MarkerTable,
                   skipped=None) -> list[QuestionCandidate]:
        out = []
        pool = s.children(s.main_verb().id) if row.on_verb else s.tokens
        for target in [t for t in pool if t.deprel in row.labels]:
            marker, window = case_of(s, target.id, m) if by_case else (None, [])
            asks = _case_asks(row, marker, m) if by_case else row.asks
            if asks is None:
                if row.skip and skipped is not None:
                    skipped.append((target, row.skip.format(marker)))
                continue
            notes: tuple[str, ...] = ()
            if isinstance(asks, dict):
                cat = lex.lookup(target.lemma)
                if cat is UNKNOWN:
                    notes = _unknown_note(target.lemma)
                asks = asks[cat] if cat in asks else asks[OTHER]
            if target.deprel in row.notes:
                notes += (row.notes[target.deprel],)
            chunk = unmarked = s.subtree_ids(target.id)
            if row.keeps_marker:
                unmarked = chunk - {t.id for t in window}
            index = 0
            for group, whs in enumerate(asks if isinstance(asks, list) else [asks]):
                for wh in whs:
                    delete = unmarked if wh in row.keeps_marker else chunk
                    tokens = _build_tokens(s, delete, target.id, wh.split(" "))
                    out.append(_candidate(s, row.rule, target, index, group,
                                          target.deprel, wh, tokens, notes))
                    index += 1
        return out

    return substitute


def gen_rh(s: ParsedSentence, lex: SemanticLexicon, m: MarkerTable,
           skipped=None) -> list[QuestionCandidate]:
    """Reason questions: drop the because-clause, ask kyon before the verb.

    The because-term heads its clause, so deleting its subtree removes
    the whole reason; kyon is inserted in the preverbal focus slot, not
    in the deleted clause's position.
    """
    out = []
    verb = s.main_verb()
    for target in s.tokens:
        if target.form not in m.because or target.id == verb.id:
            continue
        tokens = _build_tokens(s, s.subtree_ids(target.id), verb.id, ["kyon"])
        out.append(_candidate(s, RuleId.R_RH, target, 0, 0, "rh", "kyon", tokens))
    return out


def gen_r6_nonliving(s: ParsedSentence, lex: SemanticLexicon, m: MarkerTable,
                     skipped=None) -> list[QuestionCandidate]:
    """Possessed-thing questions: replace a nonliving possessed noun.

    "X ka Y" with nonliving Y becomes "X ki kaun si vastu". The inserted
    noun vastu is feminine, so the genitive marker and any progressive
    auxiliaries are forced to their feminine forms. This mutation is only
    safe when the lexicon positively says NONLIVING; an unknown category
    does not trigger it.
    """
    out = []
    feminine = verb_agreement(s, s.main_verb().id)[2]
    # Possessors of one noun share its count, so their ids stay distinct.
    made: dict[int, int] = {}
    for possessor in s.tokens:
        if possessor.deprel != "r6" or possessor.head == 0:
            continue
        target = s.token(possessor.head)
        if lex.lookup(target.lemma) is not SemanticCategory.NONLIVING:
            continue
        marker, window = case_of(s, possessor.id, m)
        if marker not in m.genitive:
            continue
        replacements = {t.id: "ki" for t in window} | feminine
        tokens = _build_tokens(s, {target.id}, target.id, ["kaun", "si", "vastu"], replacements)
        index = made.get(target.id, 0)
        made[target.id] = index + 1
        out.append(_candidate(s, RuleId.R_R6_NONLIVING, target, index, index,
                              "r6", "kaun si", tokens))
    return out


# R_RH and R_R6_NONLIVING reshape the sentence in ways no other rule
# does, so they stay code rather than rows.
_FUNCTION_OF = ({row.rule: apply_substitution(row) for row in SUBSTITUTIONS}
                | {RuleId.R_RH: gen_rh, RuleId.R_R6_NONLIVING: gen_r6_nonliving})
# Every rule as an (s, lex, m, skipped=None) function, in RuleId order.
RULE_FUNCTIONS = tuple((rule, _FUNCTION_OF[rule]) for rule in RuleId)
# The labels a rule's targets carry; a sentence holding none of them gets no
# candidate from it. R_RH looks for a because form, whatever its label.
_TARGET_LABELS = {row.rule: frozenset(row.labels) for row in SUBSTITUTIONS}
_TARGET_LABELS[RuleId.R_R6_NONLIVING] = _TARGET_LABELS[RuleId.R_R6]


def generate_all(s: ParsedSentence, lex: SemanticLexicon,
                 m: MarkerTable = DEFAULT_MARKERS,
                 enabled: set[RuleId] | None = None,
                 skipped: list | None = None) -> list[QuestionCandidate]:
    """Run every enabled rule whose target labels the sentence holds, in fixed rule order.
    A target a row skips, saying why, is appended to ``skipped`` as (token, reason)."""
    if enabled is None:
        enabled = set(RuleId)
    labels = {t.deprel for t in s.tokens}
    out: list[QuestionCandidate] = []
    for rule_id, fn in RULE_FUNCTIONS:
        targets = _TARGET_LABELS.get(rule_id)
        if rule_id in enabled and (targets is None or not labels.isdisjoint(targets)):
            out.extend(fn(s, lex, m, skipped))
    return out


def read_candidates_jsonl(path, project: str | None = None, line_of: dict | None = None):
    return read_jsonl(path, QuestionCandidate, project, line_of)
