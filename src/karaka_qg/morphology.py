"""Case markers, interrogative inventory, and small agreement helpers.

Marker sets are plain data so a table in another script (for example
Devanagari) can be swapped in from a TSV file. Matching is always exact
string comparison against token forms; nothing is transliterated.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .textfile import InputError, read_pairs
from .treebank_io import PSP, ParsedSentence

# Builtin genitive postposition to possessive interrogative. The interrogative
# inherits the gender/number suffix of the marker it replaces.
GENITIVE_INTERROGATIVES = {"ka": "kiska", "ke": "kiske", "ki": "kiski"}

# Progressive auxiliary endings: the FEATS each betrays when the verb itself
# carries none, and the ending's feminine form.
PROGRESSIVE_AUX = {
    "raha": ({"Gender": "Masc", "Number": "Sing"}, "rahi"),
    "rahi": ({"Gender": "Fem", "Number": "Sing"}, "rahi"),
    "rahe": ({"Gender": "Masc", "Number": "Plur"}, "rahi"),
}

_ROLE_FIELDS = {
    "erg": "ergative",
    "acc": "accusative",
    "ins": "instrumental",
    "gen": "genitive",
    "loc": "locative",
    "ben": "benefactive",
    "because": "because",
    "wh": "interrogatives",
}


class MarkerTableError(InputError):
    """Raised for malformed marker table files."""


class MarkerTable(NamedTuple):
    ergative: frozenset = frozenset({"ne"})
    accusative: frozenset = frozenset({"ko"})
    instrumental: frozenset = frozenset({"se", "ke dwaaraa"})
    genitive: frozenset = frozenset(GENITIVE_INTERROGATIVES)
    locative: frozenset = frozenset({"mein", "par"})
    benefactive: frozenset = frozenset({"ke liye"})
    because: frozenset = frozenset({"kyunki"})
    interrogatives: frozenset = frozenset({
        "kaun", "kisne", "kisko", "kya", "kidhar", "kahan",
        "kisse", "kiske dwaaraa", "kisse hokar", "kiske liye", "kyon",
        "kiska", "kiske", "kiski", "kaun si",
        "kis mein", "kis par", "kab", "kis din", "konse din", "kaisa",
    })

    @cache
    def case_markers(self) -> frozenset:
        """Every postposition that flips a noun into oblique case; worked out once per table."""
        return (self.ergative | self.accusative | self.instrumental
                | self.genitive | self.locative | self.benefactive)


DEFAULT_MARKERS = MarkerTable()


def load_marker_table(path) -> MarkerTable:
    """Read ``role<TAB>form`` rows; roles present replace their defaults."""
    by_field: dict[str, set] = {}
    for where, role, form in read_pairs(path, MarkerTableError):
        if role not in _ROLE_FIELDS:
            raise MarkerTableError(f"{where}: unknown role {role!r}")
        if not form:
            raise MarkerTableError(f"{where}: empty form")
        if "" in form.split(" "):
            raise MarkerTableError(f"{where}: form {form!r} has an empty word; one space separates words")
        by_field.setdefault(_ROLE_FIELDS[role], set()).add(form)
    return DEFAULT_MARKERS._replace(**{name: frozenset(forms) for name, forms in by_field.items()})


def case_of(s: ParsedSentence, token_id: int, m: MarkerTable) -> tuple[str | None, list]:
    """The noun's case marker and the psp child tokens realizing it, or
    (None, []) for direct case.

    Multi-token postpositions ("ke dwaaraa", "ke liye") must appear as
    adjacent psp children; longer matches win over shorter ones.
    """
    psp_children = [t for t in s.children(token_id) if t.deprel == PSP]
    if not psp_children:
        return None, []
    markers = m.case_markers()
    # Group psp children into runs of adjacent token ids.
    runs = [[psp_children[0]]]
    for tok in psp_children[1:]:
        if tok.id == runs[-1][-1].id + 1:
            runs[-1].append(tok)
        else:
            runs.append([tok])
    for run in runs:
        for length in range(len(run), 0, -1):
            for start in range(len(run) - length + 1):
                window = run[start:start + length]
                phrase = " ".join(t.form for t in window)
                if phrase in markers:
                    return phrase, window
    return None, []


def verb_agreement(s: ParsedSentence, verb_id: int) -> tuple[str | None, str | None, dict]:
    """The verb's (gender, number, feminine): each feature is its FEATS value,
    else the one the first progressive ending among the verb and its children
    betrays, else None; feminine maps each progressive token's id to its feminine form."""
    verb = s.token(verb_id)
    aux = [t for t in (verb,) + s.children(verb_id) if t.form in PROGRESSIVE_AUX]
    # FEATS values are never empty (the reader rejects them), so a merge keeps FEATS first.
    feats = PROGRESSIVE_AUX[aux[0].form][0] | verb.feats if aux else verb.feats
    return feats.get("Gender"), feats.get("Number"), {t.id: PROGRESSIVE_AUX[t.form][1] for t in aux}


@cache
def _phrases_by_first_token(interrogatives: frozenset) -> dict:
    """Each inventory item split into a token tuple, keyed by its first
    token, longest first. One entry per inventory, so a marker table with
    its own interrogatives gets its own."""
    by_first: dict[str, list] = {}
    for item in interrogatives:
        phrase = tuple(item.split(" "))
        by_first.setdefault(phrase[0], []).append(phrase)
    return {first: tuple(sorted(phrases, key=len, reverse=True))
            for first, phrases in by_first.items()}


def interrogative_spans(forms, m: MarkerTable = DEFAULT_MARKERS) -> list[tuple[int, int]]:
    """Disjoint (start, end) spans of inventory items in a form sequence.

    Multi-word inventory items are matched as token subsequences; at each
    position the longest match wins, so "kaun si" is one span, not "kaun"
    plus a stray token. Only positions whose form starts an item are tried,
    and a start inside the previous span is skipped.
    """
    phrases_at = _phrases_by_first_token(m.interrogatives)
    forms = tuple(forms)
    spans = []
    end = 0
    for i in [i for i, form in enumerate(forms) if form in phrases_at]:
        if i < end:
            continue
        for phrase in phrases_at[forms[i]]:
            if forms[i:i + len(phrase)] == phrase:
                end = i + len(phrase)
                spans.append((i, end))
                break
    return spans
