"""Seeded generator of long, unique karaka-labeled trees.

The trees feed the ``long_trees`` workload. Compared with the bundled
30-sentence corpus they are long (mean about 30 tokens, up to 80) and
carry the structures whose cost grows with sentence length: deep noun
phrases, r6 possessor chains, coof conjuncts, kyunki reason clauses,
pronoun subjects, raha/rahi/rahe auxiliaries, and lemmas that neither
the builtin lexicon nor the supplied one knows. A few source sentences
already hold an interrogative.

Two random streams build each tree. The shape of the trees (heads,
labels, which phrases and markers occur, how long the chains are) comes
from STRUCTURE_SEED and is the same for every seed. The words come from
the seed: nouns, verbs, genders, pronouns, adjectives and the choice
between equivalent markers. So seeds differ in content but hardly in the
work they make, and the same seed gives the same bytes.
"""

from __future__ import annotations

import random

MAX_TOKENS = 80
STRUCTURE_SEED = 0

# Lemmas the workload's --lexicon file covers, on top of the builtin one.
EXTRA_LEXICON = {
    "maali": "HUMAN", "naukar": "HUMAN", "mantri": "HUMAN", "sipaahi": "HUMAN",
    "darzi": "OCCUPATION", "kavi": "OCCUPATION",
    "nadi": "PLACE", "shahar": "PLACE", "jangal": "PLACE", "mandir": "PLACE",
    "gali": "PATH", "pagdandi": "PATH",
    "mangalvar": "DATE", "budhvar": "DATE",
    "patthar": "NONLIVING", "chaaku": "NONLIVING", "kapda": "NONLIVING",
    "gaadi": "NONLIVING", "thaila": "NONLIVING",
    "gaay": "LIVING", "ghoda": "LIVING",
    "meetha": "PROPERTY", "sundar": "PROPERTY",
}

HUMANS = ("raam", "siita", "mohan", "beta", "pita", "guru", "raja", "dost",
          "ladka", "ladki", "kisaan", "chor", "maali", "naukar", "mantri", "sipaahi")
PLACES = ("school", "bazar", "dilli", "ghar", "gaon", "nadi", "shahar", "jangal", "mandir")
PATHS = ("sadak", "pul", "rasta", "gali", "pagdandi")
DATES = ("somvar", "ravivar", "janvari", "mangalvar", "budhvar")
THINGS = ("bus", "kitaab", "saamaan", "paisa", "phal", "khilona", "mez", "kalam",
          "patthar", "chaaku", "kapda", "gaadi", "thaila")
ANIMALS = ("billi", "kutta", "gaay", "ghoda")
OCCUPATIONS = ("vakeel", "dauctar", "adhyaapak", "darzi", "kavi")
PROPERTIES = ("geela", "thanda", "lambaa", "meetha", "sundar")
ADJECTIVES = ("bada", "chota", "naya", "puraana", "achha", "laal", "kaala", "ooncha")
NUMERALS = ("ek", "do", "teen", "chaar", "paanch")
INTENSIFIERS = ("bahut", "thoda", "zyaada")
GENITIVES = ("ka", "ke", "ki")
# Pronoun subjects: (form for a bare subject, form for an ergative subject).
PRONOUNS = (("vah", "usne"), ("ve", "unhone"), ("main", "maine"), ("hum", "humne"))

TRANSITIVE = (  # past form, lemma, gender
    ("khaya", "kha", "Masc"), ("khaayi", "kha", "Fem"), ("likha", "likh", "Masc"),
    ("padhi", "padh", "Fem"), ("dekha", "dekh", "Masc"), ("kharida", "kharid", "Masc"),
    ("becha", "bech", "Masc"), ("banaayi", "bana", "Fem"), ("uthaya", "utha", "Masc"),
)
STEMS = ("kha", "likh", "padh", "dekh", "bana", "dho", "utha", "saja")
MOTION = (("gaya", "Masc", "Sing"), ("gayi", "Fem", "Sing"), ("gaye", "Masc", "Plur"),
          ("aaya", "Masc", "Sing"), ("aayi", "Fem", "Sing"), ("aaye", "Masc", "Plur"))
PROGRESSIVE = (("raha", "hai"), ("rahi", "hai"), ("rahe", "hain"),
               ("raha", "tha"), ("rahi", "thi"), ("rahe", "the"))

_ONSETS = ("b", "ch", "d", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "y")
_VOWELS = ("a", "aa", "e", "i", "o", "u")


class Node:
    """A token before ids are assigned; ``head`` is another Node or None."""

    __slots__ = ("form", "lemma", "upos", "feats", "head", "deprel")

    def __init__(self, form, lemma, upos, deprel, head=None, feats="_"):
        self.form = form
        self.lemma = lemma
        self.upos = upos
        self.deprel = deprel
        self.head = head
        self.feats = feats


class _TreeMaker:
    """``rng`` draws the shape of a tree, ``lex`` its words.

    No draw from ``rng`` depends on a word, so the shapes do not depend on
    the seed of ``lex``.
    """

    def __init__(self, rng: random.Random, lex: random.Random):
        self.rng = rng
        self.lex = lex
        # Lemmas no lexicon covers; drawn once so they recur across trees.
        self.unknown = tuple(sorted({self._coin() for _ in range(400)}))

    def _coin(self) -> str:
        lex = self.lex
        return "".join(lex.choice(_ONSETS) + lex.choice(_VOWELS) for _ in range(3))

    def noun(self, pool) -> str:
        # One noun in four is outside every lexicon.
        if self.rng.random() < 0.25:
            return self.lex.choice(self.unknown)
        return self.lex.choice(pool)

    def noun_phrase(self, pool, deprel, head, markers=(), heavy=False):
        """Surface-ordered nodes of a noun phrase attached to ``head``.

        Possessors come first as an r6 chain ("A ka B ki C"), then an
        optional numeral and adjectives, then the noun and its psp tokens.
        """
        rng, lex = self.rng, self.lex
        lemma = self.noun(pool)
        noun = Node(lemma, lemma, "NOUN", deprel, head)
        chain_p = 0.6 if heavy else 0.35
        chain = 0
        while chain < (4 if heavy else 2) and rng.random() < chain_p:
            chain += 1
        out = []
        possessed = noun
        possessors = []
        for _ in range(chain):
            lemma = self.noun(HUMANS + THINGS + PLACES)
            owner = Node(lemma, lemma, "NOUN", "r6", possessed)
            possessors.append(owner)
            possessed = owner
        for owner in reversed(possessors):
            if rng.random() < 0.3:
                adj = lex.choice(ADJECTIVES)
                out.append(Node(adj, adj, "ADJ", "nmod", owner))
            out.append(owner)
            genitive = lex.choice(GENITIVES)
            out.append(Node(genitive, genitive, "ADP", "psp", owner))
        if rng.random() < 0.2:
            num = lex.choice(NUMERALS)
            out.append(Node(num, num, "NUM", "nmod", noun))
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3) if heavy else (0, 0, 1, 1, 2))):
            form = lex.choice(ADJECTIVES)
            adj = Node(form, form, "ADJ", "nmod", noun)
            if rng.random() < 0.25:
                intf = lex.choice(INTENSIFIERS)
                out.append(Node(intf, intf, "ADV", "intf", adj))
            out.append(adj)
        out.append(noun)
        for marker in markers:
            out.append(Node(marker, marker, "ADP", "psp", noun))
        return out

    def subject(self, head, ergative: bool, heavy: bool):
        if self.rng.random() < 0.2:
            bare, erg = self.lex.choice(PRONOUNS)
            form = erg if ergative else bare
            return [Node(form, bare, "PRON", "k1", head)]
        return self.noun_phrase(HUMANS, "k1", head, ("ne",) if ergative else (), heavy)

    def verb_group(self, deprel, head):
        """The clause's verb node plus its auxiliaries, and its frame."""
        rng, lex = self.rng, self.lex
        frame = rng.choice(("erg", "erg", "prog", "prog", "motion", "copula"))
        with_feats = rng.random() < 0.5
        if frame == "erg":
            form, lemma, gender = lex.choice(TRANSITIVE)
            verb = Node(form, lemma, "VERB", deprel, head,
                        f"Gender={gender}" if with_feats else "_")
            aux = [] if rng.random() < 0.5 else [("tha" if gender == "Masc" else "thi", "thi")]
        elif frame == "prog":
            stem = lex.choice(STEMS)
            verb = Node(stem, stem, "VERB", deprel, head)
            asp, tense = lex.choice(PROGRESSIVE)
            aux = [(asp, "rah"), (tense, "hai")]
        elif frame == "motion":
            form, gender, number = lex.choice(MOTION)
            verb = Node(form, "ja" if form.startswith("g") else "aa", "VERB", deprel, head,
                        f"Gender={gender}|Number={number}" if with_feats else "_")
            aux = []
        else:
            verb = Node("hai", "hai", "VERB", deprel, head)
            aux = []
        auxiliaries = [Node(f, lem, "AUX", "aux", verb) for f, lem in aux]
        return frame, verb, auxiliaries

    def clause(self, deprel, head, main: bool, heavy: bool):
        """Surface-ordered nodes of one SOV clause and its verb node."""
        rng = self.rng
        frame, verb, auxiliaries = self.verb_group(deprel, head)
        parts = []
        if rng.random() < (0.6 if main else 0.3):
            parts += self.noun_phrase(DATES, "k7t", verb,
                                      ("ko",) if rng.random() < 0.3 else ())
        parts += self.subject(verb, frame == "erg", heavy)
        if rng.random() < (0.5 if main else 0.3):
            label = "k7s" if rng.random() < 0.8 else "k7p"
            parts += self.noun_phrase(PLACES + THINGS, label, verb,
                                      (self.lex.choice(("mein", "par")),), heavy)
        if main and rng.random() < 0.4:
            marker = ("se",) if rng.random() < 0.7 else ("ke", "dwaaraa")
            parts += self.noun_phrase(PATHS + THINGS, "k3", verb, marker, heavy)
        if main and rng.random() < 0.3:
            parts += self.noun_phrase(HUMANS + THINGS, "rt", verb, ("ke", "liye"), heavy)
        if frame == "motion" or (main and rng.random() < 0.15):
            if rng.random() < 0.5:
                parts += self.noun_phrase(PLACES + HUMANS, "k5", verb, ("se",), heavy)
        if frame == "motion":
            parts += self.noun_phrase(PLACES, "k2p", verb,
                                      ("ko",) if rng.random() < 0.3 else (), heavy)
        elif frame == "copula":
            if rng.random() < 0.5:
                parts += self.noun_phrase(OCCUPATIONS, "k1s", verb)
            else:
                adj = self.noun(PROPERTIES)
                parts.append(Node(adj, adj, "ADJ", "k1s", verb))
        else:
            if rng.random() < 0.3:
                parts += self.noun_phrase(HUMANS, "k2", verb, ("ko",), heavy)
            else:
                parts += self.noun_phrase(THINGS + ANIMALS, "k2", verb, (), heavy)
        return parts + [verb] + auxiliaries, verb

    def sentence(self):
        rng = self.rng
        heavy = rng.random() < 0.25
        nodes, root = self.clause("root", None, main=True, heavy=heavy)
        if rng.random() < 0.03:
            nodes.insert(0, Node("kya", "kya", "PART", "intf", root))
        if rng.random() < (0.5 if heavy else 0.35):
            because = Node("kyunki", "kyunki", "SCONJ", "rh", root)
            sub, _ = self.clause("ccof", because, main=False, heavy=heavy)
            nodes += [because] + sub
        if rng.random() < (0.5 if heavy else 0.3):
            conj = Node("aur", "aur", "CCONJ", "coof", root)
            sub, _ = self.clause("ccof", conj, main=False, heavy=heavy)
            nodes += [conj] + sub
        if rng.random() < 0.9:
            nodes.append(Node("।", "।", "PUNCT", "punct", root))
        return nodes


def _rows(nodes) -> list[str]:
    ids = {id(n): i for i, n in enumerate(nodes, start=1)}
    return [
        "\t".join((str(i), n.form, n.lemma, n.upos, n.feats,
                   str(ids[id(n.head)] if n.head is not None else 0), n.deprel))
        for i, n in enumerate(nodes, start=1)
    ]


def generate(seed: int, sentences: int) -> tuple[str, dict]:
    """Treebank text of ``sentences`` unique trees, and the realised shape."""
    maker = _TreeMaker(random.Random(STRUCTURE_SEED), random.Random(seed))
    seen = set()
    blocks = []
    lengths = []
    with_coof = 0
    while len(blocks) < sentences:
        shape_state = maker.rng.getstate()
        nodes = maker.sentence()
        if len(nodes) > MAX_TOKENS:
            continue
        forms = tuple(n.form for n in nodes)
        while forms in seen:  # same shape, other words
            maker.rng.setstate(shape_state)
            nodes = maker.sentence()
            forms = tuple(n.form for n in nodes)
        seen.add(forms)
        sid = f"t{seed}-{len(blocks) + 1:05d}"
        blocks.append("\n".join([f"# sent_id = {sid}", f"# text = {' '.join(forms)}"]
                                + _rows(nodes)))
        lengths.append(len(nodes))
        with_coof += any(n.deprel == "coof" for n in nodes)
    shape = {
        "sentences": sentences,
        "tokens": sum(lengths),
        "mean_len": sum(lengths) / max(sentences, 1),
        "max_len": max(lengths, default=0),
        "coof_share": with_coof / max(sentences, 1),
    }
    return "\n\n".join(blocks) + "\n", shape


def lexicon_tsv() -> str:
    """The --lexicon file of the workload: it covers EXTRA_LEXICON only."""
    lines = ["# lemma<TAB>CATEGORY for the long_trees workload"]
    lines += [f"{lemma}\t{cat}" for lemma, cat in sorted(EXTRA_LEXICON.items())]
    return "\n".join(lines) + "\n"
