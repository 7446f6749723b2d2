"""Randomized and exhaustive properties. The whole module stays under 10s."""

import json
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from helpers import load_bundled_corpus, make_rated_candidate
from karaka_qg.evaluation import RatingRecord, aggregate, before_after
from karaka_qg.filters import FilterConfig, FilterId, FilterVerdict, run_filters
from karaka_qg.lexicon import SemanticCategory, SemanticLexicon, default_lexicon
from karaka_qg.morphology import MarkerTable, interrogative_spans
from karaka_qg.rule_engine import QuestionCandidate, RuleId, generate_all
from karaka_qg.treebank_io import ParsedSentence, Token, dumps_treebank, loads_treebank

EMPTY = SemanticLexicon()

word = st.text(
    alphabet=st.characters(categories=("Ll", "Lu", "Lo"), include_characters="-_."),
    min_size=1,
    max_size=8,
)
feat_dicts = st.dictionaries(
    st.sampled_from(["Gender", "Number", "Tense"]),
    st.sampled_from(["Masc", "Fem", "Sing", "Plur", "Past"]),
    max_size=2,
)


@st.composite
def random_sentences(draw):
    """Random single-root acyclic trees over a wide unicode vocabulary."""
    n = draw(st.integers(min_value=1, max_value=8))
    tokens = []
    for token_id in range(1, n + 1):
        head = 0 if token_id == 1 else draw(st.integers(min_value=1, max_value=token_id - 1))
        deprel = "root" if head == 0 else draw(
            st.sampled_from(["k1", "k2", "k7t", "psp", "mod", "aux", "punct"])
        )
        tokens.append(Token(
            id=token_id,
            form=draw(word),
            lemma=draw(word),
            upos=draw(st.sampled_from(["NOUN", "PROPN", "VERB", "ADP", "PRON", "ADJ"])),
            feats=draw(feat_dicts),
            head=head,
            deprel=deprel,
        ))
    raw_text = draw(st.none() | word)
    return ParsedSentence("p001", tuple(tokens), raw_text)


@settings(max_examples=60, deadline=None)
@given(sentence=random_sentences())
def test_treebank_round_trip(sentence):
    dumped = dumps_treebank([sentence])
    assert loads_treebank(dumped) == [sentence]
    assert dumps_treebank(loads_treebank(dumped)) == dumped


WORD_POOL = ("alpha", "beta", "gamma", "delta", "sigma")


@st.composite
def simple_clauses(draw):
    """Flat verb-final clauses: optional time and object, optional markers."""
    time_word, agent, patient = draw(st.permutations(WORD_POOL))[:3]
    has_time = draw(st.booleans())
    ergative = draw(st.booleans())
    has_object = draw(st.booleans())
    accusative = has_object and draw(st.booleans())
    punct = draw(st.sampled_from([None, "।", "."]))

    rows = []  # (form, deprel, head symbol), resolved once ids are known
    if has_time:
        rows.append((time_word, "k7t", "verb"))
    rows.append((agent, "k1", "verb"))
    agent_slot = len(rows)
    if ergative:
        rows.append(("ne", "psp", agent_slot))
    if has_object:
        rows.append((patient, "k2", "verb"))
        if accusative:
            rows.append(("ko", "psp", len(rows)))
    rows.append(("kha", "root", 0))
    verb_slot = len(rows)
    if punct is not None:
        rows.append((punct, "punct", "verb"))

    lines = ["# sent_id = q001"]
    for token_id, (form, deprel, head) in enumerate(rows, start=1):
        head_id = verb_slot if head == "verb" else head
        lines.append(f"{token_id}\t{form}\t{form}\tX\t_\t{head_id}\t{deprel}")
    return loads_treebank("\n".join(lines) + "\n")[0]


@settings(max_examples=60, deadline=None)
@given(sentence=simple_clauses())
def test_candidate_token_accounting(sentence):
    source = Counter(t.form for t in sentence.tokens)
    terminal = sentence.tokens[-1].form if sentence.tokens[-1].deprel == "punct" else None
    for c in generate_all(sentence, EMPTY):
        assert c.tokens[-1] == "?"
        expected = source.copy()
        for token_id in sentence.subtree_ids(c.target_token_id):
            expected[sentence.token(token_id).form] -= 1
        if terminal is not None:
            expected[terminal] -= 1
        expected.update(c.interrogative.split(" "))
        expected.update(["?"])
        assert Counter(c.tokens) == +expected


@settings(max_examples=60, deadline=None)
@given(sentence=simple_clauses())
def test_exactly_one_interrogative_span(sentence):
    for c in generate_all(sentence, EMPTY):
        assert len(interrogative_spans(list(c.tokens))) == 1


@settings(max_examples=60, deadline=None)
@given(sentence=simple_clauses())
def test_variation_group_members_differ_only_in_the_span(sentence):
    groups = defaultdict(list)
    for c in generate_all(sentence, EMPTY):
        groups[c.variation_group].append(c)
    for members in groups.values():
        remainders = []
        for c in members:
            start, end = interrogative_spans(list(c.tokens))[0]
            remainders.append(c.tokens[:start] + c.tokens[end:])
        assert len(set(remainders)) == 1


def reference_interrogative_spans(forms, inventory):
    """The matcher as first written: every phrase, longest first, at every position."""
    phrases = sorted((item.split(" ") for item in inventory), key=len, reverse=True)
    forms = list(forms)
    spans = []
    i = 0
    while i < len(forms):
        hit = 0
        for phrase in phrases:
            if forms[i:i + len(phrase)] == phrase:
                hit = len(phrase)
                break
        if hit:
            spans.append((i, i + hit))
            i += hit
        else:
            i += 1
    return spans


# Items sharing a first token, so the longest-first order inside one
# first token decides the match.
SPAN_ITEMS = ("kis", "kis din", "kis mein", "kis din se", "kisse", "kisse hokar",
              "kaun", "kaun si", "kya", "din", "hokar", "", "kis ", " kya")
span_items = st.sampled_from(SPAN_ITEMS) | word


@settings(max_examples=300, deadline=None)
@given(
    inventory=st.frozensets(span_items, max_size=10),
    # Forms are whole items cut into tokens, so multi-word items and
    # their prefixes line up often.
    chunks=st.lists(span_items, max_size=8),
)
def test_compiled_interrogative_spans_equal_the_reference(inventory, chunks):
    forms = [form for chunk in chunks for form in chunk.split(" ")]
    table = MarkerTable(interrogatives=inventory)
    assert interrogative_spans(forms, table) == reference_interrogative_spans(forms, inventory)


NOUN_POOL = ("ghar", "saamaan", "kitaab", "mohan", "darwaaza")


@st.composite
def possessive_trees(draw):
    """Verb-final trees whose nouns chain through r6 possessors, each with a psp marker."""
    n = draw(st.integers(min_value=1, max_value=6))
    # Noun i hangs off the verb (None) or, as an r6 possessor, off an earlier noun.
    heads = [None] + [draw(st.sampled_from([None, *range(i)])) for i in range(1, n)]
    layout = []  # possessors before what they possess, each followed by its marker
    for node in reversed(range(n)):
        layout.append(("noun", node))
        if heads[node] is not None:
            layout.append(("psp", node))
    token_ids = {entry: i for i, entry in enumerate(layout, start=1)}
    verb_id = len(layout) + 1
    lines = ["# sent_id = q001"]
    for token_id, (kind, node) in enumerate(layout, start=1):
        if kind == "psp":
            marker = draw(st.sampled_from(["ka", "ke", "ki", "ko"]))
            lines.append(f"{token_id}\t{marker}\t{marker}\tADP\t_\t{token_ids['noun', node]}\tpsp")
            continue
        if heads[node] is None:
            head, deprel = verb_id, draw(st.sampled_from(["k1", "k2", "k7p"]))
        else:
            head, deprel = token_ids["noun", heads[node]], "r6"
        lemma = draw(st.sampled_from(NOUN_POOL))
        lines.append(f"{token_id}\t{lemma}\t{lemma}\tNOUN\t_\t{head}\t{deprel}")
    lines.append(f"{verb_id}\tgaya\tja\tVERB\t_\t0\troot")
    return loads_treebank("\n".join(lines) + "\n")[0]


@settings(max_examples=60, deadline=None)
@given(sentence=possessive_trees())
def test_candidate_ids_are_unique(sentence):
    everything_nonliving = SemanticLexicon(
        {t.lemma: SemanticCategory.NONLIVING for t in sentence.tokens}
    )
    ids = [c.candidate_id for c in generate_all(sentence, everything_nonliving)]
    assert len(ids) == len(set(ids))


def corpus_candidates():
    sentences = load_bundled_corpus()
    lexicon = default_lexicon()
    candidates = [c for s in sentences for c in generate_all(s, lexicon)]
    return sentences, candidates


def test_disabling_filters_is_monotone_over_all_subsets():
    sentences, candidates = corpus_candidates()
    filter_ids = list(FilterId)
    kept_by_mask = {}
    for mask in range(1 << len(filter_ids)):
        enabled = frozenset(f for i, f in enumerate(filter_ids) if mask >> i & 1)
        kept, verdicts = run_filters(candidates, sentences, FilterConfig(enabled=enabled))
        assert len(verdicts) == len(candidates)
        kept_by_mask[mask] = {c.candidate_id for c in kept}
    assert kept_by_mask[0] == {c.candidate_id for c in candidates}
    for small in kept_by_mask:
        for large in kept_by_mask:
            if small & large == small:
                assert kept_by_mask[large] <= kept_by_mask[small]


def test_raising_theta_never_drops_more():
    sentences, candidates = corpus_candidates()
    previous = None
    for theta in range(1, 10):
        kept, _ = run_filters(candidates, sentences, FilterConfig(theta=theta))
        ids = {c.candidate_id for c in kept}
        if previous is not None:
            assert previous <= ids
        previous = ids


RATED = [
    make_rated_candidate("c1", "k1"),
    make_rated_candidate("c2", "k1"),
    make_rated_candidate("c3", "k2"),
    make_rated_candidate("c4", "k2"),
    make_rated_candidate("c5", "k7t"),
    make_rated_candidate("c6", "k7t"),
]

rating_rows = st.lists(
    st.tuples(
        st.sampled_from([c.candidate_id for c in RATED]),
        st.sampled_from(["a1", "a2", "a3"]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    unique_by=lambda row: (row[0], row[1]),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(rows=rating_rows, rng=st.randoms(use_true_random=False))
def test_aggregation_is_permutation_invariant(rows, rng):
    ratings = [RatingRecord(*row) for row in rows]
    shuffled = ratings[:]
    rng.shuffle(shuffled)
    assert aggregate(shuffled, RATED) == aggregate(ratings, RATED)

    verdicts = [
        FilterVerdict(c.candidate_id, i % 2 == 0, None if i % 2 == 0 else FilterId.F_ANAPHORA)
        for i, c in enumerate(RATED)
    ]
    assert before_after(shuffled, RATED, verdicts) == before_after(ratings, RATED, verdicts)


# Characters that json.dumps(..., ensure_ascii=False) escapes or passes
# through unusually: quotes, backslashes, control characters, U+2028, lone
# surrogates and characters outside the BMP, beside plain ones. A sampled
# alphabet keeps 200 examples well inside the module's time budget.
json_text = st.text(st.sampled_from(
    'a \u0915"\\/\x00\x08\t\n\r\x1f\x7f\x85\u2028\u2029'
    '\ud800\udbff\udc00\udfff\U0001f600\U0010ffff'
), max_size=6)
json_texts = st.lists(json_text, max_size=3).map(tuple)


@st.composite
def json_records(draw):
    """A QuestionCandidate and a FilterVerdict, any field text, every id."""
    candidate = QuestionCandidate(
        candidate_id=draw(json_text), sentence_id=draw(json_text),
        rule=draw(st.sampled_from(RuleId)), karaka=draw(json_text),
        interrogative=draw(json_text), tokens=draw(json_texts),
        variation_group=draw(json_text), target_token_id=draw(st.integers()),
        notes=draw(json_texts),
    )
    dropped_by = draw(st.none() | st.sampled_from(FilterId))
    verdict = FilterVerdict(draw(json_text), dropped_by is None, dropped_by, draw(json_text))
    return candidate, verdict


@settings(max_examples=200, deadline=None)
@given(records=json_records())
def test_json_line_equals_json_dumps_and_reads_back(records):
    for record in records:
        line = record.to_json_line()
        assert line == json.dumps(record.to_json_dict(), ensure_ascii=False)
        assert type(record).from_json_dict(json.loads(line)) == record
