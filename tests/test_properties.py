"""Randomized and exhaustive properties. The whole module stays under 10s."""

import json
import re
import statistics
from collections import Counter, defaultdict

from hypothesis import example, given, settings, strategies as st

from helpers import dumps_treebank, load_bundled_corpus, make_rated_candidate, write_ratings
from karaka_qg.evaluation import (
    RatingRecord,
    RatingsError,
    aggregate,
    before_after,
    evaluate_ratings,
    load_ratings,
)
from karaka_qg.filters import (
    FilterConfig,
    FilterId,
    FilterVerdict,
    read_verdicts_jsonl,
    run_filters,
)
from karaka_qg.lexicon import (
    LexiconError,
    SemanticCategory,
    SemanticLexicon,
    default_lexicon,
    load_lexicon,
)
from karaka_qg.morphology import (
    DEFAULT_MARKERS,
    GENITIVE_INTERROGATIVES,
    MarkerTable,
    MarkerTableError,
    case_marker_tokens,
    case_of,
    interrogative_spans,
    load_marker_table,
)
from karaka_qg.rule_engine import (
    RULE_FUNCTIONS,
    QuestionCandidate,
    RuleId,
    _build_tokens,
    _candidate,
    _unknown_note,
    generate_all,
    read_candidates_jsonl,
)
from karaka_qg.textfile import (
    _JSON_NAMES,
    JsonlError,
    _decode_json_line,
    open_utf8,
    read_jsonl,
)
from karaka_qg.treebank_io import (
    Token,
    TreebankError,
    build_sentence,
    load_treebank,
    loads_treebank,
)

EMPTY = SemanticLexicon()
RULE = dict(RULE_FUNCTIONS)

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
    return build_sentence("p001", tokens, raw_text)


@settings(max_examples=60, deadline=None)
@given(sentence=random_sentences())
def test_treebank_round_trip(sentence):
    dumped = dumps_treebank([sentence])
    assert loads_treebank(dumped) == [sentence]
    assert dumps_treebank(loads_treebank(dumped)) == dumped


WORD_POOL = ("alpha", "beta", "gamma", "delta", "sigma")


@st.composite
def simple_clauses(draw):
    """Flat verb-final clauses: optional time and object, optional markers,
    optional terminal punctuation."""
    time_word, agent, patient = draw(st.permutations(WORD_POOL))[:3]
    has_time = draw(st.booleans())
    ergative = draw(st.booleans())
    has_object = draw(st.booleans())
    accusative = has_object and draw(st.booleans())
    punct = draw(st.sampled_from([None, "।", ".", "?", "!"]))

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


@settings(max_examples=40, deadline=None)
@given(sentence=simple_clauses())
def test_every_candidate_ends_in_one_question_mark(sentence):
    for c in generate_all(sentence, EMPTY):
        assert c.tokens[-1] == "?" and c.tokens.count("?") == 1
        assert not {"।", ".", "|", "!"} & set(c.tokens)


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


def reference_gen_k5(s, lex, m):
    """R_K5 as coded before it became a SUBSTITUTIONS row."""
    out = []
    for target in [t for t in s.children(s.main_verb().id) if t.deprel == "k5"]:
        if case_of(s, target.id, m) != "se":
            continue
        marker_ids = {t.id for t in case_marker_tokens(s, target.id, m)}
        keep_marker = s.subtree_ids(target.id) - marker_ids
        cat = lex.lookup(target.lemma)
        if cat is SemanticCategory.PLACE:
            variants = [("kahan", 0, False, ()), ("kidhar", 0, False, ())]
        elif cat is SemanticCategory.UNKNOWN:
            note = _unknown_note(target.lemma)
            variants = [("kisse", 0, True, note),
                        ("kahan", 1, False, note), ("kidhar", 1, False, note)]
        else:
            variants = [("kisse", 0, True, ())]
        for index, (wh, group, drop_marker, notes) in enumerate(variants):
            delete = s.subtree_ids(target.id) if drop_marker else keep_marker
            tokens = _build_tokens(s, delete, target.id, [wh])
            out.append(_candidate(s, RuleId.R_K5, target, index, group, "k5", wh, tokens, notes))
    return out


def reference_gen_r6(s, lex, m):
    """R_R6 as coded before it became a SUBSTITUTIONS row."""
    out = []
    for target in [t for t in s.tokens if t.deprel == "r6"]:
        marker = case_of(s, target.id, m)
        if marker is None or marker not in m.genitive:
            continue
        try:
            wh = GENITIVE_INTERROGATIVES[marker]
        except KeyError:
            continue
        tokens = _build_tokens(s, s.subtree_ids(target.id), target.id, wh.split(" "))
        out.append(_candidate(s, RuleId.R_R6, target, 0, 0, "r6", wh, tokens))
    return out


@st.composite
def source_trees(draw):
    """Verb-final clauses of nouns, some with a modifier, most with a marker
    (se, a genitive or ko); k5 nouns hang off the verb or off an earlier noun."""
    rows = []  # (form, deprel, head id or None for the verb)
    nouns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            rows.append(("bada", "nmod", len(rows) + 2))
        head = draw(st.sampled_from([None, None, *nouns]))
        deprel = draw(st.sampled_from(["k5", "r6", "k1"]))
        rows.append((draw(st.sampled_from(NOUN_POOL)), deprel, head))
        nouns.append(len(rows))
        marker = draw(st.sampled_from(["se", "ka", "ki", "ko", None]))
        if marker is not None:
            rows.append((marker, "psp", len(rows)))
    verb_id = len(rows) + 1
    lines = ["# sent_id = q001"]
    for token_id, (form, deprel, head) in enumerate(rows, start=1):
        lines.append(f"{token_id}\t{form}\t{form}\tX\t_\t{head or verb_id}\t{deprel}")
    lines.append(f"{verb_id}\tbhaagaa\tbhaag\tVERB\t_\t0\troot")
    return loads_treebank("\n".join(lines) + "\n")[0]


# Marker tables that override gen and ins, among them ones that move ka out
# of gen, to ins or loc, or give gen a marker no interrogative matches.
marker_tables = st.builds(
    lambda gen, ins, loc: DEFAULT_MARKERS._replace(genitive=frozenset(gen),
                                                   instrumental=frozenset(ins),
                                                   locative=DEFAULT_MARKERS.locative | {loc}),
    st.sampled_from([("ka", "ke", "ki"), ("ke", "ki"), ("kaa", "ki"), ("ka", "kaa"), ()]),
    st.sampled_from([("se", "ke dwaaraa"), ("se", "ka"), ("se",), ("ke dwaaraa", "ka")]),
    st.sampled_from(["mein", "ka"]),
)


@settings(max_examples=60, deadline=None)
@given(sentences=st.tuples(source_trees(), possessive_trees()),
       categories=st.lists(st.sampled_from(SemanticCategory), min_size=len(NOUN_POOL)),
       markers=marker_tables)
def test_k5_and_r6_rows_equal_the_coded_rules(sentences, categories, markers):
    # Every noun unknown, every noun a place, and a random category per noun.
    lexicons = (EMPTY, SemanticLexicon(dict.fromkeys(NOUN_POOL, SemanticCategory.PLACE)),
                SemanticLexicon(dict(zip(NOUN_POOL, categories))))
    for s in sentences:
        for lex in lexicons:
            assert RULE[RuleId.R_K5](s, lex, markers) == reference_gen_k5(s, lex, markers)
            assert RULE[RuleId.R_R6](s, lex, markers) == reference_gen_r6(s, lex, markers)


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


def check_json_types(fields, json_types: dict) -> None:
    """Raise TypeError unless fields is a JSON object whose fields have the
    types json_types names, each one type or a tuple of them. A list must
    hold strings. Types must match exactly, so true is not an integer."""
    if type(fields) is not dict:
        raise TypeError(f"expected a JSON object, got {json.dumps(fields, ensure_ascii=False)}")
    for name, kind in json_types.items():
        if name not in fields:
            continue
        value = fields[name]
        if type(value) is kind or (type(kind) is tuple and type(value) in kind):
            if kind is not list:
                continue
            try:
                "".join(value)  # raises TypeError unless every item is a string
                continue
            except TypeError:
                pass
        kinds = kind if type(kind) is tuple else (kind,)
        raise TypeError(f"field {name!r} must be {' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                        f"got {json.dumps(value, ensure_ascii=False)}")


def reference_read_jsonl(path, record_type) -> list:
    """The JSONL reader decoding each line with json.loads, checking every
    record for lone surrogates."""
    records = []
    first_line_of = {}
    with open_utf8(path, JsonlError) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                fields = json.loads(line)
                check_json_types(fields, record_type.JSON_TYPES)
                record = record_type.from_json_dict(fields)
            except KeyError as exc:
                raise JsonlError(f"{where}: missing field {exc}") from None
            except (ValueError, TypeError, RecursionError) as exc:
                raise JsonlError(f"{where}: {exc}") from None
            try:
                record.to_json_line().encode("utf-8")
            except UnicodeEncodeError as exc:
                raise JsonlError(f"{where}: lone surrogate {exc.object[exc.start]!r} "
                                 "is not text") from None
            if record.candidate_id in first_line_of:
                raise JsonlError(
                    f"{where}: duplicate candidate_id {record.candidate_id!r}, "
                    f"first used at {path}:{first_line_of[record.candidate_id]}"
                )
            first_line_of[record.candidate_id] = line_no
            records.append(record)
    return records


def outcome(read, *args):
    """What a reader returns, or the text of the JsonlError it raises."""
    try:
        return read(*args)
    except JsonlError as exc:
        return "error", str(exc)


# Characters that JSON, str.strip and text-mode line splitting treat
# specially, beside plain ones.
HOSTILE = ' \t\n\r\x0b\x0c\x1c\x85\u2028\ufeff{}[]":,\\/0159-+.eEtrufalsnNI\u0915'
hostile_text = st.text(st.sampled_from(HOSTILE), max_size=12)
# Space that is JSON's, or only str.strip's, or a byte order mark.
padding = st.sampled_from([' ', '\t\r', '\x0c', ' \x1c', '\u2028', '\ufeff'])


@st.composite
def mutated(draw, texts):
    """A text as it is, cut, with hostile text inserted, or with space around it."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["keep", "insert", "cut", "before", "after", "after-line"]))
    if how == "insert":
        return text[:at] + draw(hostile_text) + text[at:]
    if how == "cut":
        return text[:at] + text[at + draw(st.integers(1, 4)):]
    if how == "before":
        return draw(padding) + text
    if how != "keep":
        text += draw(padding) + ("\n" if how == "after-line" else "")
    return text


# JSON texts whose decoding takes each branch of the scanner: objects,
# arrays, strings with escapes, numbers the float parser or int() treats
# specially, and the constants.
JSON_VALUES = ('{"a": [1, -2.5e3, null, true, false]}', '[]', '{}', '"\\u0915\\ud800\\n"',
               '1e999', '-0', '0123', 'NaN', '-Infinity', '[{"k": {}}]', '"\\"', '1' * 5000)


@settings(max_examples=200, deadline=None)
@given(line=mutated(st.sampled_from(JSON_VALUES)) | hostile_text)
def test_scanner_decode_equals_json_loads(line):
    def decoded(decode):
        try:
            return "value", repr(decode(line))
        except (ValueError, RecursionError) as exc:
            return type(exc), str(exc)

    assert decoded(_decode_json_line) == decoded(json.loads)


# Candidates and verdicts, plain and with text that JSON escapes, lone
# surrogates among it; each as written and ASCII-escaped.
JSONL_RECORDS = (
    QuestionCandidate("c1", "s1", RuleId.R_K2, "k2", "kya", ("kya", "?"), "c1:g0", 2),
    QuestionCandidate('c"2\\', "s\u2028", RuleId.R_R6, "\ud800", "\x00",
                      ("\U0001f600", "\udc80"), "g", -7, ("\n",)),
    FilterVerdict("c1", True),
    FilterVerdict("c\udfff", False, FilterId.F_ANAPHORA, 'd\n"'),
)
JSONL_LINES = tuple(json.dumps(r.to_json_dict(), ensure_ascii=escaped)
                    for r in JSONL_RECORDS for escaped in (True, False))


@st.composite
def jsonl_files(draw):
    line = st.sampled_from(JSONL_LINES)
    lines = draw(st.lists(line | mutated(line) | hostile_text, min_size=1, max_size=4))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), lines[0])
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(text=jsonl_files(), record_type=st.sampled_from([QuestionCandidate, FilterVerdict]))
def test_scanner_reader_equals_the_json_loads_reader(tmp_path_factory, text, record_type):
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    # Unescaped lone surrogates become bytes that are not UTF-8.
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    assert (outcome(read_jsonl, path, record_type)
            == outcome(reference_read_jsonl, path, record_type))


@settings(max_examples=40, deadline=None)
@given(text=jsonl_files(), read=st.sampled_from([(QuestionCandidate, "karaka"),
                                                 (FilterVerdict, "kept")]))
@example(text=JSONL_LINES[2], read=(QuestionCandidate, "karaka"))  # an escaped lone surrogate
def test_projected_reader_equals_the_records_it_skips(tmp_path_factory, text, read):
    record_type, project = read
    path = tmp_path_factory.getbasetemp() / "projected.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))

    def from_records(path, record_type):
        return {r.candidate_id: getattr(r, project) for r in read_jsonl(path, record_type)}

    assert (outcome(read_jsonl, path, record_type, project)
            == outcome(from_records, path, record_type))


def reference_aggregate(ratings, candidates):
    """aggregate as first written: candidates by id, then ratings per group."""
    by_id = {c.candidate_id: c for c in candidates}
    for r in ratings:
        if r.candidate_id not in by_id:
            raise RatingsError(f"rating references unknown candidate_id {r.candidate_id!r}")
    groups = {}
    for c in candidates:
        group = groups.setdefault(c.karaka, {"ids": set(), "syntax": [], "semantic": []})
        group["ids"].add(c.candidate_id)
    for r in ratings:
        group = groups[by_id[r.candidate_id].karaka]
        group["syntax"].append(r.syntax)
        group["semantic"].append(r.semantic)

    def row(ids, syntax, semantic):
        return (statistics.fmean(syntax) if syntax else None,
                statistics.median_low(syntax) if syntax else None,
                statistics.fmean(semantic) if semantic else None,
                statistics.median_low(semantic) if semantic else None, len(ids))

    rows = {k: row(g["ids"], g["syntax"], g["semantic"]) for k, g in groups.items()}
    totals = row({c.candidate_id for c in candidates},
                 [r.syntax for r in ratings], [r.semantic for r in ratings])
    return rows, totals


def reference_before_after(ratings, candidates, verdicts):
    """before_after as first written: two filtered passes over the ratings per split."""
    ids = {c.candidate_id for c in candidates}
    for r in ratings:
        if r.candidate_id not in ids:
            raise RatingsError(f"rating references unknown candidate_id {r.candidate_id!r}")
    verdict_map = {v.candidate_id: v for v in verdicts}
    missing = [c.candidate_id for c in candidates if c.candidate_id not in verdict_map]
    if missing:
        raise RatingsError(f"no filter verdict for candidate {missing[0]!r} "
                           f"({len(missing)} candidates uncovered)")
    kept_ids = {cid for cid in ids if verdict_map[cid].kept}

    def split(split_ids):
        syntax = [r.syntax for r in ratings if r.candidate_id in split_ids]
        semantic = [r.semantic for r in ratings if r.candidate_id in split_ids]
        return (statistics.fmean(syntax) if syntax else None,
                statistics.fmean(semantic) if semantic else None, len(split_ids))

    return split(ids), split(kept_ids)


EVAL_IDS = ("c1", "c2", "c3", "c4", "c5", "c6")


@st.composite
def eval_inputs(draw):
    """Candidates over karakas in and outside KARAKA_ORDER (a repeated id may
    change karaka), ratings that rarely name an unknown id, and verdicts that
    may miss a candidate or cover ids no candidate has."""
    karakas = st.sampled_from(["k1", "k2", "k7t", "r6", "aaa", "zzz"])
    candidates = [make_rated_candidate(cid, draw(karakas))
                  for cid in draw(st.lists(st.sampled_from(EVAL_IDS[:5]), max_size=8))]
    rated = [c.candidate_id for c in candidates] * 9 + ["c6"]
    ratings = [RatingRecord(*row) for row in draw(st.lists(st.tuples(
        st.sampled_from(rated), st.sampled_from(["a1", "a2"]),
        st.integers(1, 5), st.integers(1, 5)), max_size=12))]
    verdicts = [FilterVerdict(cid, kept, None if kept else FilterId.F_WORD_ORDER)
                for cid, kept in draw(st.lists(st.tuples(st.sampled_from(EVAL_IDS),
                                                         st.booleans()), max_size=9))]
    if draw(st.integers(0, 3)):  # cover every candidate; the drawn verdicts come later and win
        verdicts[:0] = [FilterVerdict(c.candidate_id, True) for c in candidates]
    return ratings, candidates, verdicts


def result_or_error(compute):
    try:
        return compute()
    except RatingsError as exc:
        return "error", str(exc)


def reference_file_faults(path, ratings, candidates):
    """Raise the first fault of a ratings file in file order: a repeated
    (candidate, annotator) pair or a candidate_id no candidate has."""
    ids = {c.candidate_id for c in candidates}
    first_line = {}
    for line, r in enumerate(ratings, start=2):
        key = (r.candidate_id, r.annotator_id)
        if key in first_line:
            raise RatingsError(f"{path}:{line}: duplicate rating for candidate {key[0]!r} "
                               f"by annotator {key[1]!r}, first used at {path}:{first_line[key]}")
        first_line[key] = line
        if r.candidate_id not in ids:
            raise RatingsError(f"{path}:{line}: rating references unknown "
                               f"candidate_id {r.candidate_id!r}")


@settings(max_examples=60, deadline=None)
@given(inputs=eval_inputs())
def test_one_pass_aggregation_equals_the_two_pass_reference(tmp_path_factory, inputs):
    ratings, candidates, verdicts = inputs

    def table():
        t = aggregate(ratings, candidates)
        return ([(k, tuple(r)) for k, r in t.rows.items()], tuple(t.totals))

    def reference_table():
        rows, totals = reference_aggregate(ratings, candidates)
        return list(rows.items()), totals

    def split():
        ba = before_after(ratings, candidates, verdicts)
        return tuple(ba.before), tuple(ba.after)

    assert result_or_error(table) == result_or_error(reference_table)
    assert result_or_error(split) == result_or_error(
        lambda: reference_before_after(ratings, candidates, verdicts))

    # The same fold over a ratings file, with the maps eval reads, where each
    # id is one candidate: the last record of a repeated id.
    unique = list({c.candidate_id: c for c in candidates}.values())
    path = tmp_path_factory.getbasetemp() / "eval-ratings.csv"
    write_ratings(path, [tuple(r) for r in ratings])
    karaka_of = {c.candidate_id: c.karaka for c in unique}
    kept_of = {v.candidate_id: v.kept for v in verdicts}

    def file_table():
        t, ba = evaluate_ratings(path, karaka_of)
        assert ba is None
        return [(k, tuple(r)) for k, r in t.rows.items()], tuple(t.totals)

    def reference_file_table():
        reference_file_faults(path, ratings, unique)
        rows, totals = reference_aggregate(ratings, unique)
        return list(rows.items()), totals

    def file_split():
        t, ba = evaluate_ratings(path, karaka_of, kept_of)
        return ([(k, tuple(r)) for k, r in t.rows.items()], tuple(t.totals),
                tuple(ba.before), tuple(ba.after))

    def reference_file_split():
        rows, totals = reference_file_table()
        return (rows, totals, *reference_before_after(ratings, unique, verdicts))

    assert result_or_error(file_table) == result_or_error(reference_file_table)
    assert result_or_error(file_split) == result_or_error(reference_file_split)


RATINGS_HEADER = b"candidate_id,annotator_id,syntax,semantic\n"
CSV_PIECES = (RATINGS_HEADER, b"c1,a1,5,4\n", b"c2,a2,3,1\r\n", b"c1,a1,2,2\n", b",", b'"',
              b"\x00", b"\r", b"\n", b" 5", b"06", b"x", b"\xff", b"\xe0\xa4", b"\xef\xbb\xbf")


def spliced(pieces):
    """Byte strings that are mostly pieces of a valid file, with stray bytes spliced in."""
    return st.lists(st.sampled_from(pieces) | st.binary(max_size=3), max_size=8).map(b"".join)


CANDIDATE = QuestionCandidate("c1", "s1", RuleId.R_K2, "k2", "kya", ("kya", "?"), "c1:g0", 2)
JSONL_PIECES = (
    CANDIDATE.to_json_line().encode() + b"\n",
    FilterVerdict("c1", False, FilterId.F_ANAPHORA, "d").to_json_line().encode() + b"\n",
    json.dumps({**CANDIDATE.to_json_dict(), "karaka": "\udc80"}).encode() + b"\n",
    b"{", b"}", b'"', b"\\ud800", b" ", b"\n", b"\xff", b"[", b"1e999",
)


def check_faults_come_from_the_top(read, path, data, exc, cut):
    """The error names a line of path, and given cut, the file cut to the
    lines before that one reads without error: each fault comes from the top."""
    named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
    assert named, str(exc)
    if cut:
        # Bytes split lines where text mode does: at \n, \r and \r\n.
        path.write_bytes(b"".join(data.splitlines(keepends=True)[:int(named[1]) - 1]))
        read(path)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=40) | spliced(CSV_PIECES) | spliced(JSONL_PIECES),
       reader=st.sampled_from([(load_ratings, RatingsError),
                               (read_candidates_jsonl, JsonlError),
                               (read_verdicts_jsonl, JsonlError)]))
def test_eval_readers_parse_any_bytes_or_name_the_line(tmp_path_factory, data, reader):
    read, error = reader
    path = tmp_path_factory.getbasetemp() / "input.bin"
    path.write_bytes(data)
    try:
        records = read(path)
    except error as exc:
        # A quoted CSV field may span lines, so a cut could split its row.
        check_faults_come_from_the_top(read, path, data, exc, cut=read is not load_ratings)
        return
    for record in records:
        if read is load_ratings:
            (record.candidate_id + record.annotator_id).encode("utf-8")
            assert 1 <= record.syntax <= 5 and 1 <= record.semantic <= 5
        else:
            record.to_json_line().encode("utf-8")


# Treebank rows and two-column table rows, valid and broken, with the bytes
# that split lines or columns, start comments, or are not UTF-8.
TREEBANK_PIECES = (b"# sent_id = d1\n", b"# text = orphan\n", b"1\traam\traam\tPROPN\tGender=Masc\t2\tk1\n",
                   b"2\tgaya\tja\tVERB\t_\t0\troot\n", b"3\tne\tne\tADP\t_\t1\tpsp\n", b"\n", b"\t",
                   b"#", b"=", b"|", b"0", b"2", b"\r", b"\xff", b"\xe0\xa4", b"\xef\xbb\xbf")
TABLE_PIECES = (b"ghar\tPLACE\n", b"gen\tkaa\n", b"wh\tkaun si\n", b"# note\n", b"\t", b"\n", b" ",
                b"#", b"erg", b"PLACE", b"\r", b"\xff", b"\xe0\xa4", b"\xef\xbb\xbf")


# Each reader with its error, over bytes shaped like its own input.
table_inputs = st.one_of(*(
    st.tuples(st.just(read), st.just(error), st.binary(max_size=40) | spliced(pieces))
    for read, error, pieces in ((load_treebank, TreebankError, TREEBANK_PIECES),
                                (load_lexicon, LexiconError, TABLE_PIECES),
                                (load_marker_table, MarkerTableError, TABLE_PIECES))
))


@settings(max_examples=60, deadline=None)
@given(table_inputs)
@example((load_treebank, TreebankError, b"# text = orphan\n"))
@example((load_lexicon, LexiconError, b"raam\n\xff\n"))  # line 1's fault before line 2's byte
def test_table_readers_parse_any_bytes_or_name_the_line(tmp_path_factory, table_input):
    read, error, data = table_input
    path = tmp_path_factory.getbasetemp() / "table.bin"
    path.write_bytes(data)
    try:
        read(path)
    except error as exc:
        # A cut could split a sentence block, whose faults come once it is whole.
        check_faults_come_from_the_top(read, path, data, exc, cut=read is not load_treebank)
