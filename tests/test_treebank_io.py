"""Tests for the treebank column format reader, and round trips through the
test-side writer in ``helpers``."""

import re
import sys
from itertools import product
from pathlib import Path

import pytest

import karaka_qg
from helpers import dumps_treebank, make_sentence
from karaka_qg.evaluation import RatingsError, load_ratings
from karaka_qg.filters import run_filters
from karaka_qg.lexicon import SemanticLexicon
from karaka_qg.rule_engine import generate_all, read_candidates_jsonl
from karaka_qg.textfile import JsonlError
from karaka_qg.treebank_io import (
    TreebankError,
    load_treebank,
    loads_treebank,
)

SAMPLE = """\
# sent_id = d001
# text = raam ghar gaya
1\traam\traam\tPROPN\tGender=Masc|Number=Sing\t3\tk1
2\tghar\tghar\tNOUN\t_\t3\tk2p
3\tgaya\tja\tVERB\t_\t0\troot

1\tbilli\tbilli\tNOUN\t_\t2\tk1
2\tbhaagi\tbhaag\tVERB\t_\t0\troot
"""


def test_loads_comments_tokens_and_feats():
    sentences = loads_treebank(SAMPLE)
    assert len(sentences) == 2
    first = sentences[0]
    assert first.sentence_id == "d001"
    assert first.raw_text == "raam ghar gaya"
    assert [t.form for t in first.tokens] == ["raam", "ghar", "gaya"]
    assert first.tokens[0].feats == {"Gender": "Masc", "Number": "Sing"}
    assert first.tokens[1].feats == {}
    assert first.tokens[2].head == 0
    assert first.tokens[2].deprel == "root"


def test_blocks_without_sent_id_get_sequential_ids():
    sentences = loads_treebank(SAMPLE)
    assert sentences[1].sentence_id == "s002"
    assert sentences[1].raw_text is None


def test_comment_block_without_metadata_is_skipped_and_takes_no_positional_id():
    text = "# just a note\n# another\n\n1\tgaya\tja\tVERB\t_\t0\troot\n"
    assert [s.sentence_id for s in loads_treebank(text)] == ["s001"]


def test_round_trip_preserves_sentences():
    sentences = loads_treebank(SAMPLE)
    dumped = dumps_treebank(sentences)
    assert loads_treebank(dumped) == sentences
    assert dumps_treebank(loads_treebank(dumped)) == dumped


def test_dump_writes_text_comment_only_when_present():
    sentences = loads_treebank(SAMPLE)
    dumped = dumps_treebank(sentences)
    assert "# sent_id = d001" in dumped
    assert "# sent_id = s002" in dumped
    assert dumped.count("# text =") == 1


def test_file_round_trip(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(SAMPLE, encoding="utf-8")
    sentences = load_treebank(src)
    out = tmp_path / "out.conllu"
    out.write_text(dumps_treebank(sentences), encoding="utf-8")
    assert load_treebank(out) == sentences


def test_devanagari_forms_survive_round_trip(tmp_path):
    text = "1\tराम\tराम\tPROPN\t_\t2\tk1\n2\tगया\tजा\tVERB\t_\t0\troot\n"
    path = tmp_path / "hi.conllu"
    path.write_text(text, encoding="utf-8")
    sentences = load_treebank(path)
    assert sentences[0].tokens[0].form == "राम"
    assert load_treebank(path) == loads_treebank(dumps_treebank(sentences))


def test_wrong_column_count_names_source_and_line(tmp_path):
    path = tmp_path / "bad.conllu"
    path.write_text("1\traam\traam\tPROPN\t_\t0\n", encoding="utf-8")
    with pytest.raises(TreebankError, match="bad.conllu:1: expected 7 tab-separated columns, got 6"):
        load_treebank(path)


def test_non_integer_id_or_head_rejected():
    with pytest.raises(TreebankError, match="ID and HEAD must be integers"):
        loads_treebank("one\traam\traam\tPROPN\t_\t0\troot\n", source="x")


def test_empty_form_rejected():
    with pytest.raises(TreebankError, match="empty FORM or DEPREL"):
        loads_treebank("1\t\traam\tPROPN\t_\t0\troot\n")


def test_bad_feats_item_rejected():
    with pytest.raises(TreebankError, match="bad FEATS item 'Masc'"):
        loads_treebank("1\traam\traam\tPROPN\tMasc\t0\troot\n")


@pytest.mark.parametrize("feats, item", [("=Masc|Gender=Fem", "=Masc"), ("Gender=", "Gender="),
                                         ("Gender=Masc|=", "=")])
def test_empty_feats_key_or_value_rejected(feats, item):
    # A dict would hold the empty part, and dumps_treebank would write it back.
    with pytest.raises(TreebankError, match=rf"^x:2: bad FEATS item {re.escape(repr(item))}$"):
        loads_treebank(f"# sent_id = f1\n1\tw\tw\tX\t{feats}\t0\troot\n", source="x")


def test_repeated_feats_key_rejected():
    # A dict would keep the last value and write back only that one.
    text = "# sent_id = f1\n1\traam\traam\tPROPN\tGender=Masc|Number=Sing|Gender=Fem\t0\troot\n"
    with pytest.raises(TreebankError, match=r"^x:2: repeated FEATS key 'Gender'$"):
        loads_treebank(text, source="x")


def test_metadata_without_tokens_rejected():
    with pytest.raises(TreebankError, match="^<string>:1: sentence metadata without token lines$"):
        loads_treebank("# sent_id = d009\n\n")
    with pytest.raises(TreebankError, match="^<string>:3: sentence metadata without token lines$"):
        loads_treebank("\n\n# text = orphan\n")


def test_empty_sent_id_rejected_with_its_line():
    text = SAMPLE.replace("# sent_id = d001", "# sent_id =")
    with pytest.raises(TreebankError, match=r"^x:1: empty sent_id$"):
        loads_treebank(text, source="x")


def test_string_splits_lines_as_a_file_does(tmp_path):
    # str.splitlines would also break at U+2028, U+0085 and form feed.
    text = (
        "# sent_id = u001\n"
        "1\tra\u2028m\traam\tPROPN\t_\t3\tk1\r\n"
        "2\tgh\x85ar\tghar\tNOUN\t_\t3\tk2p\n"
        "3\tga\x0cya\tja\tVERB\t_\t0\troot\n"
    )
    path = tmp_path / "u.conllu"
    path.write_text(text, encoding="utf-8", newline="")
    sentences = load_treebank(path)
    assert [t.form for t in sentences[0].tokens] == ["ra\u2028m", "gh\x85ar", "ga\x0cya"]
    assert load_treebank(path) == loads_treebank(text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_names_its_line_as_text_mode_counts_it(tmp_path, newline):
    path = tmp_path / "bad.conllu"
    rows = ["# sent_id = a", "1\traam\traam\tPROPN\t_\t2\tk1", "2\tgaya\tja\tVERB\t_\t0\troot",
            "", "# sent_id = b", "1\tgay\xffa\tja\tVERB\t_\t0\troot"]
    path.write_bytes(newline.join(rows).encode("latin-1"))
    with pytest.raises(TreebankError, match=rf"^{re.escape(str(path))}:6: not valid UTF-8$"):
        load_treebank(path)


def test_a_fault_on_line_2_comes_before_a_bad_byte_later_in_its_block(tmp_path):
    path = tmp_path / "bad.conllu"
    path.write_bytes(b"# sent_id = a\n1\traam\n2\tgay\xff\tja\tVERB\t_\t0\troot\n")
    with pytest.raises(TreebankError, match=rf"^{re.escape(str(path))}:2: expected 7 "
                                            r"tab-separated columns, got 2$"):
        load_treebank(path)


@pytest.mark.parametrize("read, error, text", [
    (load_treebank, TreebankError, SAMPLE),
    (load_treebank, TreebankError, SAMPLE.split("\n", 2)[2]),  # a token line first
    (load_ratings, RatingsError, "candidate_id,annotator_id,syntax,semantic\nc1,a1,5,4\n"),
    (read_candidates_jsonl, JsonlError, '{"candidate_id": "c1"}\n'),
], ids=["treebank", "treebank-token-line-first", "ratings", "candidates"])
def test_byte_order_mark_is_an_input_error_at_line_one(tmp_path, read, error, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8-sig")
    with pytest.raises(error, match=rf"^{re.escape(str(path))}:1: file starts with a byte order "
                                    "mark; save it without one$"):
        read(path)


def test_duplicate_sent_id_names_both_lines():
    text = SAMPLE.replace("1\tbilli", "# sent_id = d001\n1\tbilli")
    with pytest.raises(TreebankError, match=(
            r"^dup\.conllu:7: duplicate sent_id 'd001', first used at dup\.conllu:1$")):
        loads_treebank(text, source="dup.conllu")


@pytest.mark.parametrize("text, message", [
    ("1\tw\tw\tX\t_\t0\troot\n# sent_id = late\n",
     "x:2: sent_id after the sentence's first token line, x:1; metadata comes first"),
    ("# sent_id = a\n# sent_id = b\n1\tw\tw\tX\t_\t0\troot\n",
     "x:2: second sent_id in one sentence, first given at x:1"),
    ("# sent_id = a\n1\tw\tw\tX\t_\t0\troot\n# sent_id = b\n",
     "x:3: sent_id after the sentence's first token line, x:2; metadata comes first"),
    # The token line is checked before the late sent_id is read, under the positional id.
    ("1\tw\tw\tX\t_\t1\tk1\n# sent_id = a\n", "x:1: sentence s001: self-loop at token 1"),
], ids=["after-a-token", "second-in-a-block", "after-a-token-and-a-sent-id",
        "self-loop-before-it"])
def test_sent_id_after_a_token_line_or_another_sent_id_rejected(text, message):
    with pytest.raises(TreebankError, match=f"^{re.escape(message)}$"):
        loads_treebank(text, source="x")


@pytest.mark.parametrize("text, message", [
    ("1\tw\tw\tX\t_\t0\troot\n# text = late\n",
     "x:2: text after the sentence's first token line, x:1; metadata comes first"),
    ("# text = a\n# text = b\n1\tw\tw\tX\t_\t0\troot\n",
     "x:2: second text in one sentence, first given at x:1"),
    ("# sent_id = a\n1\tw\tw\tX\t_\t0\troot\n# text = late\n",
     "x:3: text after the sentence's first token line, x:2; metadata comes first"),
], ids=["after-a-token", "second-in-a-block", "after-a-token-and-a-sent-id"])
def test_text_after_a_token_line_or_another_text_rejected(text, message):
    with pytest.raises(TreebankError, match=f"^{re.escape(message)}$"):
        loads_treebank(text, source="x")


def test_positional_id_clashing_with_explicit_one_rejected():
    # The second block has no sent_id and would be numbered s002, which
    # the first block already claims; the repeat is named by its first token.
    text = SAMPLE.replace("# sent_id = d001", "# sent_id = s002")
    with pytest.raises(TreebankError, match=(
            r"^x:7: duplicate sent_id 's002', first used at x:1$")):
        loads_treebank(text, source="x")


def test_self_loop_rejected():
    rows = [
        ("raam", "raam", "PROPN", "_", 3, "k1"),
        ("ghar", "ghar", "NOUN", "_", 3, "k2p"),
        ("gaya", "ja", "VERB", "_", 3, "root"),
    ]
    with pytest.raises(TreebankError, match="self-loop at token 3"):
        make_sentence(rows)


def test_head_outside_range_rejected():
    with pytest.raises(TreebankError, match=r"head 9 outside 1\.\.2"):
        make_sentence([
            ("raam", "raam", "PROPN", "_", 9, "k1"),
            ("gaya", "ja", "VERB", "_", 0, "root"),
        ])


def test_exactly_one_root_required():
    with pytest.raises(TreebankError, match="expected exactly one root, found 2"):
        make_sentence([
            ("raam", "raam", "PROPN", "_", 0, "k1"),
            ("gaya", "ja", "VERB", "_", 0, "root"),
        ])
    with pytest.raises(TreebankError, match="expected exactly one root, found 0"):
        make_sentence([
            ("raam", "raam", "PROPN", "_", 2, "k1"),
            ("gaya", "ja", "VERB", "_", 1, "root"),
        ])


def test_cycle_between_non_root_tokens_rejected():
    with pytest.raises(TreebankError, match="cyclic head chain"):
        make_sentence([
            ("gaya", "ja", "VERB", "_", 0, "root"),
            ("raam", "raam", "PROPN", "_", 3, "k1"),
            ("ne", "ne", "ADP", "_", 2, "psp"),
        ])


def test_non_contiguous_ids_rejected():
    text = "1\traam\traam\tPROPN\t_\t3\tk1\n3\tgaya\tja\tVERB\t_\t0\troot\n"
    with pytest.raises(TreebankError, match="token ids not contiguous"):
        loads_treebank(text)


def tree_row(token_id, head):
    return f"{token_id}\tw\tw\tNOUN\t_\t{head}\tk1\n"


@pytest.mark.parametrize("block, line, message", [
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(3, 1), 7,
     "sentence b: token ids not contiguous from 1 (found id 3 at position 2)"),
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(2, 2), 7, "sentence b: self-loop at token 2"),
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(2, 9), 7,
     "sentence b: token 2 has head 9 outside 1..2"),
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(2, 0), 5,
     "sentence b: expected exactly one root, found 2"),
    (tree_row(1, 2) + tree_row(2, 1), 5, "sentence s002: expected exactly one root, found 0"),
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(2, 3) + tree_row(3, 2), 7,
     "sentence b: cyclic head chain at token 2"),
    ("# sent_id = b\n" + tree_row(1, 0) + tree_row(2, 3) + tree_row(3, 4) + tree_row(4, 3), 7,
     "sentence b: cyclic head chain at token 2"),
], ids=["ids", "self-loop", "head-outside", "two-roots-id-line", "no-root-first-token", "cycle",
        "chain-into-a-cycle"])
def test_tree_error_names_the_offending_line(block, line, message):
    text = "# sent_id = a\n" + tree_row(1, 2) + tree_row(2, 0) + "\n" + block
    with pytest.raises(TreebankError, match=rf"^x:{line}: {re.escape(message)}$"):
        loads_treebank(text, source="x")


def walk_up_fault(heads):
    """The fault in a tree of tokens 1..n with these in-range heads, as (token, message),
    token 0 standing for the line naming the sentence, or None: found by walking up
    from every token, as the loader once did."""
    roots = heads.count(0)
    if roots != 1:
        return 0, f"expected exactly one root, found {roots}"
    for tok in range(1, len(heads) + 1):
        seen = set()
        cur = tok
        while cur != 0:
            if cur in seen:
                return tok, f"cyclic head chain at token {tok}"
            seen.add(cur)
            cur = heads[cur - 1]
    return None


def every_head_array(max_tokens):
    for n in range(1, max_tokens + 1):
        choices = [[h for h in range(n + 1) if h != tok] for tok in range(1, n + 1)]
        yield from product(*choices)


def test_tree_checks_match_an_upward_walk_on_every_small_head_array():
    checked = 0
    for heads in every_head_array(5):
        text = "# sent_id = b\n" + "".join(tree_row(i, h) for i, h in enumerate(heads, 1))
        fault = walk_up_fault(heads)
        if fault is None:
            [s] = loads_treebank(text, source="x")
            assert s.main_verb().id == heads.index(0) + 1
            for tok in range(len(heads) + 1):
                assert [t.id for t in s.children(tok)] == [
                    i for i, h in enumerate(heads, 1) if h == tok]
            assert s.subtree_ids(s.main_verb().id) == set(range(1, len(heads) + 1))
        else:
            tok, message = fault
            with pytest.raises(TreebankError, match=rf"^x:{tok + 1}: sentence b: "
                                                    rf"{re.escape(message)}$"):
                loads_treebank(text, source="x")
        checked += 1
    assert checked == 3413


# A fault that one line shows is named at that line, before a later line's column count.
@pytest.mark.parametrize("text, message", [
    ("# sent_id = a\n1\tgaya\tja\tVERB\t_\t0\troot\n\n"
     "# sent_id = a\n1\tgaya\tja\tVERB\t_\t0\troot\n2\tbad\n",
     "x:4: duplicate sent_id 'a', first used at x:1"),
    ("# sent_id = a\n1\traam\traam\tPROPN\t_\t2\tk1\n5\tgaya\tja\tVERB\t_\t0\troot\n3\tbad\n",
     "x:3: sentence a: token ids not contiguous from 1 (found id 5 at position 2)"),
    ("# sent_id = a\n1\traam\traam\tPROPN\t_\t1\tk1\n2\tgaya\tja\tVERB\t_\t0\troot\n3\tbad\n",
     "x:2: sentence a: self-loop at token 1"),
], ids=["duplicate-sent-id", "token-id", "self-loop"])
def test_a_line_fault_comes_before_a_later_lines_fault(text, message):
    with pytest.raises(TreebankError, match=rf"^{re.escape(message)}$"):
        loads_treebank(text, source="x")


def test_token_lookup_by_id():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 2, "k1"),
        ("gaya", "ja", "VERB", "_", 0, "root"),
    ])
    assert s.token(1).form == "raam"
    with pytest.raises(TreebankError, match="no token with id 9"):
        s.token(9)


def test_main_verb_children_and_subtree():
    s = make_sentence([
        ("raam", "raam", "PROPN", "_", 5, "k1"),
        ("ne", "ne", "ADP", "_", 1, "psp"),
        ("lal", "lal", "ADJ", "_", 4, "mod"),
        ("seb", "seb", "NOUN", "_", 5, "k2"),
        ("khaya", "kha", "VERB", "_", 0, "root"),
    ])
    assert s.main_verb().form == "khaya"
    assert [t.form for t in s.children(5)] == ["raam", "seb"]
    assert s.subtree_ids(4) == {3, 4}
    assert s.subtree_ids(5) == {1, 2, 3, 4, 5}


def chain_treebank(n):
    """A verb, its k2, then an nmod chain: n tokens, each from the k2 on heading the next."""
    rows = ["1\tkhaya\tkha\tVERB\t_\t0\troot", "2\tseb\tseb\tNOUN\t_\t1\tk2"]
    rows += [f"{i}\tlal\tlal\tNOUN\t_\t{i - 1}\tnmod" for i in range(3, n + 1)]
    return "\n".join(rows) + "\n"


def package_line_events(text):
    """Line events in karaka_qg's frames while one treebank is loaded, generated and filtered."""
    package = str(Path(karaka_qg.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        sentences = loads_treebank(text)
        candidates = [c for s in sentences for c in generate_all(s, SemanticLexicon())]
        run_filters(candidates, sentences)
    finally:
        sys.settrace(previous)
    assert candidates
    return count


def test_tree_work_is_linear_in_sentence_length():
    # Counted, not timed: four times the tokens must cost about four times the lines run.
    # A scan over every token per token (children, the cycle walk) gives about sixteen.
    ratio = package_line_events(chain_treebank(800)) / package_line_events(chain_treebank(200))
    assert ratio < 6, ratio


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_treebank(tmp_path / "absent.conllu")
