"""Shared builders for the test suite."""

from importlib.resources import files

from karaka_qg.lexicon import SemanticCategory, SemanticLexicon
from karaka_qg.treebank_io import ParsedSentence, loads_treebank


def make_sentence(rows, sentence_id="t001") -> ParsedSentence:
    """Build one sentence from (form, lemma, upos, feats, head, deprel) rows.

    Token ids are assigned 1..n in row order, so rows can reference each
    other by position.
    """
    lines = [f"# sent_id = {sentence_id}"]
    for token_id, (form, lemma, upos, feats, head, deprel) in enumerate(rows, start=1):
        lines.append(f"{token_id}\t{form}\t{lemma}\t{upos}\t{feats}\t{head}\t{deprel}")
    return loads_treebank("\n".join(lines) + "\n")[0]


def _feats_to_str(feats: dict) -> str:
    if not feats:
        return "_"
    return "|".join(f"{k}={feats[k]}" for k in sorted(feats))


def dumps_treebank(sentences) -> str:
    """Serialize sentences into the column format the treebank reader reads."""
    blocks = []
    for s in sentences:
        lines = [f"# sent_id = {s.sentence_id}"]
        if s.raw_text is not None:
            lines.append(f"# text = {s.raw_text}")
        for t in s.tokens:
            lines.append(
                "\t".join(
                    (str(t.id), t.form, t.lemma, t.upos,
                     _feats_to_str(t.feats), str(t.head), t.deprel)
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def make_lexicon(**categories) -> SemanticLexicon:
    """Build a lexicon from lemma=CATEGORY keyword pairs."""
    entries = {lemma: SemanticCategory(cat) for lemma, cat in categories.items()}
    return SemanticLexicon(entries)


def write_ratings(path, rows) -> None:
    """Write a ratings CSV; rows are (candidate_id, annotator_id, syntax, semantic)."""
    lines = ["candidate_id,annotator_id,syntax,semantic"]
    for candidate_id, annotator_id, syntax, semantic in rows:
        lines.append(f"{candidate_id},{annotator_id},{syntax},{semantic}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bundled_corpus_text() -> str:
    """Return the packaged demonstration corpus as treebank text."""
    return (files("karaka_qg.data") / "corpus_synthetic_30.conllu").read_text("utf-8")


def load_bundled_corpus() -> list:
    return loads_treebank(bundled_corpus_text(), source="corpus_synthetic_30.conllu")


def texts(candidates) -> list:
    return [c.text for c in candidates]


def make_rated_candidate(candidate_id, karaka):
    """A minimal candidate carrying only what aggregation reads."""
    from karaka_qg.rule_engine import QuestionCandidate, RuleId

    return QuestionCandidate(
        candidate_id=candidate_id,
        sentence_id=candidate_id.split(":")[0],
        rule=RuleId.R_K1,
        karaka=karaka,
        interrogative="kaun",
        tokens=("kaun", "gaya", "?"),
        variation_group=candidate_id + ":g0",
        target_token_id=1,
    )
