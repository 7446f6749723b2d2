"""Rule-based Hindi question generation from karaka-labeled parses."""

from .evaluation import (
    BeforeAfter,
    EvalTable,
    RatingRecord,
    RatingsError,
    RowStats,
    aggregate,
    before_after,
    load_ratings,
)
from .filters import (
    FilterConfig,
    FilterError,
    FilterId,
    FilterVerdict,
    run_filters,
)
from .lexicon import (
    LexiconError,
    SemanticCategory,
    SemanticLexicon,
    default_lexicon,
    load_lexicon,
    merge_lexicons,
)
from .morphology import (
    DEFAULT_MARKERS,
    MarkerTable,
    MarkerTableError,
    case_of,
    interrogative_spans,
    is_interrogative_form,
    load_marker_table,
    verb_gender,
    verb_number,
)
from .rule_engine import (
    QuestionCandidate,
    RuleId,
    generate_all,
    read_candidates_jsonl,
    write_candidates_jsonl,
)
from .treebank_io import (
    KARAKA_LABELS,
    ParsedSentence,
    Token,
    TreebankError,
    dumps_treebank,
    load_treebank,
    loads_treebank,
)

__version__ = "0.1.0"

__all__ = [
    "BeforeAfter",
    "DEFAULT_MARKERS",
    "EvalTable",
    "FilterConfig",
    "FilterError",
    "FilterId",
    "FilterVerdict",
    "KARAKA_LABELS",
    "LexiconError",
    "MarkerTable",
    "MarkerTableError",
    "ParsedSentence",
    "QuestionCandidate",
    "RatingRecord",
    "RatingsError",
    "RowStats",
    "RuleId",
    "SemanticCategory",
    "SemanticLexicon",
    "Token",
    "TreebankError",
    "aggregate",
    "before_after",
    "case_of",
    "default_lexicon",
    "dumps_treebank",
    "generate_all",
    "interrogative_spans",
    "is_interrogative_form",
    "load_lexicon",
    "load_marker_table",
    "load_ratings",
    "load_treebank",
    "loads_treebank",
    "merge_lexicons",
    "read_candidates_jsonl",
    "run_filters",
    "verb_gender",
    "verb_number",
    "write_candidates_jsonl",
]
