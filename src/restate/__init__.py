"""restate: rewrite polar question-answer pairs into standalone statements.

The pipeline: mine constraint phrases from constituency parses, track
their satisfaction in a mention-flag matrix while decoding, and inject
the flags into the decoder's cross-attention so generation is steered
toward covering them.
"""

__version__ = "0.1.0"

from .treebank import (Constraint, InputLayout, ParseTree, concat_pqa,
                       constraint_token_rows, extract_constraints,
                       parse_bracketed, serialize)
from .similarity import HashedNgramEmbedder, SpanSimilarity
from .flags import FlagTracker, SatisfierConfig, replay_flags, trace
from .vocab import Vocabulary, tokenize
from .model import (ModelConfig, Seq2SeqModel, TrainingConfig,
                    TrainingExample, example_from_record, train)
from .decode import DecodeResult, run_decoder
from .datagen import (PQAInstance, build_corpus, generate, gold_constraints,
                      model_record, read_corpus, write_corpus)
from .evaluation import (EvalReport, bleu, build_report, corpus_rouge_l,
                         coverage_audit, rouge_l, text_table)

__all__ = [
    "Constraint", "InputLayout", "ParseTree", "concat_pqa",
    "constraint_token_rows", "extract_constraints", "parse_bracketed",
    "serialize", "HashedNgramEmbedder", "SpanSimilarity", "FlagTracker",
    "SatisfierConfig", "replay_flags", "trace", "Vocabulary", "tokenize",
    "ModelConfig", "Seq2SeqModel",
    "TrainingConfig", "TrainingExample", "example_from_record", "train",
    "DecodeResult", "run_decoder", "PQAInstance", "build_corpus", "generate",
    "gold_constraints", "model_record", "read_corpus", "write_corpus",
    "EvalReport", "bleu", "build_report", "corpus_rouge_l",
    "coverage_audit", "rouge_l", "text_table",
    "__version__",
]
