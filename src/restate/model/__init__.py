"""Numpy encoder-decoder with flag-conditioned cross-attention."""

from .nn import ShapeMismatch
from .training import (Adam, NonFiniteLoss, TrainingConfig, TrainingExample,
                       assemble_batch, example_from_record, train)
from .transformer import (CheckpointMismatch, CheckpointVersionMismatch,
                          LengthOverflow, ModelConfig, NonFiniteLogProbs,
                          Seq2SeqModel, Workers, build_flag_matrix_batch)

__all__ = [
    "Adam",
    "CheckpointMismatch",
    "CheckpointVersionMismatch",
    "LengthOverflow",
    "ModelConfig",
    "NonFiniteLogProbs",
    "NonFiniteLoss",
    "Seq2SeqModel",
    "ShapeMismatch",
    "TrainingConfig",
    "TrainingExample",
    "Workers",
    "assemble_batch",
    "build_flag_matrix_batch",
    "example_from_record",
    "train",
]
