"""Coverage-guided differential fuzzing for neural-network image classifiers.

Feed a trained classifier and a handful of its own test images to the fuzzer;
it mutates each image along a joint gradient that both erodes the model's
preference for its original prediction and pushes uncovered neurons past
their activation threshold. Mutants that stay visually interchangeable with
the original keep mutating; label flips are recorded as adversarial inputs
that can be rendered, audited and folded back into training.

The package namespace holds the entry points; everything else is imported
from its submodule (architectures, coverage, fuzzer, model_io, nn, tensor,
trainer).
"""

from .architectures import build_model
from .errors import (
    ContractViolation,
    IngestError,
    ModelLoadError,
    NeuroFuzzError,
    TrainingError,
)
from .fuzzer import FuzzConfig, fuzz_corpus, read_campaign_records
from .model_io import load_mnist, load_model
from .tensor import Tensor
from .trainer import TrainConfig, retrain_with_adversarial, train

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "FuzzConfig",
    "IngestError",
    "ModelLoadError",
    "NeuroFuzzError",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "build_model",
    "fuzz_corpus",
    "load_mnist",
    "load_model",
    "read_campaign_records",
    "retrain_with_adversarial",
    "train",
]
