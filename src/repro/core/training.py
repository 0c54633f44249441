"""Training loops and cross-validation for the PnP model.

The paper validates with leave-one-out cross-validation at the *application*
level: all regions of one benchmark form the validation fold while the
remaining applications form the training set, which tests generalisation to
entirely unseen code.  A grouped k-fold variant is provided for the fast
experiment profile (several applications per fold), trading a little fidelity
for a large reduction in training time.

:func:`train_model` reshuffles the samples every epoch, and
:func:`predict_labels` scores the validation samples through the compiled
inference program that serving runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import LabeledSample
from repro.core.model import PnPModel
from repro.nn import functional as F
from repro.nn import precision
from repro.nn.data import GraphDataLoader, collate_graphs
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam, AdamW, Optimizer, SGD
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

__all__ = [
    "TrainingConfig",
    "TrainingHistory",
    "train_model",
    "predict_labels",
    "LeaveOneApplicationOut",
    "GroupedApplicationKFold",
    "run_cross_validation",
]

_LOG = get_logger("core.training")


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyperparameters (Table II defaults)."""

    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 1e-3
    optimizer: str = "adamw"       # "adamw" (amsgrad) for scenario 1, "adam" for EDP
    weight_decay: float = 1e-4
    amsgrad: bool = True
    seed: int = 0
    log_every: int = 0             # 0 disables epoch logging
    #: Train at this precision ("float32"/"float64"); ``None`` keeps the
    #: model's own dtype.  A non-None value casts the model in place before
    #: the first step (gradients, optimizer state and updates then all run
    #: at that precision).
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adamw", "adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.dtype is not None:
            object.__setattr__(self, "dtype", precision.resolve_dtype(self.dtype).name)


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy trace returned by :func:`train_model`."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def _make_optimizer(parameters, config: TrainingConfig) -> Optimizer:
    if config.optimizer == "adamw":
        return AdamW(
            parameters,
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
            amsgrad=config.amsgrad,
        )
    if config.optimizer == "adam":
        return Adam(parameters, lr=config.learning_rate, amsgrad=config.amsgrad)
    return SGD(parameters, lr=config.learning_rate, momentum=0.9)


def train_model(
    model: PnPModel,
    samples: Sequence[LabeledSample],
    config: TrainingConfig,
    parameters=None,
) -> TrainingHistory:
    """Train ``model`` on ``samples``; returns the loss/accuracy history.

    Parameters
    ----------
    model, samples, config:
        The model, the labelled dataset and the optimisation hyperparameters.
    parameters:
        Parameter subset to optimise (defaults to all parameters).  The
        transfer-learning experiment passes only the dense-head parameters.
    """
    if not samples:
        raise ValueError("cannot train on an empty dataset")
    if config.dtype is not None:
        # Cast before the optimizer captures the parameter list so moment
        # buffers are created from same-precision gradients.
        model.astype(config.dtype)
    graph_samples = [s.sample for s in samples]
    loader = GraphDataLoader(
        graph_samples,
        batch_size=config.batch_size,
        shuffle=True,
        rng=new_rng(config.seed, "training/shuffle"),
    )
    loss_fn = CrossEntropyLoss()
    optimizer = _make_optimizer(
        list(parameters) if parameters is not None else model.parameters(), config
    )

    history = TrainingHistory()
    model.train()
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        correct = 0
        seen = 0
        for batch in loader:
            optimizer.zero_grad()
            logits = model(batch)
            # Samples that carry near-optimal target distributions train
            # against them (soft cross-entropy); accuracy still scores the
            # hard argmin label.
            if batch.target_distributions is not None:
                loss = F.soft_cross_entropy(logits, batch.target_distributions)
            else:
                loss = loss_fn(logits, batch.labels)
            loss.backward()
            optimizer.step()

            epoch_loss += loss.item() * batch.num_graphs
            predictions = np.argmax(logits.data, axis=1)
            correct += int(np.sum(predictions == batch.labels))
            seen += batch.num_graphs
        history.losses.append(epoch_loss / seen)
        history.accuracies.append(correct / seen)
        if config.log_every and (epoch + 1) % config.log_every == 0:
            _LOG.info(
                "epoch %d/%d loss=%.4f acc=%.3f",
                epoch + 1,
                config.epochs,
                history.losses[-1],
                history.accuracies[-1],
            )
    model.eval()
    return history


def predict_labels(
    model: PnPModel,
    samples: Sequence[LabeledSample],
    batch_size: int = 32,
) -> np.ndarray:
    """Predicted class index for every sample (in input order).

    Runs the compiled :class:`~repro.nn.inference.InferenceProgram` of
    ``model`` (``model.compile_inference()``), the runtime serving uses;
    at float64 its labels are bit-identical to the ``Module`` forward's.
    Inference is split into the two model stages: each *unique* graph
    (deduplicated by region id) is encoded once by the GNN, then every sample
    — one per (graph, auxiliary-feature) candidate — goes through the dense
    head only.  The performance scenario has one sample per (region, power
    cap), so this avoids re-encoding each region's graph once per cap.
    """
    samples = list(samples)
    if not samples:
        return np.empty(0, dtype=np.int64)

    # Group samples by graph identity (region id; anonymous graphs are kept
    # distinct), preserving first-appearance order.  Samples sharing a region
    # id must wrap the same graph — true for any DatasetBuilder output, and
    # checked here so mixed-origin sample lists fail loudly instead of
    # silently reusing the wrong embedding.
    row_of_key: Dict[object, int] = {}
    unique_samples: List[LabeledSample] = []
    sample_rows = np.empty(len(samples), dtype=np.int64)
    for position, labeled in enumerate(samples):
        key: object = labeled.sample.region_id or ("__anonymous__", position)
        row = row_of_key.get(key)
        if row is None:
            row = len(unique_samples)
            row_of_key[key] = row
            unique_samples.append(labeled)
        else:
            first = unique_samples[row].sample
            if not (
                np.array_equal(first.token_ids, labeled.sample.token_ids)
                and np.array_equal(first.node_types, labeled.sample.node_types)
                and np.array_equal(first.edge_index, labeled.sample.edge_index)
                and np.array_equal(first.edge_type, labeled.sample.edge_type)
            ):
                raise ValueError(
                    f"samples with region id {labeled.sample.region_id!r} wrap "
                    "different graphs; predict_labels deduplicates encodings by "
                    "region id and cannot mix graph variants under one id"
                )
        sample_rows[position] = row

    program = model.compile_inference()
    pooled_rows: List[np.ndarray] = []
    for start in range(0, len(unique_samples), batch_size):
        chunk = unique_samples[start : start + batch_size]
        batch = collate_graphs([s.sample for s in chunk])
        pooled_rows.append(program.encode_pooled(batch))
    pooled = np.concatenate(pooled_rows, axis=0)[sample_rows]

    has_aux = samples[0].sample.aux_features is not None
    if any((s.sample.aux_features is not None) != has_aux for s in samples):
        raise ValueError("all samples must consistently have or lack aux_features")
    aux = np.stack([s.sample.aux_features for s in samples]) if has_aux else None
    return program.predict_from_pooled(pooled, aux)


# --------------------------------------------------------------------- folds
class LeaveOneApplicationOut:
    """LOOCV splitter at application granularity (the paper's protocol)."""

    def split(
        self, samples: Sequence[LabeledSample]
    ) -> Iterator[Tuple[str, List[LabeledSample], List[LabeledSample]]]:
        """Yield ``(held_out_application, train_samples, validation_samples)``."""
        applications = sorted({s.application for s in samples})
        for application in applications:
            train = [s for s in samples if s.application != application]
            validation = [s for s in samples if s.application == application]
            yield application, train, validation

    def num_folds(self, samples: Sequence[LabeledSample]) -> int:
        return len({s.application for s in samples})


class GroupedApplicationKFold:
    """Fold several applications together (fast profile).

    Applications are dealt round-robin into ``k`` folds after sorting, so the
    assignment is deterministic and every fold mixes PolyBench and proxy
    applications.
    """

    def __init__(self, k: int = 6) -> None:
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = k

    def split(
        self, samples: Sequence[LabeledSample]
    ) -> Iterator[Tuple[str, List[LabeledSample], List[LabeledSample]]]:
        applications = sorted({s.application for s in samples})
        folds: List[List[str]] = [applications[i :: self.k] for i in range(self.k)]
        for index, fold_apps in enumerate(folds):
            if not fold_apps:
                continue
            fold_set = set(fold_apps)
            train = [s for s in samples if s.application not in fold_set]
            validation = [s for s in samples if s.application in fold_set]
            yield f"fold{index}", train, validation

    def num_folds(self, samples: Sequence[LabeledSample]) -> int:
        return min(self.k, len({s.application for s in samples}))


def run_cross_validation(
    samples: Sequence[LabeledSample],
    model_factory,
    training_config: TrainingConfig,
    splitter=None,
) -> Dict[str, int]:
    """Cross-validate and return ``{(sample key) : predicted label}``.

    Parameters
    ----------
    samples:
        The full labelled dataset.
    model_factory:
        Zero-argument callable returning a fresh :class:`PnPModel` per fold.
    training_config:
        Hyperparameters shared by every fold.
    splitter:
        Fold generator; defaults to :class:`LeaveOneApplicationOut`.

    Returns
    -------
    dict
        Mapping ``sample_key -> predicted_label`` where ``sample_key`` is
        ``(region_id, power_cap)`` — ``power_cap`` is ``None`` for EDP
        samples.
    """
    splitter = splitter if splitter is not None else LeaveOneApplicationOut()
    predictions: Dict[str, int] = {}
    for fold_name, train, validation in splitter.split(samples):
        model = model_factory()
        train_model(model, train, training_config)
        fold_predictions = predict_labels(model, validation)
        for labeled, predicted in zip(validation, fold_predictions):
            predictions[_sample_key(labeled)] = int(predicted)
        _LOG.info("fold %s: %d validation samples", fold_name, len(validation))
    return predictions


def _sample_key(sample: LabeledSample) -> Tuple[str, Optional[float]]:
    return (sample.region_id, sample.power_cap)
