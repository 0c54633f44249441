"""Experiment profiles: how much compute each experiment run spends.

The paper's protocol (leave-one-application-out over 30 applications, tens of
training epochs) is faithful but slow in a pure-NumPy training stack, so
every experiment runner accepts a profile:

* ``full``  — the paper's protocol (LOOCV, long training);
* ``fast``  — grouped application folds and short training; this is what the
  benchmark harness uses so the entire figure set regenerates in minutes;
* ``smoke`` — a tiny subset of applications; used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.model import ModelConfig
from repro.core.training import GroupedApplicationKFold, LeaveOneApplicationOut, TrainingConfig

__all__ = ["ExperimentProfile", "full_profile", "fast_profile", "smoke_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Controls dataset size, model size and training effort of experiments.

    Attributes
    ----------
    name:
        Profile identifier ("full", "fast", "smoke", ...).
    epochs, batch_size, learning_rate:
        Training-loop parameters (Table II defaults for ``full``); training
        reshuffles the samples every epoch.
    embedding_dim, hidden_dim, dense_hidden_dim:
        Model capacity.
    loocv:
        If True, use leave-one-application-out CV; otherwise grouped k-fold
        with ``num_folds`` folds.
    num_folds:
        Number of grouped folds when ``loocv`` is False.
    applications:
        Optional subset of application names to restrict the suite to
        (``None`` = all 30 applications).
    bliss_budget / opentuner_budget:
        Execution budgets granted to the baseline tuners.
    include_dynamic_variant:
        Whether to also train/evaluate the static+counters ("dynamic") model.
    seed:
        Master seed for the whole experiment.
    """

    name: str
    epochs: int
    batch_size: int = 16
    learning_rate: float = 1e-3
    embedding_dim: int = 32
    hidden_dim: int = 32
    dense_hidden_dim: int = 64
    num_rgcn_layers: int = 4
    num_dense_layers: int = 3
    dropout: float = 0.1
    loocv: bool = True
    num_folds: int = 5
    applications: Optional[Tuple[str, ...]] = None
    bliss_budget: int = 20
    opentuner_budget: int = 30
    include_dynamic_variant: bool = True
    include_baselines: bool = True
    seed: int = 0

    # ------------------------------------------------------------- factories
    def splitter(self):
        """The cross-validation splitter this profile prescribes."""
        if self.loocv:
            return LeaveOneApplicationOut()
        return GroupedApplicationKFold(self.num_folds)

    def training_config(self, optimizer: str = "adamw") -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=optimizer,
            seed=self.seed,
        )

    def model_config(self, vocabulary_size: int, num_classes: int, aux_dim: int) -> ModelConfig:
        return ModelConfig(
            vocabulary_size=vocabulary_size,
            num_classes=num_classes,
            aux_dim=aux_dim,
            embedding_dim=self.embedding_dim,
            hidden_dim=self.hidden_dim,
            dense_hidden_dim=self.dense_hidden_dim,
            num_rgcn_layers=self.num_rgcn_layers,
            num_dense_layers=self.num_dense_layers,
            dropout=self.dropout,
            seed=self.seed,
        )

    def with_overrides(self, **kwargs) -> "ExperimentProfile":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


def full_profile(seed: int = 0) -> ExperimentProfile:
    """The paper's protocol: LOOCV over all applications, long training."""
    return ExperimentProfile(
        name="full",
        epochs=50,
        embedding_dim=64,
        hidden_dim=64,
        dense_hidden_dim=128,
        loocv=True,
        seed=seed,
    )


def fast_profile(seed: int = 0) -> ExperimentProfile:
    """Reduced-cost profile used by the benchmark harness."""
    return ExperimentProfile(
        name="fast",
        epochs=14,
        learning_rate=3e-3,
        loocv=False,
        num_folds=3,
        seed=seed,
    )


def smoke_profile(seed: int = 0) -> ExperimentProfile:
    """Tiny profile for unit/integration tests: a handful of applications."""
    return ExperimentProfile(
        name="smoke",
        epochs=2,
        embedding_dim=16,
        hidden_dim=16,
        dense_hidden_dim=32,
        num_rgcn_layers=2,
        loocv=False,
        num_folds=2,
        applications=("gemm", "trisolv", "atax", "LULESH"),
        bliss_budget=10,
        opentuner_budget=10,
        include_dynamic_variant=False,
        seed=seed,
    )
