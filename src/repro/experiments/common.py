"""Shared plumbing for the experiment runners.

Heavy loops can be sharded via :mod:`repro.serve`: cross-validation folds
across worker processes (``pnp_cross_validated_selections(num_workers=...)``)
and per-figure region sweep loops across fleet nodes
(:func:`sharded_performance_selections`).
Both paths are deterministic and produce results identical to their serial
counterparts — sharding is purely a wall-clock decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.benchsuite.registry import regions_by_application
from repro.core.dataset import DatasetBuilder, LabeledSample, TuningScenario
from repro.core.measurements import MeasurementDatabase, get_measurement_database
from repro.core.model import ModelConfig, PnPModel
from repro.core.training import (
    TrainingConfig,
    predict_labels,
    run_cross_validation,
    train_model,
)
from repro.core.tuner import (
    PnPTuner,
    labels_to_edp_selections,
    labels_to_performance_selections,
)
from repro.experiments.profiles import ExperimentProfile
from repro.openmp.config import OpenMPConfig
from repro.openmp.region import RegionCharacteristics
from repro.serve import FleetClient, LocalFleet, parallel_map
from repro.tuners.base import BaselineTuner
from repro.utils.logging import get_logger

__all__ = [
    "suite_subset",
    "experiment_database",
    "experiment_builder",
    "pnp_cross_validated_selections",
    "sharded_performance_selections",
    "default_performance_selections",
    "default_edp_selections",
    "baseline_performance_selections",
    "baseline_edp_selections",
]

_LOG = get_logger("experiments.common")


def suite_subset(profile: ExperimentProfile) -> Dict[str, List[RegionCharacteristics]]:
    """The benchmark applications this profile runs on."""
    everything = regions_by_application()
    if profile.applications is None:
        return everything
    missing = [name for name in profile.applications if name not in everything]
    if missing:
        raise KeyError(f"profile references unknown applications: {missing}")
    return {name: everything[name] for name in profile.applications}


def experiment_database(system: str, profile: ExperimentProfile) -> MeasurementDatabase:
    """Measurement database restricted to the profile's applications."""
    regions = [r for rs in suite_subset(profile).values() for r in rs]
    return get_measurement_database(system, regions=regions, seed=profile.seed)


def experiment_builder(system: str, profile: ExperimentProfile) -> DatasetBuilder:
    """Dataset builder over the profile's applications."""
    database = experiment_database(system, profile)
    return DatasetBuilder(database, regions_by_app=suite_subset(profile), seed=profile.seed)


# ------------------------------------------------------------------ PnP CV
@dataclass(frozen=True)
class _FoldRunner:
    """Picklable per-fold trainer for process-sharded cross-validation.

    Folds are independent (fresh model per fold, deterministic seeds), so
    training them in worker processes yields predictions identical to the
    serial :func:`repro.core.training.run_cross_validation` loop.
    """

    model_config: ModelConfig
    training_config: TrainingConfig

    def __call__(self, fold) -> List[Tuple[Tuple[str, Optional[float]], int]]:
        fold_name, train, validation = fold
        model = PnPModel(self.model_config)
        train_model(model, train, self.training_config)
        predictions = predict_labels(model, validation)
        _LOG.info("fold %s: %d validation samples", fold_name, len(validation))
        return [
            ((labeled.region_id, labeled.power_cap), int(predicted))
            for labeled, predicted in zip(validation, predictions)
        ]


def pnp_cross_validated_selections(
    builder: DatasetBuilder,
    samples: Sequence[LabeledSample],
    profile: ExperimentProfile,
    scenario: TuningScenario,
    include_counters: bool,
    optimizer: str,
    train_hook=None,
    num_workers: int = 1,
):
    """Cross-validate the PnP model and convert predictions to selections.

    Returns the selections in the format the evaluation functions expect:
    ``{(region_id, cap): config}`` for the performance scenario and
    ``{region_id: (cap, config)}`` for the EDP scenario.

    ``num_workers > 1`` trains the cross-validation folds in worker
    processes (identical predictions, shorter wall clock).  Experiments
    passing a ``train_hook`` (whose returned parameter subsets must alias
    the live model) fall back to the serial path.
    """
    space = builder.search_space
    num_classes = (
        space.num_omp_configurations
        if scenario == TuningScenario.PERFORMANCE
        else space.num_joint_configurations
    )
    aux_dim = builder.aux_feature_dim(scenario, include_counters)
    model_config = profile.model_config(len(builder.vocabulary), num_classes, aux_dim)
    training_config = profile.training_config(optimizer=optimizer)

    if num_workers > 1 and train_hook is None:
        runner = _FoldRunner(model_config, training_config)
        folds = list(profile.splitter().split(samples))
        predictions = {}
        for fold_predictions in parallel_map(runner, folds, num_workers):
            predictions.update(fold_predictions)
    else:
        if num_workers > 1:
            _LOG.info("train_hook given: cross-validating serially")
        predictions = run_cross_validation(
            samples,
            model_factory=lambda: PnPModel(model_config),
            training_config=training_config,
            splitter=profile.splitter(),
            train_hook=train_hook,
        )
    if scenario == TuningScenario.PERFORMANCE:
        return labels_to_performance_selections(predictions, space)
    return labels_to_edp_selections(predictions, space)


# --------------------------------------------------------- sharded serving
def sharded_performance_selections(
    tuner: PnPTuner,
    regions: Sequence[RegionCharacteristics],
    power_caps: Sequence[float],
    num_workers: int = 2,
    fleet: Optional[Union[FleetClient, LocalFleet]] = None,
) -> Dict[Tuple[str, float], OpenMPConfig]:
    """Per-figure region × cap loop served by a sharded TCP fleet.

    Without ``fleet``, a :class:`~repro.serve.LocalFleet` of ``num_workers``
    nodes is started for the call (the fitted tuner's weights ship once at
    registration) and closed afterwards; regions are sharded across the
    nodes and each node's share is batch-encoded by
    :meth:`~repro.core.tuner.PnPTuner.predict_sweep_many`.  Pass a
    ``fleet`` (a :class:`~repro.serve.FleetClient` with the tuner already
    registered, or a :class:`~repro.serve.LocalFleet`) to reuse warm nodes
    across several calls; it is left open.  The returned
    ``{(region_id, cap): config}`` selections are identical to looping
    ``tuner.predict_sweep`` serially.
    """
    if fleet is not None:
        swept = fleet.sweep(regions, power_caps)
    else:
        with LocalFleet(tuner, num_nodes=num_workers) as owned:
            swept = owned.sweep(regions, power_caps)
    selections: Dict[Tuple[str, float], OpenMPConfig] = {}
    for region, results in zip(regions, swept):
        for result in results:
            selections[(region.region_id, float(result.power_cap))] = result.config
    return selections


# -------------------------------------------------------------- baselines
def default_performance_selections(
    database: MeasurementDatabase,
    region_ids: Iterable[str],
    power_caps: Iterable[float],
) -> Dict[Tuple[str, float], OpenMPConfig]:
    """The OpenMP default configuration for every (region, cap) point."""
    default = database.search_space.default_configuration
    return {(rid, float(cap)): default for rid in region_ids for cap in power_caps}


def default_edp_selections(
    database: MeasurementDatabase, region_ids: Iterable[str]
) -> Dict[str, Tuple[float, OpenMPConfig]]:
    """The default configuration at TDP for every region (scenario-2 baseline)."""
    default = database.search_space.default_configuration
    tdp = database.search_space.tdp_watts
    return {rid: (tdp, default) for rid in region_ids}


def baseline_performance_selections(
    database: MeasurementDatabase,
    region_ids: Iterable[str],
    power_caps: Iterable[float],
    tuner: BaselineTuner,
) -> Dict[Tuple[str, float], OpenMPConfig]:
    """Run an execution-based baseline tuner on every (region, cap) point."""
    selections: Dict[Tuple[str, float], OpenMPConfig] = {}
    for region_id in region_ids:
        for cap in power_caps:
            selections[(region_id, float(cap))] = tuner.tune_performance(database, region_id, cap)
    _LOG.info("%s used %d executions", tuner.name, tuner.executions_used)
    return selections


def baseline_edp_selections(
    database: MeasurementDatabase,
    region_ids: Iterable[str],
    tuner: BaselineTuner,
) -> Dict[str, Tuple[float, OpenMPConfig]]:
    """Run an execution-based baseline tuner on every region (EDP scenario)."""
    selections: Dict[str, Tuple[float, OpenMPConfig]] = {}
    for region_id in region_ids:
        selections[region_id] = tuner.tune_edp(database, region_id)
    _LOG.info("%s used %d executions", tuner.name, tuner.executions_used)
    return selections
