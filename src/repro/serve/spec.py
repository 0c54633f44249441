"""Picklable tuner specs and one-time weight shipping for serving replicas.

Every serving replica rebuilds the same read-only tuner on the far side of
a process or machine boundary: :class:`~repro.serve.node.NodeServer`
receives a spec plus the ``.npz`` weight *bytes* over a TCP socket.  This
module owns the pieces of that shipping:

* :class:`TunerSpec` — everything needed to reconstruct a serving
  :class:`~repro.core.tuner.PnPTuner` (system, objective, model
  configuration, seeds, the benchmark-suite regions);
* :func:`tuner_spec` — capture the spec of a fitted tuner;
* :func:`build_serving_tuner` — rebuild the tuner from a spec and a state
  dictionary, and eagerly compile the autograd-free inference program so the
  replica's first request pays no lowering cost;
* :func:`weights_blob` / :func:`state_from_blob` — the ``.npz``
  serialization round-trip as in-memory bytes, for transports without a
  shared filesystem;
* :class:`WeightsUpdate` — the fleet's *versioned* weight payload: the
  ``.npz`` bytes plus a monotonically increasing version number, so nodes
  can reject stale registrations and a rolling update
  (:meth:`~repro.serve.fleet.FleetClient.update_weights`) can upgrade a
  live fleet one node at a time without ever serving mixed generations to
  a single synchronous client.

The weights always travel through the dtype-faithful ``.npz`` round-trip
(:mod:`repro.nn.serialization`), so every replica serves from byte-identical
parameter arrays.
"""

from __future__ import annotations

import io
import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core.model import ModelConfig
from repro.core.tuner import PnPTuner
from repro.nn import serialization
from repro.openmp.region import RegionCharacteristics

__all__ = [
    "TunerSpec",
    "WeightsUpdate",
    "tuner_spec",
    "build_serving_tuner",
    "build_from_update",
    "build_predictor_from_update",
    "weights_blob",
    "state_from_blob",
    "default_start_method",
]


def default_start_method() -> str:
    """Replica start method: ``fork`` where available, ``spawn`` otherwise.

    ``fork`` is cheap on the Linux CI machines; the one policy is shared by
    :func:`~repro.serve.server.parallel_map` and
    :class:`~repro.serve.fleet.LocalFleet`'s node subprocesses.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class TunerSpec:
    """Everything a serving replica needs to rebuild a read-only tuner."""

    system: str
    objective: str
    include_counters: bool
    seed: int
    machine_seed: int
    noise_fraction: float
    model_config: ModelConfig
    regions_by_app: Dict[str, List[RegionCharacteristics]]


@dataclass(frozen=True)
class WeightsUpdate:
    """A versioned fleet weight payload: ``.npz`` bytes + generation number.

    Versions are assigned by the :class:`~repro.serve.fleet.FleetClient`
    (``register_tuner`` starts the counter, ``update_weights`` bumps it) and
    increase monotonically; a node atomically swaps to the new weights only
    when ``version`` is at least its current one, so a delayed or replayed
    registration can never roll a node *back* mid-rolling-update.
    """

    version: int
    blob: bytes
    #: Optional :meth:`~repro.distill.student.DistilledModel.to_blob` bytes.
    #: When present, replicas serve through a
    #: :class:`~repro.serve.predictor.TieredPredictor` (micro tier + GNN
    #: fallback); when absent they serve the plain GNN path.  Defaulted so
    #: pre-distillation payloads keep decoding unchanged.
    distilled: Optional[bytes] = None


def tuner_spec(tuner: PnPTuner) -> TunerSpec:
    """Capture the picklable serving spec of a fitted tuner."""
    tuner._require_fitted()
    return TunerSpec(
        system=tuner.system,
        objective=tuner.objective,
        include_counters=tuner.include_counters,
        seed=tuner.seed,
        machine_seed=tuner.database.machine.seed,
        noise_fraction=tuner.database.machine.noise_fraction,
        model_config=tuner.model_config,
        regions_by_app=tuner.builder.regions_by_app,
    )


def build_serving_tuner(
    spec: TunerSpec,
    state: Optional[Mapping[str, np.ndarray]] = None,
    weights_path: Optional[str] = None,
) -> PnPTuner:
    """Reconstruct a serving tuner from a spec plus its fitted weights.

    The weights come either from an in-memory ``state`` dictionary (the TCP
    registration path — see :func:`state_from_blob`) or from a
    ``weights_path`` ``.npz`` archive (the local worker-pool path); exactly
    one must be given.  The rebuilt tuner eagerly lowers the loaded weights
    into the compiled inference program, so the replica's first request pays
    no compile latency.
    """
    from repro.core.dataset import DatasetBuilder
    from repro.core.measurements import MeasurementDatabase
    from repro.core.search_space import SearchSpace
    from repro.hw.machine import Machine

    if (state is None) == (weights_path is None):
        raise ValueError("exactly one of state / weights_path is required")
    regions = [r for rs in spec.regions_by_app.values() for r in rs]
    machine = Machine.named(
        spec.system, seed=spec.machine_seed, noise_fraction=spec.noise_fraction
    )
    database = MeasurementDatabase(machine, SearchSpace(spec.system), regions)
    tuner = PnPTuner(
        system=spec.system,
        objective=spec.objective,
        include_counters=spec.include_counters,
        model_config=spec.model_config,
        database=database,
        seed=spec.seed,
    )
    tuner.builder = DatasetBuilder(
        database, regions_by_app=spec.regions_by_app, seed=spec.seed
    )
    if weights_path is not None:
        state = serialization.load_state_dict(weights_path)
    tuner.load_state_dict(dict(state))
    tuner.compile_inference()
    return tuner


def build_from_update(spec: TunerSpec, update: WeightsUpdate) -> PnPTuner:
    """Rebuild a serving tuner from a spec plus a versioned weight payload.

    The one decode-and-rebuild path shared by the node's ``register``
    handler and the gateway's dead-fleet in-process fallback, so both
    always serve byte-identical parameter arrays for a given
    :class:`WeightsUpdate`.
    """
    return build_serving_tuner(spec, state=state_from_blob(update.blob))


def build_predictor_from_update(spec: TunerSpec, update: WeightsUpdate):
    """Rebuild ``(tuner, predictor)`` from a spec plus a versioned payload.

    The canonical serving entry point for replicas: a
    :class:`~repro.serve.predictor.TieredPredictor` (micro tier routed over
    the GNN fallback) when the update carries a distilled micro-model blob,
    a plain :class:`~repro.serve.predictor.GNNPredictor` otherwise.  The
    tuner is returned too because cache control ("clear", "stats") still
    addresses it directly.
    """
    from repro.distill.student import DistilledModel
    from repro.serve.predictor import GNNPredictor, tiered_predictor

    tuner = build_from_update(spec, update)
    if update.distilled is None:
        return tuner, GNNPredictor(tuner)
    return tuner, tiered_predictor(tuner, DistilledModel.from_blob(update.distilled))


def weights_blob(state: Mapping[str, np.ndarray]) -> bytes:
    """A state dictionary as dtype-faithful ``.npz`` bytes (shipped once)."""
    buffer = io.BytesIO()
    np.savez(buffer, **dict(state))
    return buffer.getvalue()


def state_from_blob(blob: bytes) -> Dict[str, np.ndarray]:
    """Decode :func:`weights_blob` bytes back into a state dictionary."""
    with np.load(io.BytesIO(blob)) as archive:
        return {key: np.array(archive[key]) for key in archive.files}
