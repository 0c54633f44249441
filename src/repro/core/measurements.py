"""The measurement database: exhaustive (oracle) sweeps over Table I's space.

Every tuner in the reproduction — the exhaustive oracle, BLISS, OpenTuner and
the label builder for the PnP tuner's training set — consumes executions of
(region, configuration, power cap) points.  The database runs those points on
the simulated machine once and memoises them, so the oracle labels, the
baseline tuners' sampling runs and the evaluation all see consistent numbers,
exactly as they would when measured on one physical node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.search_space import SearchSpace
from repro.hw.machine import Machine
from repro.openmp.config import OpenMPConfig
from repro.openmp.execution import ExecutionEngine, ExecutionResult
from repro.openmp.region import RegionCharacteristics
from repro.utils.logging import get_logger

__all__ = ["MeasurementKey", "MeasurementDatabase", "get_measurement_database"]

_LOG = get_logger("core.measurements")

#: (region_id, power_cap, (threads, schedule, chunk))
MeasurementKey = Tuple[str, float, Tuple[int, str, Optional[int]]]


class MeasurementDatabase:
    """Lazily filled store of execution measurements for one machine.

    Parameters
    ----------
    machine:
        The simulated node measurements are taken on.
    search_space:
        The system's Table I search space.
    regions:
        Regions that may be measured (indexed by ``region_id``).
    """

    def __init__(
        self,
        machine: Machine,
        search_space: SearchSpace,
        regions: Iterable[RegionCharacteristics],
    ) -> None:
        if machine.name != search_space.system:
            raise ValueError(
                f"machine {machine.name!r} does not match search space system "
                f"{search_space.system!r}"
            )
        self.machine = machine
        self.search_space = search_space
        self.engine = ExecutionEngine(machine)
        self._regions: Dict[str, RegionCharacteristics] = {r.region_id: r for r in regions}
        self._cache: Dict[MeasurementKey, ExecutionResult] = {}
        self._execution_count = 0

    # --------------------------------------------------------------- regions
    @property
    def region_ids(self) -> List[str]:
        return list(self._regions)

    def region(self, region_id: str) -> RegionCharacteristics:
        if region_id not in self._regions:
            raise KeyError(f"unknown region {region_id!r}")
        return self._regions[region_id]

    def add_region(self, region: RegionCharacteristics) -> None:
        """Register an extra region (e.g. a user-provided kernel).

        Re-registering a known id with *changed* characteristics replaces
        the registration and drops the region's cached executions — results
        measured against the old characteristics must not be served for the
        new ones.
        """
        previous = self._regions.get(region.region_id)
        if previous is not None and previous != region:
            self._cache = {
                key: value
                for key, value in self._cache.items()
                if key[0] != region.region_id
            }
        self._regions[region.region_id] = region

    # ----------------------------------------------------------- measurement
    def measure(
        self, region_id: str, config: OpenMPConfig, power_cap: float, trial: int = 0
    ) -> ExecutionResult:
        """Execute (or fetch the cached execution of) one configuration point."""
        key: MeasurementKey = (region_id, float(power_cap), config.as_tuple())
        if trial == 0 and key in self._cache:
            return self._cache[key]
        result = self.engine.run(
            self.region(region_id), config, power_cap_watts=power_cap, trial=trial,
            account_rapl=False,
        )
        self._execution_count += 1
        if trial == 0:
            self._cache[key] = result
        return result

    @property
    def execution_count(self) -> int:
        """Number of simulated executions performed so far (cache misses)."""
        return self._execution_count

    # ----------------------------------------------------------- exhaustive
    def sweep_region(self, region_id: str, power_cap: float) -> List[ExecutionResult]:
        """Measure every candidate configuration of a region at one cap."""
        return [
            self.measure(region_id, config, power_cap)
            for config in self.search_space.candidate_configurations()
        ]

    def default_result(self, region_id: str, power_cap: float) -> ExecutionResult:
        """The OpenMP-default execution at ``power_cap``."""
        return self.measure(region_id, self.search_space.default_configuration, power_cap)

    def best_by_time(self, region_id: str, power_cap: float) -> Tuple[OpenMPConfig, ExecutionResult]:
        """Oracle for scenario 1: the fastest configuration at ``power_cap``."""
        results = self.sweep_region(region_id, power_cap)
        configs = self.search_space.candidate_configurations()
        best = min(range(len(results)), key=lambda i: results[i].time_s)
        return configs[best], results[best]

    def best_by_edp(self, region_id: str) -> Tuple[float, OpenMPConfig, ExecutionResult]:
        """Oracle for scenario 2: the (cap, configuration) minimising EDP."""
        best: Optional[Tuple[float, OpenMPConfig, ExecutionResult]] = None
        for cap in self.search_space.power_caps:
            config, result = min(
                zip(self.search_space.candidate_configurations(), self.sweep_region(region_id, cap)),
                key=lambda pair: pair[1].edp,
            )
            if best is None or result.edp < best[2].edp:
                best = (cap, config, result)
        assert best is not None
        return best

    def best_by_energy(self, region_id: str) -> Tuple[float, OpenMPConfig, ExecutionResult]:
        """The (cap, configuration) minimising energy (used in the discussion)."""
        best: Optional[Tuple[float, OpenMPConfig, ExecutionResult]] = None
        for cap in self.search_space.power_caps:
            config, result = min(
                zip(self.search_space.candidate_configurations(), self.sweep_region(region_id, cap)),
                key=lambda pair: pair[1].energy_joules,
            )
            if best is None or result.energy_joules < best[2].energy_joules:
                best = (cap, config, result)
        assert best is not None
        return best

    def label_by_time(self, region_id: str, power_cap: float) -> int:
        """Class label (configuration index) for scenario-1 training."""
        config, _ = self.best_by_time(region_id, power_cap)
        return self.search_space.config_index(config)

    def label_by_edp(self, region_id: str) -> int:
        """Class label (joint index) for scenario-2 training."""
        cap, config, _ = self.best_by_edp(region_id)
        return self.search_space.joint_index(cap, config)

    def prefill(self, power_caps: Optional[Iterable[float]] = None) -> None:
        """Eagerly run the full sweep (all regions × caps × configurations)."""
        caps = tuple(power_caps) if power_caps is not None else self.search_space.power_caps
        for region_id in self.region_ids:
            for cap in caps:
                self.sweep_region(region_id, cap)
        _LOG.info(
            "measurement database prefilled: %d cached points for %s",
            len(self._cache),
            self.machine.name,
        )


# ----------------------------------------------------------------- factory
_DATABASE_CACHE: Dict[Tuple[str, int, float], MeasurementDatabase] = {}


def get_measurement_database(
    system: str,
    regions: Optional[Iterable[RegionCharacteristics]] = None,
    seed: int = 0,
    noise_fraction: float = 0.015,
) -> MeasurementDatabase:
    """Shared per-process measurement database for ``system``.

    Every experiment labels its regions by sweeping the whole search space
    (34,544 simulated executions for the 68-region suite), so tests,
    benchmarks and examples share one database per (system, seed, noise)
    triple and pay for that sweep once per process.  ``regions`` defaults to
    the full 68-region benchmark suite.
    """
    key = (system, seed, noise_fraction)
    if key not in _DATABASE_CACHE:
        if regions is None:
            from repro.benchsuite.registry import all_regions

            regions = all_regions()
        machine = Machine.named(system, seed=seed, noise_fraction=noise_fraction)
        _DATABASE_CACHE[key] = MeasurementDatabase(machine, SearchSpace(system), regions)
    else:
        if regions is not None:
            database = _DATABASE_CACHE[key]
            for region in regions:
                if region.region_id not in database.region_ids:
                    database.add_region(region)
    return _DATABASE_CACHE[key]
