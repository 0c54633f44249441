"""Execution-time and energy model for OpenMP regions under power caps.

The model combines four effects, which together create the trade-offs the
PnP tuner learns to exploit:

1. **DVFS under a power cap** — the more cores are active, the lower the
   sustainable frequency (``repro.hw.dvfs``); memory-stalled cores draw less
   dynamic power, letting memory-bound codes clock higher under the same cap.
2. **Roofline** — a region's kernel time is the smooth maximum of its compute
   time (ops / (cores × IPC × frequency)) and its memory time (DRAM traffic /
   saturating bandwidth), so memory-bound kernels stop benefiting from extra
   threads long before the core count runs out.
3. **Scheduling** — load imbalance (static scheduling of non-uniform loops),
   dispatch overhead (dynamic scheduling with small chunks), and atomic /
   reduction contention all come from :mod:`repro.openmp.scheduling` and the
   region's characteristics.
4. **Fork/join overhead** — every work-shared loop pays a barrier cost that
   grows with the thread count and with the inverse of the clock; this is
   what makes tiny regions (the paper's motivating LULESH kernel) prefer very
   few threads at deep power caps.

Energy is power × time accumulated over the serial and parallel phases, and
is also pushed into the machine's RAPL counters so the Variorum/PAPI layers
observe consistent values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.hw.machine import Machine
from repro.hw.papi import PapiCounters
from repro.openmp.config import OpenMPConfig, ScheduleKind
from repro.openmp.region import RegionCharacteristics
from repro.openmp.scheduling import simulate_schedule
from repro.utils.rng import new_rng

__all__ = ["ExecutionResult", "ExecutionEngine"]

_GHZ = 1.0e9
#: Cost of one dynamic/guided chunk dispatch at the base frequency (seconds).
_DISPATCH_COST_S = 0.25e-6
#: Fraction of the dispatch cost that is serialised on the shared loop counter.
_DISPATCH_SERIAL_FRACTION = 0.2
#: Cost of one contended atomic update (seconds, at base frequency).
_ATOMIC_COST_S = 18.0e-9
#: Exponent of the smooth-max roofline combination.
_ROOFLINE_SMOOTHNESS = 4.0


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one region with one configuration."""

    region_id: str
    config: OpenMPConfig
    power_cap_watts: float
    time_s: float
    energy_joules: float
    avg_power_watts: float
    frequency_ghz: float
    imbalance_factor: float

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s), the paper's fused metric."""
        return self.energy_joules * self.time_s

    def speedup_over(self, baseline: "ExecutionResult") -> float:
        """Speedup of this execution relative to ``baseline``."""
        return baseline.time_s / self.time_s

    def greenup_over(self, baseline: "ExecutionResult") -> float:
        """Energy reduction factor relative to ``baseline`` (>1 is better)."""
        return baseline.energy_joules / self.energy_joules


class ExecutionEngine:
    """Simulates OpenMP region executions on a :class:`~repro.hw.machine.Machine`."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        # Schedule outcomes depend only on (region, threads, schedule, chunk),
        # not on the power cap or trial, so they are memoised across the
        # 508-point sweeps the tuners and the dataset builder perform.  The
        # key is the region's content fingerprint, not its id: a region
        # re-registered under a known id with changed characteristics must
        # not be served the old region's schedule.
        self._schedule_cache: dict = {}

    # ------------------------------------------------------------------ API
    def run(
        self,
        region: RegionCharacteristics,
        config: OpenMPConfig,
        power_cap_watts: Optional[float] = None,
        trial: int = 0,
        account_rapl: bool = True,
    ) -> ExecutionResult:
        """Execute ``region`` once under ``config`` and an optional power cap.

        Parameters
        ----------
        region, config:
            What to run and how.
        power_cap_watts:
            Package power cap; ``None`` uses the machine's currently
            programmed cap (TDP unless changed through Variorum).
        trial:
            Trial index — changes only the measurement noise, so repeated
            trials of the same point scatter realistically.
        account_rapl:
            Whether to push the consumed energy into the machine's RAPL
            counters (disable for bulk sweeps that don't need the counters).
        """
        spec = self.machine.processor
        if power_cap_watts is None:
            cap = self.machine.power_cap_watts
        else:
            cap = min(max(power_cap_watts, spec.min_power_watts), spec.tdp_watts)

        threads = min(config.num_threads, spec.hardware_threads)
        cores_used = min(threads, spec.cores)
        uses_smt = threads > spec.cores
        effective_config = OpenMPConfig(threads, config.schedule, config.chunk_size)

        # ---------------------------------------------------- serial phase
        serial_time, serial_power = self._serial_phase(region, cap)

        # -------------------------------------------------- parallel phase
        parallel_time, parallel_power, frequency, imbalance = self._parallel_phase(
            region, effective_config, cap, cores_used, threads, uses_smt
        )

        time_s = serial_time + parallel_time
        energy = serial_time * serial_power + parallel_time * parallel_power

        # ----------------------------------------------- measurement noise
        rng = new_rng(
            self.machine.seed,
            f"exec/{region.region_id}/{effective_config.label()}/{cap:.0f}/{trial}",
        )
        sigma = self.machine.noise_fraction
        if sigma > 0:
            time_noise = float(rng.lognormal(0.0, sigma))
            energy_noise = float(rng.lognormal(0.0, sigma * 0.6)) * time_noise
            time_s *= time_noise
            energy *= energy_noise

        avg_power = energy / time_s if time_s > 0 else 0.0
        if account_rapl:
            self.machine.rapl.account_energy(energy, time_s)

        return ExecutionResult(
            region_id=region.region_id,
            config=config,
            power_cap_watts=cap,
            time_s=time_s,
            energy_joules=energy,
            avg_power_watts=avg_power,
            frequency_ghz=frequency,
            imbalance_factor=imbalance,
        )

    def profile_counters(self, region: RegionCharacteristics, config: OpenMPConfig) -> PapiCounters:
        """Profile the region's PAPI counters under ``config`` (one extra run)."""
        return self.machine.papi.profile(region, num_threads=config.num_threads)

    # ------------------------------------------------------------ internals
    def _serial_phase(self, region: RegionCharacteristics, cap: float) -> tuple:
        serial_ops = region.serial_ops()
        if serial_ops <= 0:
            return 0.0, 0.0
        spec = self.machine.processor
        solution = self.machine.dvfs.solve(cap, active_cores=1, utilisation=0.9)
        rate = spec.ipc_peak * 0.5 * solution.effective_frequency_ghz * _GHZ
        time_s = serial_ops / rate
        power = spec.max_power(1, solution.frequency_ghz, 0.9 * solution.throttle_factor)
        return time_s, min(power, cap)

    def _parallel_phase(
        self,
        region: RegionCharacteristics,
        config: OpenMPConfig,
        cap: float,
        cores_used: int,
        threads: int,
        uses_smt: bool,
    ) -> tuple:
        spec = self.machine.processor
        cache_key = (region.fingerprint(), config.as_tuple())
        schedule = self._schedule_cache.get(cache_key)
        if schedule is None:
            schedule = simulate_schedule(region, config, seed=self.machine.seed)
            self._schedule_cache[cache_key] = schedule

        parallel_ops = region.parallel_ops()
        dram_bytes = (
            region.memory_bytes_per_iteration
            * region.iterations
            * region.dram_traffic_fraction(spec.l3_mib * 1024.0 * 1024.0)
        )

        smt_factor = spec.smt_speedup if uses_smt else 1.0
        per_node_ops_per_cycle = cores_used * spec.ipc_peak * smt_factor

        # Fixed-point iteration: utilisation determines the frequency, which
        # determines the compute/memory split, which determines utilisation.
        utilisation = 0.8
        frequency = spec.base_freq_ghz
        throttle = 1.0
        compute_time = memory_time = 0.0
        for _ in range(3):
            solution = self.machine.dvfs.solve(cap, cores_used, utilisation)
            frequency, throttle = solution.frequency_ghz, solution.throttle_factor
            effective_hz = solution.effective_frequency_ghz * _GHZ
            compute_time = (
                parallel_ops / (per_node_ops_per_cycle * effective_hz) * schedule.imbalance_factor
            )
            bandwidth = spec.bandwidth_gbs(cores_used, frequency) * 1.0e9
            memory_time = dram_bytes / bandwidth
            kernel_time = self._smooth_max(compute_time, memory_time)
            utilisation = 0.25 + 0.75 * (compute_time / kernel_time if kernel_time > 0 else 1.0)

        kernel_time = self._smooth_max(compute_time, memory_time)

        # Overheads (all slow down with the clock).
        clock_scale = spec.base_freq_ghz / max(frequency * throttle, 1e-6)
        fork_join = (
            (spec.fork_join_base_us + spec.fork_join_per_thread_us * threads)
            * 1.0e-6
            * clock_scale
            * region.parallel_loop_count
        )
        dispatch = 0.0
        if config.schedule in (ScheduleKind.DYNAMIC, ScheduleKind.GUIDED):
            per_dispatch = _DISPATCH_COST_S * clock_scale
            dispatch = schedule.num_dispatches * per_dispatch * (
                _DISPATCH_SERIAL_FRACTION + (1.0 - _DISPATCH_SERIAL_FRACTION) / threads
            )
        atomic_total = region.atomics_per_iteration * region.iterations
        atomics = 0.0
        if atomic_total > 0:
            contention = 1.0 + 0.05 * (threads - 1)
            atomics = atomic_total * _ATOMIC_COST_S * clock_scale * contention / threads
            # Atomic updates to shared data serialise at high thread counts.
            atomics = max(atomics, atomic_total * _ATOMIC_COST_S * clock_scale * 0.15)

        parallel_time = kernel_time + fork_join + dispatch + atomics

        busy_fraction = kernel_time / parallel_time if parallel_time > 0 else 1.0
        effective_util = utilisation * busy_fraction * throttle + 0.15 * (1.0 - busy_fraction)
        power = spec.max_power(cores_used, frequency, effective_util)
        power = min(power, cap)

        return parallel_time, power, frequency, schedule.imbalance_factor

    @staticmethod
    def _smooth_max(a: float, b: float) -> float:
        """Smooth maximum used for the roofline combination."""
        if a <= 0.0:
            return b
        if b <= 0.0:
            return a
        k = _ROOFLINE_SMOOTHNESS
        return float((a**k + b**k) ** (1.0 / k))
