"""The ``Predictor`` base class and its two implementations.

Every serving tier answers the paper's scenario-1 question — the best
OpenMP configuration for each region at each prescribed power cap —
through **one call**, ``predict_sweep_many``.  The base class derives the
single-region calls from it once:

.. code-block:: python

    predict_sweep_many(regions, power_caps, *, dtype=None, deadline=None)
    predict_sweep(region, power_caps, *, dtype=None, deadline=None)
    predict(region, power_cap, *, dtype=None, deadline=None)

``dtype`` overrides the serving precision (cast-once, exactly as in the
tuner); ``deadline`` is a time budget in seconds — implementations check it
on entry and refuse to *return* past it (:class:`DeadlineExceeded`), they do
not preempt a running kernel.  EDP tuning, where the model picks the cap
itself, stays on :meth:`~repro.core.tuner.PnPTuner.predict`.

Two implementations:

:class:`GNNPredictor`
    The full tuner path (graph → RGCN → pooled → head): a thin wrapper over
    :meth:`~repro.core.tuner.PnPTuner.predict_sweep_many`.
:class:`TieredPredictor`
    The router over the distilled micro tier
    (:class:`~repro.distill.runtime.MicroRuntime`): each region passes the
    runtime's trust gate once; trusted regions are served by the dense-only
    micro tier, everything else by the fallback in one batched call
    (byte-identical to the tuner, since the fallback *is* the tuner path).
    Tier counters (``micro_hits`` / ``fallbacks``) feed node and gateway
    stats.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.tuner import PnPTuner, TuningResult
from repro.distill.runtime import MicroRuntime
from repro.distill.student import DistilledModel
from repro.openmp.region import RegionCharacteristics

__all__ = [
    "DeadlineExceeded",
    "Predictor",
    "GNNPredictor",
    "TieredPredictor",
    "tiered_predictor",
]


class DeadlineExceeded(TimeoutError):
    """The request's deadline elapsed (or cannot be met) — failed fast."""


def _deadline_at(deadline: Optional[float]) -> Optional[float]:
    """Absolute expiry for a relative ``deadline`` budget; checks it is open."""
    if deadline is None:
        return None
    if deadline <= 0:
        raise DeadlineExceeded(f"deadline budget {deadline:.6f}s is not positive")
    return time.monotonic() + float(deadline)


def _check_deadline(expires_at: Optional[float]) -> None:
    if expires_at is not None and time.monotonic() > expires_at:
        raise DeadlineExceeded("prediction exceeded its deadline")


class Predictor:
    """A serving tier: implement :meth:`predict_sweep_many`, get the rest."""

    def predict_sweep_many(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[List[TuningResult]]:
        """Every region at every cap; ``results[i][j]`` is region i at cap j."""
        raise NotImplementedError

    def predict_sweep(
        self,
        region: RegionCharacteristics,
        power_caps: Sequence[float],
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[TuningResult]:
        """One region at every cap."""
        return self.predict_sweep_many(
            [region], power_caps, dtype=dtype, deadline=deadline
        )[0]

    def predict(
        self,
        region: RegionCharacteristics,
        power_cap: Optional[float] = None,
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> TuningResult:
        """One region at one cap."""
        if power_cap is None:
            raise ValueError("power_cap is required for the performance scenario")
        return self.predict_sweep(
            region, [power_cap], dtype=dtype, deadline=deadline
        )[0]


class GNNPredictor(Predictor):
    """The full GNN tuner path behind the canonical signatures."""

    def __init__(self, tuner: PnPTuner) -> None:
        self.tuner = tuner

    def predict_sweep_many(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[List[TuningResult]]:
        expires_at = _deadline_at(deadline)
        results = self.tuner.predict_sweep_many(regions, power_caps, dtype=dtype)
        _check_deadline(expires_at)
        return results


class TieredPredictor(Predictor):
    """Route trusted regions to the micro tier, the rest to the fallback.

    The fallback path is the plain tuner path — results for untrusted
    regions are byte-identical to calling the tuner directly.  Counters
    tally *regions served* per tier and surface in node/gateway stats.
    """

    def __init__(self, micro: MicroRuntime, fallback: Predictor) -> None:
        self.micro = micro
        self.fallback = fallback
        self._micro_hits = 0
        self._fallbacks = 0

    # ---------------------------------------------------------------- stats
    def tier_stats(self) -> Dict[str, int]:
        return {
            "micro_hits": self._micro_hits,
            "fallbacks": self._fallbacks,
            "micro_families": len(self.micro.families()),
        }

    def reset_tier_stats(self) -> None:
        self._micro_hits = 0
        self._fallbacks = 0

    # -------------------------------------------------------------- serving
    def predict_sweep_many(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[List[TuningResult]]:
        expires_at = _deadline_at(deadline)
        regions = list(regions)
        trusted_flags = [self.micro.trusted(region) for region in regions]
        untrusted = [
            region for region, flag in zip(regions, trusted_flags) if not flag
        ]
        # One batched GNN pass over every untrusted region — identical to
        # handing the whole set to the tuner, region for region.
        fallback_results = (
            iter(self.fallback.predict_sweep_many(untrusted, power_caps, dtype=dtype))
            if untrusted
            else iter(())
        )
        results: List[List[TuningResult]] = []
        for region, flag in zip(regions, trusted_flags):
            if flag:
                self._micro_hits += 1
                results.append(self.micro.predict_sweep(region, power_caps, dtype))
            else:
                self._fallbacks += 1
                results.append(next(fallback_results))
        _check_deadline(expires_at)
        return results


def tiered_predictor(tuner: PnPTuner, distilled: DistilledModel) -> TieredPredictor:
    """Wire the standard two-tier stack over one tuner + distilled model."""
    return TieredPredictor(MicroRuntime(distilled, tuner), GNNPredictor(tuner))
