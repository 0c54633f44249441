"""Allocation-free serving runtime for distilled micro-models.

:class:`MicroRuntime` lowers each family's student into the same dense
program machinery the GNN head runs on
(:class:`~repro.nn.inference.DenseHeadProgram` with input standardization):
per-(family, dtype) weight stacks cast once, per-row-count workspaces, and
preallocated feature/row/aux buffers — so a warm single-region sweep
performs **zero numpy array allocations**: Python floats are written into
the feature buffer, the student program produces the pooled row in its
workspace, and the host tuner's *own* compiled head scores (pooled, aux)
into its argmax buffer.

Reusing the tuner's head (same weight arrays, same
:func:`~repro.core.search_space.SearchSpace.normalized_cap` bits in the aux
row) means a micro prediction differs from the GNN path only in how the
pooled embedding was produced — and the GNN fallback for untrusted regions
*is* the tuner path, byte for byte.  Every answer asks the tuner for its
program (:meth:`~repro.core.tuner.PnPTuner.compile_inference`), so it passes
the tuner's one staleness check: weights rebound on ``tuner.model`` reach
the very next micro answer.

The runtime registers itself with the host tuner
(:meth:`~repro.core.tuner.PnPTuner.attach_micro_runtime`), so
``inference_cache_stats`` accounts for micro buffers and
``clear_inference_buffers`` — and therefore a serving node's ``"clear"`` —
sheds both tiers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tuner import TuningResult
from repro.distill.features import FEATURE_DIM, feature_values
from repro.distill.student import DistilledModel, FamilyStudent
from repro.nn.inference import DenseHeadProgram, DenseStep

__all__ = ["MicroRuntime"]


class _FamilyProgram:
    """One family's student lowered at one serving dtype."""

    __slots__ = ("program",)

    def __init__(self, student: FamilyStudent, dtype: np.dtype) -> None:
        steps = [
            DenseStep(
                np.ascontiguousarray(weight, dtype=dtype),
                np.ascontiguousarray(bias, dtype=dtype),
            )
            for weight, bias in zip(student.weights, student.biases)
        ]
        self.program = DenseHeadProgram(
            steps,
            aux_dim=0,
            dtype=dtype,
            standardize=(student.feature_mean, student.feature_scale),
        )


class MicroRuntime:
    """Serve a :class:`DistilledModel` through the host tuner's head."""

    def __init__(self, distilled: DistilledModel, tuner) -> None:
        if tuner.include_counters:
            raise ValueError(
                "the micro tier serves static features only; a dynamic "
                "(include_counters=True) tuner cannot host it"
            )
        if tuner.objective != "time":
            raise ValueError(
                "the micro tier sweeps the power-cap auxiliary input and needs "
                "objective='time'; EDP tuning stays on PnPTuner.predict()"
            )
        self.distilled = distilled
        self.tuner = tuner
        # (family, dtype name) -> lowered student program.
        self._programs: Dict[Tuple[str, str], _FamilyProgram] = {}
        # dtype name -> (1, FEATURE_DIM) input buffer.
        self._feature_buffers: Dict[str, np.ndarray] = {}
        # (dtype name, rows) -> (rows buffer (C, H), aux buffer (C, aux_dim)).
        self._sweep_buffers: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
        # Gate bounds per family as plain Python floats (the trust test runs
        # entirely outside numpy, keeping the warm path allocation-free);
        # families over the error budget are excluded up front.
        config = distilled.config
        self._gates: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {
            name: (
                tuple(float(v) for v in student.calibration.feature_lo),
                tuple(float(v) for v in student.calibration.feature_hi),
            )
            for name, student in distilled.families.items()
            if config.max_error is None
            or student.calibration.error_quantile <= config.max_error
        }
        tuner.attach_micro_runtime(self)

    # ---------------------------------------------------------------- gating
    def trusted(self, region) -> bool:
        """The serving trust gate: family known + features in calibrated range."""
        gate = self._gates.get(region.application)
        if gate is None:
            return False
        lo, hi = gate
        for index, value in enumerate(feature_values(region)):
            if not lo[index] <= value <= hi[index]:
                return False
        return True

    def families(self) -> List[str]:
        return sorted(self._gates)

    # -------------------------------------------------------------- serving
    def predict_sweep(
        self,
        region,
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
    ) -> List[TuningResult]:
        """One region at many caps — the student runs once, the head batches.

        The runtime's one serving entry: it does not consult the trust gate
        (:meth:`trusted`), which its router checks once per region.
        """
        tuner = self.tuner
        caps = [float(cap) for cap in power_caps]
        if not caps:
            return []
        space = tuner.search_space
        aux_values = [space.normalized_cap(cap) for cap in caps]
        labels = self._labels(region, aux_values, dtype)
        return [
            tuner._result_from_label(region.region_id, int(label), cap)
            for cap, label in zip(caps, labels)
        ]

    def _labels(
        self, region, aux_values: Sequence[float], dtype: Optional[str]
    ) -> np.ndarray:
        """Head labels for one region at the given aux rows (workspace view)."""
        # The tuner's program at this dtype, asked for on every call: the
        # tuner's staleness check recompiles it if the weights were rebound.
        head = self.tuner.compile_inference(dtype)
        resolved = head.dtype
        program = self._family_program(region.application, resolved)
        features = self._feature_buffer(resolved)
        row = features[0]
        for index, value in enumerate(feature_values(region)):
            row[index] = value
        pooled = program.program.logits(features, None)
        rows, aux = self._sweep_buffer(resolved, len(aux_values))
        np.copyto(rows, pooled)
        for index, value in enumerate(aux_values):
            aux[index, 0] = value
        return head.predict_from_pooled(rows, aux)

    # -------------------------------------------------------------- plumbing
    def _family_program(self, family: str, dtype: np.dtype) -> _FamilyProgram:
        key = (family, dtype.name)
        program = self._programs.get(key)
        if program is None:
            student = self.distilled.families.get(family)
            if student is None:
                raise KeyError(f"no distilled student for family {family!r}")
            program = _FamilyProgram(student, dtype)
            self._programs[key] = program
        return program

    def _feature_buffer(self, dtype: np.dtype) -> np.ndarray:
        buffer = self._feature_buffers.get(dtype.name)
        if buffer is None:
            buffer = np.empty((1, FEATURE_DIM), dtype=dtype)
            self._feature_buffers[dtype.name] = buffer
        return buffer

    def _sweep_buffer(
        self, dtype: np.dtype, rows: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        key = (dtype.name, rows)
        buffers = self._sweep_buffers.get(key)
        if buffers is None:
            pooled_dim = self.distilled.pooled_dim
            aux_dim = self.tuner.model_config.aux_dim
            buffers = (
                np.empty((rows, pooled_dim), dtype=dtype),
                np.empty((rows, aux_dim), dtype=dtype),
            )
            self._sweep_buffers[key] = buffers
        return buffers

    # ------------------------------------------------------------- buffers
    def buffer_stats(self) -> Dict[str, int]:
        """Micro-tier buffer accounting, merged into the tuner's stats."""
        workspaces = sum(
            entry.program.num_workspaces for entry in self._programs.values()
        )
        nbytes = sum(
            entry.program.workspace_nbytes for entry in self._programs.values()
        )
        nbytes += sum(buffer.nbytes for buffer in self._feature_buffers.values())
        nbytes += sum(
            rows.nbytes + aux.nbytes for rows, aux in self._sweep_buffers.values()
        )
        return {
            "micro_programs": len(self._programs),
            "micro_workspaces": workspaces,
            "micro_bytes": nbytes,
        }

    def clear_buffers(self) -> None:
        """Shed every micro-tier buffer (programs are re-lowered lazily)."""
        for entry in self._programs.values():
            entry.program.clear_buffers()
        self._programs.clear()
        self._feature_buffers.clear()
        self._sweep_buffers.clear()
