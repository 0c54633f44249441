"""Teacher–student distillation of the GNN into per-family micro-models.

The pipeline, end to end:

1. :mod:`repro.distill.generate` — synthesise a training population per
   family (application) by perturbing benchsuite regions through the IR
   generator, and label it with the GNN teacher's pooled embeddings.
2. :mod:`repro.distill.student` — train one tiny dense MLP per family from
   :mod:`repro.distill.features` vectors to pooled embeddings, calibrate
   its teacher–student error and feature ranges, and pack everything into
   a shippable pure-ndarray :class:`DistilledModel` blob.
3. :mod:`repro.distill.runtime` — lower the students into the
   allocation-free dense runtime (:class:`MicroRuntime`): no message
   passing, no graph collation, a single-region sweep well under the warm
   GNN path's latency, scoring through the host tuner's own compiled head.
   ``MicroRuntime.predict_sweep`` is its one serving entry and
   ``MicroRuntime.trusted`` its trust gate.

Serving composes the tiers through :mod:`repro.serve.predictor`: a
``TieredPredictor`` holds the runtime, checks each region's trust gate
once, and serves trusted regions through ``MicroRuntime.predict_sweep`` and
everything else through the GNN — byte-identical to the plain tuner on the
fallback path.
"""

from repro.distill.features import FEATURE_DIM, FEATURE_NAMES, feature_matrix, feature_values
from repro.distill.generate import (
    perturb_out_of_family,
    perturb_region,
    synthesize_family_population,
    teacher_embeddings,
)
from repro.distill.runtime import MicroRuntime
from repro.distill.student import (
    DistilledModel,
    FamilyCalibration,
    FamilyStudent,
    StudentConfig,
    distill,
)

__all__ = [
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "feature_matrix",
    "feature_values",
    "perturb_region",
    "perturb_out_of_family",
    "synthesize_family_population",
    "teacher_embeddings",
    "DistilledModel",
    "FamilyCalibration",
    "FamilyStudent",
    "StudentConfig",
    "distill",
    "MicroRuntime",
]
