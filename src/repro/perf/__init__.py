"""Performance layer: the per-analysis memo of program artifacts and the
worker sizing used by batch-level parallelism.

:class:`ProgramIndex` materializes per-method analysis artifacts (CFGs,
def-use chains, statement reachability, mention sites, the global field
read/write index) once per analysis and shares them between both taint
directions, the :class:`~repro.slicing.slicer.NetworkSlicer` and the
:class:`~repro.signature.builder.SignatureInterpreter`.

:mod:`repro.perf.parallel` sizes and names the executors that fan *apps*
out (the batch scheduler, the fleet-index builder).
"""

from .index import ProgramIndex, field_key
from .parallel import resolve_workers

__all__ = ["ProgramIndex", "field_key", "resolve_workers"]
