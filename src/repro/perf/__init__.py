"""Performance layer: the per-analysis memo of program artifacts and the
worker sizing used by batch-level parallelism.

:class:`ProgramIndex` materializes per-method analysis artifacts (CFGs,
one slicing table per method, loop structure, the global field read/write
index) once per analysis and shares them between both taint directions,
the :class:`~repro.slicing.slicer.NetworkSlicer` and the
:class:`~repro.signature.builder.SignatureInterpreter`.

:mod:`repro.perf.parallel` sizes the engines that fan *apps* out (the
batch engine, the daemon's thread pool).
"""

from .index import ProgramIndex, field_key
from .parallel import resolve_workers

__all__ = ["ProgramIndex", "field_key", "resolve_workers"]
