"""repro.synth — dimension-crossed synthetic corpus generation.

Scenario *families* (:mod:`repro.synth.families`) declare grids over the
app-generation axes the corpus generator understands; the grid compiler
(:mod:`repro.synth.compile`) maps self-describing keys
(``syn-<family>-s<seed>-<index>``) and population specs
(``synth:<families>*<scale>[@<seed>]``) onto deterministic
:class:`~repro.corpus.generator.GenApp` specs with full ground truth and
per-app version lineages.  Synthesized apps flow through the existing
corpus / batch / eval / lint / diff machinery unchanged.
"""

from __future__ import annotations

from .compile import (
    PopulationSpec,
    app_key,
    expand_targets,
    grid_point,
    is_population_spec,
    is_synth_key,
    normalize_coords,
    parse_app_key,
    parse_population,
    population_manifest,
    synth_apk,
    synth_genapp,
    synth_lineage,
    synth_spec,
)
from .families import (
    FAMILIES,
    Family,
    family_keys,
    get_family,
    resolve_families,
)

__all__ = [
    "FAMILIES",
    "Family",
    "PopulationSpec",
    "app_key",
    "expand_targets",
    "family_keys",
    "get_family",
    "grid_point",
    "is_population_spec",
    "is_synth_key",
    "normalize_coords",
    "parse_app_key",
    "parse_population",
    "population_manifest",
    "resolve_families",
    "synth_apk",
    "synth_genapp",
    "synth_lineage",
    "synth_spec",
]
