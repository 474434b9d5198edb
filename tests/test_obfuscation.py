"""§5.1 obfuscation validation, corpus-wide.

"For open source apps, we obfuscate their APKs using ProGuard and verify
that the same results hold as non-obfuscated APKs."
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.deobfuscate import build_deobfuscation_map
from repro.apk.obfuscator import obfuscate
from repro.apk.rewrite import rename_program
from repro.corpus import app_keys, get_spec
from repro.ir.validate import validate_program


def _analyze(apk, kind: str):
    return Extractocol(AnalysisConfig(async_heuristic=(kind == "closed"))).analyze(apk)


@pytest.mark.parametrize("key", app_keys("open"))
def test_open_apps_invariant_under_obfuscation(key):
    spec = get_spec(key)
    plain = _analyze(spec.build_apk(), spec.kind)
    obf_apk = obfuscate(spec.build_apk()).apk
    assert validate_program(obf_apk.program) == []
    obf = _analyze(obf_apk, spec.kind)
    assert obf.unique_uri_signatures() == plain.unique_uri_signatures()
    assert len(obf.transactions) == len(plain.transactions)
    assert {str(d) for d in obf.dependencies} == {
        str(d) for d in plain.dependencies
    }
    assert obf.stats().as_row() == plain.stats().as_row()


@pytest.mark.parametrize("key", ["ted", "kayak", "linkedin"])
def test_closed_apps_invariant_under_obfuscation(key):
    spec = get_spec(key)
    cfg = AnalysisConfig(async_heuristic=True, scope_prefixes=())
    plain = Extractocol(cfg).analyze(spec.build_apk())
    obf = Extractocol(cfg).analyze(obfuscate(spec.build_apk()).apk)
    assert obf.unique_uri_signatures() == plain.unique_uri_signatures()


@pytest.mark.parametrize("key", app_keys())
def test_rename_map_inverted_round_trips_every_map(key):
    """``RenameMap.inverted()`` must carry the class, method AND field
    maps: rewrite → invert → rewrite is the identity on every corpus
    program (the diff subsystem's rename-lineage tolerance rests on it)."""
    from repro.apk.rewrite import rename_program
    from repro.ir.printer import print_program

    spec = get_spec(key)
    plain = spec.build_apk()
    result = obfuscate(spec.build_apk())
    renames, inv = result.renames, result.renames.inverted()

    # exact map-level inversion, no entries dropped or collapsed
    for forward, backward in (
        (renames.class_map, inv.class_map),
        (renames.method_map, inv.method_map),
        (renames.field_map, inv.field_map),
    ):
        assert backward == {v: k for k, v in forward.items()}
        assert len(backward) == len(forward)  # injective: nothing lost
    assert inv.inverted().class_map == renames.class_map
    assert inv.inverted().method_map == renames.method_map
    assert inv.inverted().field_map == renames.field_map

    # program-level identity: un-renaming the obfuscated program restores
    # the original, byte-for-byte in the canonical textual IR
    restored = rename_program(result.apk.program, inv)
    assert print_program(restored) == print_program(plain.program)


def test_obfuscated_library_needs_deobfuscation_map():
    """§3.4: when an *embedded library* is obfuscated too, the semantic
    model misses it until the signature-similarity map restores the names."""
    from repro.apk.rewrite import RenameMap

    spec = get_spec("radioreddit")
    plain_apk = spec.build_apk()
    reference = spec.build_apk().program  # pre-obfuscation "library jar"
    result = obfuscate(plain_apk)
    mapping = build_deobfuscation_map(result.apk.program, reference)
    assert mapping.matched_classes >= 1
    restored = rename_program(result.apk.program, mapping.renames)
    # restored program has the original class names back
    assert set(restored.classes) == set(reference.classes)


def test_fuzzing_also_invariant_under_obfuscation():
    """Dynamic execution of the obfuscated app produces identical traffic."""
    from repro.runtime.fuzzing import ManualUiFuzzer

    spec = get_spec("radioreddit")
    plain = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
    obf = ManualUiFuzzer().fuzz(
        obfuscate(spec.build_apk()).apk, spec.build_network()
    )
    assert plain.trace.unique_urls() == obf.trace.unique_urls()
    assert not obf.faults, obf.faults
