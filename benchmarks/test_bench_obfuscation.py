"""§5.1 obfuscation robustness: ProGuard-style renaming leaves the analysis
output unchanged, at comparable cost."""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, Extractocol
from repro.apk.obfuscator import obfuscate
from repro.corpus import get_spec


@pytest.mark.parametrize("key", ["diode", "radioreddit", "ifixit"])
def test_obfuscated_analysis(benchmark, key):
    spec = get_spec(key)
    obfuscated = obfuscate(spec.build_apk()).apk

    report = benchmark(
        Extractocol(AnalysisConfig(async_heuristic=False)).analyze, obfuscated
    )
    plain = Extractocol(AnalysisConfig(async_heuristic=False)).analyze(
        spec.build_apk()
    )
    assert report.unique_uri_signatures() == plain.unique_uri_signatures()
    assert len(report.transactions) == len(plain.transactions)
