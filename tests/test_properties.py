"""Property-based tests (hypothesis) on core invariants:

* random generated apps: IR validity, printer↔parser round-trip,
  obfuscation invariance, static analysis ↔ ground truth ↔ fuzzing,
* signature language: strings sampled from a term always match its regex,
* abstract-value merging is idempotent and commutative,
* byte accounting fractions always partition the byte count.
"""

from __future__ import annotations

import random
import re
import string

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AnalysisConfig, Extractocol
from repro.apk.obfuscator import obfuscate
from repro.apk.model import TriggerKind
from repro.corpus.generator import GenApp, GenEndpoint, build_generated_app
from repro.ir.validate import validate_program
from repro.ir.parser import parse_program
from repro.ir.printer import print_program
from repro.runtime.fuzzing import ManualUiFuzzer
from repro.semantics.avals import NumAV, canon, merge_avals
from repro.signature.lang import Alt, Concat, Const, Rep, Term, Unknown, alt, concat, rep
from repro.signature.matcher import ByteAccount, account_query_string
from repro.signature.regex import compile_regex

# --------------------------------------------------------------- strategies
_names = st.text(alphabet=string.ascii_lowercase, min_size=3, max_size=8)
_paths = st.lists(_names, min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)
)
_value_kinds = st.sampled_from(
    ["const:fixed", "int:7", "input", "clock", "device", "field:token"]
)


@st.composite
def endpoints(draw, index: int = 0):
    name = f"ep{draw(st.integers(0, 10**6))}"
    method = draw(st.sampled_from(["GET", "GET", "POST", "PUT", "DELETE"]))
    query = tuple(
        (draw(_names), draw(_value_kinds))
        for _ in range(draw(st.integers(0, 2)))
    )
    has_body = method != "GET" and draw(st.booleans())
    body = (
        tuple((draw(_names), draw(_value_kinds)) for _ in range(2))
        if has_body
        else ()
    )
    reads = tuple({draw(_names) for _ in range(draw(st.integers(0, 2)))})
    response = {k: f"value-{k}" for k in reads} if reads else None
    return GenEndpoint(
        name=name,
        method=method,
        path=draw(_paths),
        query=query,
        body=body,
        body_format="form" if body else None,
        response=response,
        reads=reads,
        trigger=draw(st.sampled_from([TriggerKind.UI, TriggerKind.UI,
                                      TriggerKind.TIMER])),
        side_effect=draw(st.booleans()) and draw(st.booleans()),
    )


@st.composite
def gen_apps(draw):
    # names become method names (ep_<name>), so they must be unique too
    eps = draw(st.lists(endpoints(), min_size=1, max_size=4,
                        unique_by=(lambda e: e.path, lambda e: e.name)))
    return GenApp(
        key="prop",
        name="PropApp",
        kind="open",
        package="com.prop.app",
        host="api.prop.test",
        endpoints=eps,
        filler_methods=draw(st.integers(0, 3)),
    )


_slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestGeneratedAppProperties:
    @_slow
    @given(gen_apps())
    def test_ir_valid_and_roundtrips(self, gen):
        spec = build_generated_app(gen)
        apk = spec.build_apk()
        assert validate_program(apk.program) == []
        text = print_program(apk.program)
        assert print_program(parse_program(text)) == text

    @_slow
    @given(gen_apps())
    def test_static_analysis_matches_truth(self, gen):
        spec = build_generated_app(gen)
        report = Extractocol(AnalysisConfig(async_heuristic=False)).analyze(
            spec.build_apk()
        )
        assert len(report.transactions) == spec.truth.count(visible_to="static")

    @_slow
    @given(gen_apps())
    def test_obfuscation_invariance(self, gen):
        spec = build_generated_app(gen)
        cfg = AnalysisConfig(async_heuristic=False)
        plain = Extractocol(cfg).analyze(spec.build_apk())
        obf = Extractocol(cfg).analyze(obfuscate(spec.build_apk()).apk)
        assert plain.unique_uri_signatures() == obf.unique_uri_signatures()

    @_slow
    @given(gen_apps())
    def test_fuzz_traffic_matches_signatures(self, gen):
        from repro.signature.matcher import transaction_matches

        spec = build_generated_app(gen)
        report = Extractocol(AnalysisConfig(async_heuristic=False)).analyze(
            spec.build_apk()
        )
        result = ManualUiFuzzer().fuzz(spec.build_apk(), spec.build_network())
        assert not result.faults, result.faults
        for captured in result.trace:
            assert any(
                transaction_matches(t, captured.request.method,
                                    captured.request.url,
                                    captured.request.body)
                for t in report.transactions
            ), str(captured)


# ------------------------------------------------------- term sampling/regex
def sample_term(term: Term, rng: random.Random) -> str:
    """Draw a concrete string from a signature term's language."""
    if isinstance(term, Const):
        return term.text
    if isinstance(term, Unknown):
        return {
            "int": str(rng.randrange(1000)),
            "float": f"{rng.randrange(100)}.{rng.randrange(10)}",
            "bool": rng.choice(["true", "false"]),
        }.get(term.kind, "sampled-" + str(rng.randrange(100)))
    if isinstance(term, Concat):
        return "".join(sample_term(p, rng) for p in term.parts)
    if isinstance(term, Alt):
        return sample_term(rng.choice(term.options), rng)
    if isinstance(term, Rep):
        return "".join(
            sample_term(term.body, rng) for _ in range(rng.randrange(3))
        )
    raise TypeError(type(term))


string_terms = st.deferred(
    lambda: st.one_of(
        st.builds(Const, st.text(alphabet="ab/?=&.x", max_size=6)),
        st.builds(Unknown, st.sampled_from(["str", "int", "bool"])),
        st.builds(lambda a, b: concat(a, b), string_terms, string_terms),
        st.builds(lambda a, b: alt(a, b), string_terms, string_terms),
        st.builds(rep, st.builds(Const, st.text(alphabet="xy", min_size=1,
                                                max_size=3))),
    )
)


class TestSignatureSampling:
    @settings(max_examples=200, deadline=None)
    @given(string_terms, st.integers(0, 2**32))
    def test_sampled_strings_match_their_regex(self, term, seed):
        rng = random.Random(seed)
        text = sample_term(term, rng)
        assert compile_regex(term).match(text), (str(term), text)


class TestMergeProperties:
    avals = st.one_of(
        st.builds(Const, st.text(alphabet="abc", max_size=4)),
        st.builds(Unknown, st.sampled_from(["str", "int", "any"])),
        st.builds(NumAV, st.integers(-5, 5)),
    )

    @settings(max_examples=100, deadline=None)
    @given(avals)
    def test_merge_idempotent(self, a):
        assert canon(merge_avals(a, a)) == canon(a)

    @settings(max_examples=100, deadline=None)
    @given(avals, avals)
    def test_merge_commutative_in_language(self, a, b):
        """merge(a,b) and merge(b,a) denote the same set of strings (Alt
        option order may differ, so compare canonical option sets)."""

        def parts(v):
            term = merge_avals(a, b) if v == 0 else merge_avals(b, a)
            if isinstance(term, Alt):
                return frozenset(str(o) for o in term.options)
            return frozenset({canon(term)})

        assert parts(0) == parts(1)


class TestByteAccountProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.text(alphabet="abc", min_size=1, max_size=4),
                           st.text(alphabet="xyz", max_size=6)),
                 max_size=5),
        st.sets(st.text(alphabet="abc", min_size=1, max_size=4), max_size=4),
    )
    def test_fractions_partition(self, pairs, known):
        qs = "&".join(f"{k}={v}" for k, v in pairs)
        acct = account_query_string(known, qs)
        rk, rv, rn = acct.fractions()
        if acct.total:
            assert abs(rk + rv + rn - 1.0) < 1e-9
        else:
            assert (rk, rv, rn) == (0.0, 0.0, 0.0)

    def test_add_accumulates(self):
        a = ByteAccount(1, 2, 3)
        b = ByteAccount(4, 5, 6)
        a.add(b)
        assert (a.rk, a.rv, a.rn) == (5, 7, 9)
