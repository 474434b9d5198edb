"""Unit + property tests for the signature language and regex compiler."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.signature.lang import (
    Alt,
    Concat,
    Const,
    JsonArray,
    JsonObject,
    Rep,
    Unknown,
    alt,
    concat,
    constant_keywords,
    origins_of,
    rep,
)
from repro.signature.regex import compile_regex, to_regex


class TestSmartConstructors:
    def test_concat_merges_literals(self):
        out = concat(Const("http://"), Const("host"), Const("/p"))
        assert out == Const("http://host/p")

    def test_concat_flattens_nested(self):
        inner = concat(Const("a"), Unknown("str"))
        out = concat(inner, Const("b"))
        assert isinstance(out, Concat)
        assert len(out.parts) == 3

    def test_concat_drops_empty(self):
        assert concat(Const(""), Const("x"), Const("")) == Const("x")

    def test_alt_dedupes(self):
        assert alt(Const("a"), Const("a")) == Const("a")

    def test_alt_flattens(self):
        out = alt(alt(Const("a"), Const("b")), Const("c"))
        assert isinstance(out, Alt)
        assert len(out.options) == 3

    def test_alt_explosion_degrades_to_unknown(self):
        out = alt(*[Const(str(i)) for i in range(100)])
        assert isinstance(out, Unknown)

    def test_rep_idempotent(self):
        body = Const("x")
        assert rep(rep(body)) == rep(body)

    def test_unknown_kind_validated(self):
        with pytest.raises(ValueError):
            Unknown("nope")


class TestRegex:
    def test_const_escaped(self):
        sig = Const("a.b?c=1")
        assert re.fullmatch(to_regex(sig)[1:-1], "a.b?c=1")
        assert compile_regex(sig).match("a.b?c=1")
        assert not compile_regex(sig).match("axb?c=1")

    def test_unknown_kinds(self):
        assert compile_regex(Unknown("int")).match("12345")
        assert not compile_regex(Unknown("int")).match("abc")
        assert compile_regex(Unknown("str")).match("anything at all")

    def test_concat_uri_pattern(self):
        sig = concat(
            Const("http://www.reddit.com/search/.json?q="),
            Unknown("str"),
            Const("&sort="),
            Unknown("str"),
        )
        rx = compile_regex(sig)
        assert rx.match("http://www.reddit.com/search/.json?q=cats&sort=top")
        assert not rx.match("http://www.reddit.com/search/json?q=cats")

    def test_alt_compiles_to_pipe(self):
        sig = alt(Const("save"), Const("unsave"))
        rx = compile_regex(sig)
        assert rx.match("save") and rx.match("unsave")
        assert not rx.match("vote")

    def test_rep_compiles_to_star(self):
        sig = concat(Const("a"), rep(Const("x")), Const("b"))
        rx = compile_regex(sig)
        for s in ("ab", "axb", "axxxb"):
            assert rx.match(s)
        assert not rx.match("ayb")

    def test_json_object_regex_requires_keys(self):
        sig = JsonObject(((Const("user"), Unknown("str")),))
        rx = compile_regex(sig)
        assert rx.match('{"user": "bob"}')
        assert not rx.match('{"name": "bob"}')


class TestKeywords:
    def test_json_keys_counted(self):
        sig = JsonObject(
            (
                (Const("modhash"), Unknown("str")),
                (Const("cookie"), Unknown("str")),
            )
        )
        assert sorted(constant_keywords(sig)) == ["cookie", "modhash"]

    def test_query_string_keys_counted(self):
        sig = concat(Const("user="), Unknown("str"), Const("&passwd="), Unknown("str"))
        kws = constant_keywords(sig)
        assert "user" in kws and "passwd" in kws

    def test_nested_arrays(self):
        sig = JsonObject(
            ((Const("songs"), JsonArray(elem=JsonObject(((Const("title"), Unknown("str")),)))),)
        )
        kws = constant_keywords(sig)
        assert "songs" in kws and "title" in kws

    def test_origins_collected(self):
        sig = concat(Const("id="), Unknown("str", origin="response:1:$.after"))
        assert origins_of(sig) == {"response:1:$.after"}


# ---------------------------------------------------------------- property tests
terms = st.deferred(
    lambda: st.one_of(
        st.builds(Const, st.text(alphabet="abc/?=&.", max_size=6)),
        st.builds(Unknown, st.sampled_from(["str", "int"])),
        st.builds(lambda a, b: concat(a, b), terms, terms),
        st.builds(lambda a, b: alt(a, b), terms, terms),
        st.builds(rep, st.builds(Const, st.text(alphabet="xy", min_size=1, max_size=3))),
    )
)


class TestProperties:
    @given(terms)
    def test_regex_always_compiles(self, term):
        compile_regex(term)

    @given(terms, terms)
    def test_concat_associative_normal_form(self, a, b):
        # concat(a, concat(b)) and concat(concat(a, b)) normalise identically
        assert concat(a, concat(b)) == concat(concat(a, b))

    @given(terms)
    def test_alt_idempotent(self, t):
        assert alt(t, t) == t

    @given(st.lists(st.text(alphabet="ab=&x.", max_size=5), max_size=4))
    def test_const_roundtrip_match(self, parts):
        text = "".join(parts)
        rx = compile_regex(Const(text))
        assert rx.match(text)

    @given(terms)
    def test_walk_includes_self(self, t):
        assert t in list(t.walk())
