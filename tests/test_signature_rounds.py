"""Signature rounds run to a fixpoint (paper §3.4: "multiple iterations
until it does not discover new dependencies").

A round that reads a heap field, DB table or preference which a later
store in the same round changes is stale and gets a next round; the first
round with no stale read is the last.  The fixtures below exercise each
cross-event channel the interpreter models: one entry point reads a value
that the other, evaluated after it, writes.  The guard replays one more
round over every golden run and checks that it changes nothing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from test_golden_reports import SYNTH_POPULATION

from repro import AnalysisConfig, Extractocol
from repro.apk import Apk, EntryPoint, Manifest, Resources, TriggerKind
from repro.ir import ProgramBuilder
from repro.obs.tracer import NULL_SPAN, Span
from repro.signature.builder import SignatureInterpreter

CLS = "com.example.session.SessionActivity"
HOST = "http://api.example.com"
TOKEN = "tok-42"


def _http_get(m, url) -> None:
    req = m.new("org.apache.http.client.methods.HttpGet", [url])
    client = m.local("client", "org.apache.http.client.HttpClient")
    m.assign(client, None)
    m.vcall(client, "execute", [req], returns="org.apache.http.HttpResponse",
            on="org.apache.http.client.HttpClient")


def _open_db(m):
    helper = m.local("helper", "android.database.sqlite.SQLiteOpenHelper")
    m.assign(helper, None)
    return m.vcall(helper, "getWritableDatabase", [],
                   returns="android.database.sqlite.SQLiteDatabase")


def _prefs(m):
    return m.vcall(m.this, "getSharedPreferences", ["session", 0],
                   returns="android.content.SharedPreferences",
                   on="android.app.Activity")


def _write(m, channel: str) -> None:
    if channel == "field":
        m.putfield(m.this, "mToken", TOKEN, cls=CLS)
    elif channel == "db":
        values = m.new("android.content.ContentValues")
        m.vcall(values, "put", ["token", TOKEN])
        m.vcall(_open_db(m), "insert", ["session", None, values], returns="long")
    else:
        editor = m.vcall(_prefs(m), "edit", [],
                         returns="android.content.SharedPreferences$Editor")
        m.vcall(editor, "putString", ["token", TOKEN],
                returns="android.content.SharedPreferences$Editor")
        m.vcall(editor, "apply", [])


def _read(m, channel: str):
    if channel == "field":
        return m.getfield(m.this, "mToken", cls=CLS)
    if channel == "db":
        # query(table, ...) leaves the columns open: the load reads every
        # column of the table
        cursor = m.vcall(_open_db(m), "query",
                         ["session", None, None, None, None, None, None],
                         returns="android.database.Cursor")
        m.vcall(cursor, "moveToFirst", [], returns="boolean")
        return m.vcall(cursor, "getString", [0], returns="java.lang.String")
    return m.vcall(_prefs(m), "getString", ["token", None],
                   returns="java.lang.String")


def build_session_app(channels: tuple[str, ...], *, reader_first: bool) -> Apk:
    """``login`` sends a request and stores ``TOKEN`` on each channel;
    ``loadFeed`` reads each channel into its request URI.  With
    ``reader_first`` the reader's entry point comes first, so round 1
    reads before the writer has stored anything."""
    pb = ProgramBuilder()
    cb = pb.class_(CLS, superclass="android.app.Activity")
    cb.field("mToken", "java.lang.String")

    w = cb.method("login")
    _http_get(w, f"{HOST}/login")
    for channel in channels:
        _write(w, channel)
    w.ret_void()

    r = cb.method("loadFeed")
    parts: list = [f"{HOST}/feed?"]
    for channel in channels:
        parts += [f"{channel}=", _read(r, channel), "&"]
    _http_get(r, r.concat(*parts[:-1], into="url"))
    r.ret_void()

    reader = EntryPoint(method_id=f"<{CLS}: void loadFeed()>",
                        kind=TriggerKind.UI, name="load feed")
    writer = EntryPoint(method_id=f"<{CLS}: void login()>",
                        kind=TriggerKind.LIFECYCLE, name="log in")
    return Apk(
        manifest=Manifest(package="com.example.session", activities=[CLS],
                          permissions=["android.permission.INTERNET"]),
        program=pb.build(),
        resources=Resources(),
        entrypoints=[reader, writer] if reader_first else [writer, reader],
    )


def _analyze(apk: Apk, config: AnalysisConfig | None = None):
    """(feed request URI, number of signature rounds that ran)."""
    root = Span("repro")
    report = Extractocol(config or AnalysisConfig(), span=root).analyze(apk)
    (uri,) = [str(t.request.uri) for t in report.transactions
              if "/feed" in str(t.request.uri)]
    return uri, _rounds(root)


def _rounds(span) -> int:
    return sum(1 for s in span.walk() if s.name.startswith("round-"))


class TestCrossEventChannels:
    @pytest.mark.parametrize("channel", ["db", "pref"])
    def test_single_round_misses_value_written_after_read(self, channel):
        """The reader runs first, so round 1 reads before the write; only a
        second round puts the written value into the reader's URI."""
        uri, rounds = _analyze(build_session_app((channel,), reader_first=True))
        assert TOKEN in uri and rounds == 2
        uri1, _ = _analyze(build_session_app((channel,), reader_first=True),
                           AnalysisConfig(rounds=1))
        assert TOKEN not in uri1

    def test_reads_after_writes_stop_after_one_round(self):
        apk = build_session_app(("field", "db", "pref"), reader_first=False)
        uri, rounds = _analyze(apk)
        assert uri.count(TOKEN) == 3
        assert rounds == 1


# ------------------------------------------------------------------- guard
#: the golden runs that need a second round: each reads a heap field
#: (``mAfter``, ``mStation``) before another event stores it
MULTI_ROUND_RUNS = {"diode:async_on", "diode:async_off", "radioreddit:async_on"}


def _golden_runs():
    from repro.corpus import app_keys
    from repro.service.jobs import resolve_target
    from repro.synth import expand_targets

    for key in app_keys():
        apk, config, _ = resolve_target(key)
        for heuristic, name in ((True, "async_on"), (False, "async_off")):
            yield f"{key}:{name}", apk, replace(config, async_heuristic=heuristic)
    for key in expand_targets([SYNTH_POPULATION]):
        apk, config, _ = resolve_target(key)
        yield key, apk, config


def _stores(interp: SignatureInterpreter):
    return (
        {k: list(v) for k, v in interp._field_store.items()},
        {k: list(v) for k, v in interp._db.items()},
        dict(interp._prefs),
    )


def _transactions(result):
    return [
        (t.txn_id, t.site, t.root, t.request, t.response_term, t.consumer)
        for t in result.transactions
    ]


@pytest.fixture(scope="module")
def guard_table():
    """Per golden run: (rounds the analysis ran, the extra round's
    changes).  The extra round is one more ``run()`` on the analysis's own
    interpreter: it starts from the stores the analysis left, so it stops
    after one round if the analysis ended on a clean round."""
    real_run = SignatureInterpreter.run
    seen = []

    def spy(self, roots, *, span=NULL_SPAN):
        result = real_run(self, roots, span=span)
        seen.append((self, roots, result))
        return result

    table = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SignatureInterpreter, "run", spy)
        for label, apk, config in _golden_runs():
            root = Span("repro")
            Extractocol(config, span=root).analyze(apk)
            (interp, roots, result), = seen
            seen.clear()
            stores, transactions = _stores(interp), _transactions(result)
            extra = Span("extra")
            rerun = real_run(interp, roots, span=extra)
            changed = [
                what
                for what, same in (
                    ("rounds", _rounds(extra) == 1),
                    ("stores", _stores(interp) == stores),
                    ("transactions", _transactions(rerun) == transactions),
                )
                if not same
            ]
            table[label] = (_rounds(root), changed)
    return table


def test_guard_covers_every_golden_run(guard_table):
    assert len(guard_table) == 34 * 2 + 100


def test_round_after_the_last_changes_nothing(guard_table):
    changed = {label: c for label, (_, c) in guard_table.items() if c}
    assert not changed, f"a further round changed state: {changed}"


def test_only_stale_runs_take_a_second_round(guard_table):
    multi = {label for label, (rounds, _) in guard_table.items() if rounds > 1}
    assert multi == MULTI_ROUND_RUNS
