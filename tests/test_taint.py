"""Tests for def-use chains, demarcation scanning and the taint engine."""

from __future__ import annotations

from fixtures_http import CLS, build_mini_reddit

from repro.cfg import build_callgraph
from repro.ir import ProgramBuilder
from repro.slicing import DemarcationRegistry, scan_demarcation_points
from repro.taint import TaintConfig, TaintEngine, compute_defuse


def _method(program, name, cls=CLS):
    return program.class_of(cls).find_methods(name)[0]


class TestDefUse:
    def test_straightline_chain(self):
        pb = ProgramBuilder()
        m = pb.class_("t.A").method("m", static=True)
        a = m.let("a", "int", 1)
        b = m.binop("+", a, 2, into="b")
        c = m.binop("+", b, 3, into="c")
        m.ret_void()
        prog = pb.build()
        method = prog.class_of("t.A").find_methods("m")[0]
        du = compute_defuse(method)
        # use of `a` in the def of `b` reaches exactly a's definition
        b_def = du.def_sites[b][0]
        assert du.defs_reaching[(b_def, a)] == (du.def_sites[a][0],)

    def test_branch_merges_definitions(self):
        pb = ProgramBuilder()
        m = pb.class_("t.B").method("m", params=["int"], static=True)
        x = m.local("x", "int")
        m.if_goto(m.param(0), "==", 0, "ELSE")
        m.assign(x, 1)
        m.goto("JOIN")
        m.label("ELSE")
        m.assign(x, 2)
        m.label("JOIN")
        m.binop("+", x, 0, into="y")
        m.ret_void()
        prog = pb.build()
        method = prog.class_of("t.B").find_methods("m")[0]
        du = compute_defuse(method)
        use_idx = du.use_sites[x][-1]
        assert len(du.defs_reaching[(use_idx, x)]) == 2

    def test_redefinition_kills(self):
        pb = ProgramBuilder()
        m = pb.class_("t.C").method("m", static=True)
        x = m.let("x", "int", 1)
        m.assign(x, 2)
        m.binop("+", x, 0, into="y")
        m.ret_void()
        prog = pb.build()
        method = prog.class_of("t.C").find_methods("m")[0]
        du = compute_defuse(method)
        use_idx = du.use_sites[x][-1]
        reaching = du.defs_reaching[(use_idx, x)]
        assert len(reaching) == 1
        assert reaching[0] == du.def_sites[x][1]

    def test_loop_def_reaches_header_use(self, branchy_program):
        method = branchy_program.class_of("com.example.Branchy").find_methods("run")[0]
        du = compute_defuse(method)
        i_local = method.body.locals["i"]
        # `i` at the loop condition sees both the init def and the increment.
        cond_use = [
            u for u in du.use_sites[i_local]
        ][0]
        assert len(du.defs_reaching[(cond_use, i_local)]) == 2


class TestDemarcationScan:
    def test_finds_both_execute_sites(self):
        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        execs = [d for d in dps if d.spec.method_name == "execute"]
        assert len(execs) == 2
        for dp in execs:
            assert dp.request_seeds, "request seed missing"
            assert dp.response_seeds, "synchronous DP must seed from return"

    def test_registry_shape_matches_paper(self):
        reg = DemarcationRegistry()
        # §4: "39 demarcation points from 16 classes" — our registry is the
        # same order of magnitude and covers the same library families.
        assert len(reg) >= 20
        assert reg.class_count() >= 14
        assert reg.lookup("org.apache.http.client.HttpClient", "execute")
        assert reg.lookup("android.media.MediaPlayer", "setDataSource")


class TestBackwardSlicing:
    def test_request_slice_contains_uri_construction(self):
        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        dp = next(
            d
            for d in dps
            if d.site.method_id.endswith("doInBackground()>")
            and d.spec.method_name == "execute"
        )
        engine = TaintEngine(apk.program, cg)
        sl = engine.backward_slice(dp.request_seeds)
        texts = [
            str(apk.program.method_by_id(r.method_id).stmt_at(r.index))
            for r in sl.stmts
        ]
        joined = "\n".join(texts)
        assert "http://www.reddit.com" in joined
        assert "append" in joined
        assert "'/r/'" in joined  # branch A
        assert "'&after='" in joined  # branch B
        # the field read feeding the subreddit name is included
        assert "mSubreddit" in joined

    def test_request_slice_excludes_response_parsing(self):
        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        dp = next(
            d
            for d in dps
            if d.site.method_id.endswith("doInBackground()>")
            and d.spec.method_name == "execute"
        )
        engine = TaintEngine(apk.program, cg)
        sl = engine.backward_slice(dp.request_seeds)
        # The slice may cross into parseListing *only* through the mAfter
        # store (a genuine inter-transaction dependency); the unrelated
        # title-logging loop must stay out.
        texts = [
            str(apk.program.method_by_id(r.method_id).stmt_at(r.index))
            for r in sl.stmts
        ]
        joined = "\n".join(texts)
        assert "'title'" not in joined
        assert "Log" not in joined

    def test_field_store_chased_across_methods(self):
        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        dp = next(d for d in dps if d.site.method_id.endswith("loadMore()>"))
        engine = TaintEngine(apk.program, cg)
        sl = engine.backward_slice(dp.request_seeds)
        # loadMore's URI embeds this.mAfter, stored in parseListing
        assert any("parseListing" in r.method_id for r in sl.stmts)
        assert any(f.name == "mAfter" for f in sl.fields)

    def test_slice_is_fraction_of_program(self):
        apk = build_mini_reddit()
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        dp = next(d for d in dps if d.site.method_id.endswith("loadMore()>"))
        engine = TaintEngine(apk.program, cg)
        sl = engine.backward_slice(dp.request_seeds)
        assert 0 < len(sl) < apk.program.statement_count()


class TestForwardSlicing:
    def _forward(self, apk):
        cg = build_callgraph(apk.program)
        dps = scan_demarcation_points(apk.program, cg)
        dp = next(
            d
            for d in dps
            if d.site.method_id.endswith("doInBackground()>")
            and d.spec.method_name == "execute"
        )
        engine = TaintEngine(apk.program, cg)
        return engine.forward_slice(dp.response_seeds)

    def test_response_slice_reaches_parser(self):
        apk = build_mini_reddit()
        sl = self._forward(apk)
        assert any("parseListing" in r.method_id for r in sl.stmts)
        texts = [
            str(apk.program.method_by_id(r.method_id).stmt_at(r.index))
            for r in sl.stmts
        ]
        joined = "\n".join(texts)
        assert "getString" in joined
        assert "getJSONArray" in joined

    def test_response_taints_field_store(self):
        apk = build_mini_reddit()
        sl = self._forward(apk)
        assert any(f.name == "mAfter" for f in sl.fields)

    def test_noflow_call_not_propagated(self):
        apk = build_mini_reddit()
        sl = self._forward(apk)
        # Log.d uses the tainted title: the *call* joins the slice (it uses
        # tainted data) but nothing flows out of it.
        calls = [
            apk.program.method_by_id(r.method_id).stmt_at(r.index).invoke
            for r in sl.stmts
        ]
        assert any(
            (expr.sig.class_name, expr.sig.name) == ("android.util.Log", "d")
            and "title" in {str(arg) for arg in expr.args}
            for expr in calls
            if expr is not None
        )


class TestAsyncHops:
    def _two_hop_program(self):
        """server push stores token -> timer copies it -> request uses copy."""
        pb = ProgramBuilder()
        cb = pb.class_("t.Hoppy", superclass="android.app.Activity")
        cb.field("stage1", "java.lang.String")
        cb.field("stage2", "java.lang.String")
        on_push = cb.method("onPush", params=["java.lang.String"])
        on_push.putfield(on_push.this, "stage1", on_push.param(0), cls="t.Hoppy")
        on_push.ret_void()
        on_timer = cb.method("onTimer")
        v = on_timer.getfield(on_timer.this, "stage1", cls="t.Hoppy")
        on_timer.putfield(on_timer.this, "stage2", v, cls="t.Hoppy")
        on_timer.ret_void()
        send = cb.method("send")
        token = send.getfield(send.this, "stage2", cls="t.Hoppy")
        url = send.concat("http://x.test/", token, into="url")
        req = send.new("org.apache.http.client.methods.HttpGet", [url], into="req")
        client = send.local("client", "org.apache.http.client.HttpClient")
        send.assign(client, None)
        send.vcall(
            client,
            "execute",
            [req],
            returns="org.apache.http.HttpResponse",
            on="org.apache.http.client.HttpClient",
        )
        send.ret_void()
        return pb.build()

    def _slice_with(self, max_hops):
        prog = self._two_hop_program()
        cg = build_callgraph(prog)
        dps = scan_demarcation_points(prog, cg)
        dp = dps[0]
        roots = {
            "<t.Hoppy: void onPush(java.lang.String)>": frozenset({"push"}),
            "<t.Hoppy: void onTimer()>": frozenset({"timer"}),
            "<t.Hoppy: void send()>": frozenset({"ui"}),
        }
        engine = TaintEngine(
            prog, cg, TaintConfig(max_async_hops=max_hops), event_roots=roots
        )
        return engine.backward_slice(dp.request_seeds)

    def test_one_hop_reaches_timer_but_not_push(self):
        sl = self._slice_with(1)
        assert any("onTimer" in r.method_id for r in sl.stmts)
        assert not any("onPush" in r.method_id for r in sl.stmts)
        assert sl.missed_async_flows, "second hop should be recorded as missed"

    def test_zero_hops_stops_at_first_boundary(self):
        sl = self._slice_with(0)
        assert not any("onTimer" in r.method_id for r in sl.stmts)

    def test_two_hops_reaches_push(self):
        sl = self._slice_with(2)
        assert any("onPush" in r.method_id for r in sl.stmts)


class TestLinkedReturns:
    def test_asynctask_result_flows_to_onpostexecute(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.Task", superclass="android.os.AsyncTask")
        do = cb.method("doInBackground", returns="java.lang.String")
        client = do.local("client", "org.apache.http.client.HttpClient")
        do.assign(client, None)
        req = do.new("org.apache.http.client.methods.HttpGet", ["http://a.test/x"])
        resp = do.vcall(
            client,
            "execute",
            [req],
            returns="org.apache.http.HttpResponse",
            on="org.apache.http.client.HttpClient",
            into="resp",
        )
        body = do.scall(
            "org.apache.http.util.EntityUtils",
            "toString",
            [resp],
            returns="java.lang.String",
            into="body",
        )
        do.ret(body)
        post = cb.method("onPostExecute", params=["java.lang.String"])
        j = post.new("org.json.JSONObject", [post.param(0)], into="j")
        post.vcall(j, "getString", ["token"], returns="java.lang.String")
        post.ret_void()
        prog = pb.build()
        cg = build_callgraph(prog)
        dps = scan_demarcation_points(prog, cg)
        do_id = "<t.Task: java.lang.String doInBackground()>"
        post_id = "<t.Task: void onPostExecute(java.lang.String)>"
        engine = TaintEngine(
            prog, cg, linked_returns={do_id: [(post_id, 0)]}
        )
        sl = engine.forward_slice(dps[0].response_seeds)
        assert any("onPostExecute" in r.method_id for r in sl.stmts)
