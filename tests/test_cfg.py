"""Unit tests for basic blocks, CFG, dominators/loops and the call graph."""

from __future__ import annotations

from repro.cfg import (
    ICFG,
    build_callgraph,
    cfg_of,
    dominates,
    immediate_dominators,
    loop_info,
    natural_loops,
    partition_blocks,
    reverse_postorder,
)
from repro.ir import ProgramBuilder


def _run_method(program):
    return program.class_of("com.example.Branchy").find_methods("run")[0]


class TestBlocks:
    def test_partition_counts(self, branchy_program):
        blocks = partition_blocks(_run_method(branchy_program))
        # entry, then-branch, else, join, loop-header, loop-body, done
        assert len(blocks) == 7
        assert blocks[0].start == 0

    def test_blocks_cover_all_statements(self, branchy_program):
        method = _run_method(branchy_program)
        blocks = partition_blocks(method)
        covered = [s.index for b in blocks for s in b]
        assert covered == list(range(len(method.body.statements)))

    def test_empty_body(self):
        pb = ProgramBuilder()
        cb = pb.class_("t.I", is_interface=True)
        m = cb.abstract_method("m")
        assert partition_blocks(m) == []


class TestCFG:
    def test_diamond_edges(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        entry = cfg.blocks[0]
        succs = cfg.successors(entry)
        assert len(succs) == 2  # then + else
        join_targets = {tuple(cfg.succ[s.bid]) for s in succs}
        # both branches flow to the same join block
        flat = {t for ts in join_targets for t in ts}
        assert len(flat) == 1

    def test_stmt_level_adjacency_is_consistent(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        for src, dests in cfg.stmt_succ.items():
            for d in dests:
                assert src in cfg.stmt_pred[d]

    def test_cfg_cache(self, branchy_program):
        """The per-analysis ProgramIndex and each ICFG memoize CFGs;
        ``cfg_of`` itself builds afresh, so no process-wide table pins
        method bodies."""
        from repro.perf.index import ProgramIndex

        method = _run_method(branchy_program)
        index = ProgramIndex(branchy_program)
        assert index.cfg_of(method) is index.cfg_of(method)
        icfg = ICFG(branchy_program)
        assert icfg.cfg(method) is icfg.cfg(method.method_id)
        assert cfg_of(method) is not cfg_of(method)


class TestDominators:
    def test_rpo_starts_at_entry(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        rpo = reverse_postorder(cfg)
        assert rpo[0] == cfg.blocks[0].bid
        assert len(rpo) == len(cfg.blocks)

    def test_entry_dominates_all(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        idom = immediate_dominators(cfg)
        entry = cfg.blocks[0].bid
        for bid in idom:
            assert dominates(idom, entry, bid)

    def test_branch_does_not_dominate_join(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        idom = immediate_dominators(cfg)
        entry = cfg.blocks[0]
        then_b, else_b = cfg.successors(entry)
        join = cfg.successors(then_b)[0]
        assert not dominates(idom, then_b.bid, join.bid)
        assert not dominates(idom, else_b.bid, join.bid)

    def test_loop_detection(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        loops = natural_loops(cfg)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header in loop.body
        assert loop.latch in loop.body

    def test_loop_info_roles(self, branchy_program):
        cfg = cfg_of(_run_method(branchy_program))
        info = loop_info(cfg)
        assert len(info.headers) == 1
        header = next(iter(info.headers))
        assert info.is_header(header)
        assert info.in_loop(header)


class TestCallGraph:
    def _program_with_calls(self):
        pb = ProgramBuilder()
        base = pb.class_("c.Base")
        bm = base.method("handle", params=["java.lang.String"])
        bm.ret_void()
        sub = pb.class_("c.Sub", superclass="c.Base")
        sm = sub.method("handle", params=["java.lang.String"])
        sm.ret_void()
        caller = pb.class_("c.Caller")
        caller.field("target", "c.Base")
        cm = caller.method("go")
        tgt = cm.getfield(cm.this, "target", cls="c.Caller")
        cm.vcall(tgt, "handle", ["x"], on="c.Base")
        cm.scall("java.lang.System", "currentTimeMillis", [], returns="long")
        cm.ret_void()
        return pb.build()

    def test_cha_includes_subclass_targets(self):
        prog = self._program_with_calls()
        cg = build_callgraph(prog)
        all_targets = {t for ts in cg.targets.values() for t in ts}
        assert any("c.Base" in t and "handle" in t for t in all_targets)
        assert any("c.Sub" in t and "handle" in t for t in all_targets)

    def test_library_call_recorded(self):
        prog = self._program_with_calls()
        cg = build_callgraph(prog)
        lib_sigs = {e.sig.qualified_name for e in cg.library_sites.values()}
        assert "java.lang.System.currentTimeMillis" in lib_sigs

    def test_reachability(self, branchy_program):
        cg = build_callgraph(branchy_program)
        run_id = (
            branchy_program.class_of("com.example.Branchy")
            .find_methods("run")[0]
            .method_id
        )
        reachable = cg.reachable_from([run_id])
        assert any("sink" in mid for mid in reachable)

    def test_implicit_edge_injection(self, branchy_program):
        cg = build_callgraph(branchy_program)
        cls = branchy_program.class_of("com.example.Branchy")
        run = cls.find_methods("run")[0]
        sink = cls.find_methods("sink")[0]
        site = run.stmt_ref(run.body.statements[0])
        cg.add_implicit_edge(site, sink.method_id, "test")
        assert sink.method_id in cg.callees_of(site)
        assert site in cg.callers_of(sink.method_id)


class TestICFG:
    def test_navigation(self, branchy_program):
        icfg = ICFG(branchy_program)
        run = _run_method(branchy_program)
        entry = icfg.entry_ref(run)
        assert icfg.stmt_of(entry) is run.body.statements[0]
        succs = icfg.succ_refs(entry)
        assert succs and all(r.method_id == run.method_id for r in succs)
        # predecessor of successor includes entry
        assert entry in icfg.pred_refs(succs[0])

    def test_return_refs(self, branchy_program):
        icfg = ICFG(branchy_program)
        run = _run_method(branchy_program)
        rets = icfg.return_refs(run)
        assert len(rets) >= 1
