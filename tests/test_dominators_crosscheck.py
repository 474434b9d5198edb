"""Cross-check our dominator implementation against networkx on random
control-flow graphs built from random branchy IR programs."""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings

from repro.cfg import cfg_of, immediate_dominators, natural_loops

from conftest import branchy_methods


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branchy_methods())
def test_idom_matches_networkx(method):
    cfg = cfg_of(method)
    g = nx.DiGraph()
    g.add_nodes_from(b.bid for b in cfg.blocks)
    for src, dests in cfg.succ.items():
        for d in dests:
            g.add_edge(src, d)
    entry = cfg.blocks[0].bid
    expected = dict(nx.immediate_dominators(g, entry))
    expected[entry] = entry  # networkx ≥3.6 omits the start self-mapping
    ours = immediate_dominators(cfg)
    reachable = set(expected)
    assert set(ours) == reachable
    for node in reachable:
        assert ours[node] == expected[node], (node, ours, expected)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branchy_methods())
def test_natural_loops_are_dominated_cycles(method):
    cfg = cfg_of(method)
    idom = immediate_dominators(cfg)
    from repro.cfg import dominates

    for loop in natural_loops(cfg):
        # header dominates every block of the loop
        for bid in loop.body:
            assert dominates(idom, loop.header, bid)
        # the latch has a back edge to the header
        assert loop.header in cfg.succ[loop.latch]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branchy_methods())
def test_rpo_is_topological_on_dag_edges(method):
    from repro.cfg import reverse_postorder

    cfg = cfg_of(method)
    rpo = reverse_postorder(cfg)
    position = {bid: i for i, bid in enumerate(rpo)}
    loops = natural_loops(cfg)
    back_edges = {(l.latch, l.header) for l in loops}
    for src, dests in cfg.succ.items():
        if src not in position:
            continue
        for d in dests:
            if (src, d) in back_edges:
                continue
            # forward (non-back) edges respect the RPO ordering unless the
            # target also closes some other cycle through retreating edges
            if position[src] > position[d]:
                # must be a retreating edge into an ancestor in the DFS —
                # only legal when d reaches src (a cycle exists)
                g = nx.DiGraph()
                for s2, ds in cfg.succ.items():
                    for d2 in ds:
                        g.add_edge(s2, d2)
                assert nx.has_path(g, d, src)
