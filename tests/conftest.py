"""Shared fixtures: tiny hand-built IR programs used across test modules,
and the hypothesis strategy that draws random branchy methods."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.ir import ProgramBuilder


def build_branchy_program() -> ProgramBuilder:
    """A class with a diamond branch and a loop, used by IR/CFG tests.

    void run(int flag):
        s = "base"
        if flag == 0 goto ELSE
        s = s + "/a"
        goto JOIN
      ELSE:
        s = s + "/b"
      JOIN:
        i = 0
      LOOP:
        if i >= 3 goto DONE
        s = s + "x"
        i = i + 1
        goto LOOP
      DONE:
        sink(s)
    """
    pb = ProgramBuilder()
    cb = pb.class_("com.example.Branchy")
    sink = cb.method("sink", params=["java.lang.String"])
    sink.ret_void()

    m = cb.method("run", params=["int"])
    s = m.let("s", "java.lang.String", "base")
    m.if_goto(m.param(0), "==", 0, "ELSE")
    sa = m.concat(s, "/a")
    m.assign(s, sa)
    m.goto("JOIN")
    m.label("ELSE")
    sb = m.concat(s, "/b")
    m.assign(s, sb)
    m.label("JOIN")
    i = m.let("i", "int", 0)
    m.label("LOOP")
    m.if_goto(i, ">=", 3, "DONE")
    sx = m.concat(s, "x")
    m.assign(s, sx)
    i2 = m.binop("+", i, 1)
    m.assign(i, i2)
    m.goto("LOOP")
    m.label("DONE")
    m.call_this("sink", [s])
    m.ret_void()
    return pb


@pytest.fixture
def branchy_program():
    pb = build_branchy_program()
    return pb.build()


@st.composite
def branchy_methods(draw):
    """A random method: a sequence of blocks with random forward/backward
    branches (labels always exist, so the program is valid by construction).
    An ``if`` may jump back to any block, its own included, or to the next
    one, which makes its branch target equal its fall-through."""
    n_blocks = draw(st.integers(2, 8))
    pb = ProgramBuilder()
    m = pb.class_("r.App").method("go", params=["int"], static=False)
    x = m.let("x", "int", 0)
    labels = [f"B{i}" for i in range(n_blocks)]
    for i in range(n_blocks):
        m.label(labels[i])
        nxt = m.binop("+", x, i)
        m.assign(x, nxt)
        kind = draw(st.sampled_from(["fall", "if", "goto"]))
        if kind == "if":
            target = draw(st.sampled_from(labels))
            m.if_goto(m.param(0), ">", i, target)
        elif kind == "goto" and i + 1 < n_blocks:
            target = draw(st.sampled_from(labels[i + 1:]))
            m.goto(target)
    m.ret_void()
    program = pb.build()
    return program.class_of("r.App").find_methods("go")[0]
