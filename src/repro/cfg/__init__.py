"""Graph substrate: basic blocks, CFGs, dominators/loops, call graph."""
