"""Bidirectional static taint analysis (the FlowDroid substitute)."""
