"""Evaluation harness: regenerates every table and figure of paper §5.

(The package is named ``evalx`` to avoid shadowing the builtin ``eval``.)
"""
