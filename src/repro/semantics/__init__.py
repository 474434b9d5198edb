"""Semantic models of Android/Java APIs used for HTTP protocol processing."""
