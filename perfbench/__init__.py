"""End-to-end and per-layer benchmark of chdbc; run.py is the entry point."""
