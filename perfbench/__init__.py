"""Benchmark of the ``atlm`` command line, run in process; see README.md."""
