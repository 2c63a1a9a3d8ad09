"""Tests of the benchmark harness (``pytest bench/tests``)."""
