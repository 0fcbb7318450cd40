"""Benchmark harness for the dualquant library; see bench/README.md."""
