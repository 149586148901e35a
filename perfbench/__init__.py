"""Benchmark for pplab: time to verdict, per-layer spans and counts."""
