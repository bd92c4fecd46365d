"""Measurement instrumentation for the section 5 evaluation."""

from repro.metrics.overhead import (
    NODE_RECORD_BYTES,
    TreeStats,
    measure_tree,
)
from repro.metrics.report import Table, format_table
from repro.metrics.resident import resident_bytes, resident_census

__all__ = [
    "NODE_RECORD_BYTES",
    "TreeStats",
    "measure_tree",
    "Table",
    "format_table",
    "resident_bytes",
    "resident_census",
]
