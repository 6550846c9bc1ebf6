"""The hooks the benchmark relies on: ``bench/trace_stage.py`` runs every
stage and records the counts of its spans, every function that a
``per_layer`` metric of ``BENCHMARK.json`` names exists in ``src/``, and
every per-layer time is a span that the stages record. The same spans
show that every public function of the traced modules is pipeline code:
a stage reaches it, or it is listed with the reason it stays.

These tests read ``bench/`` and ``BENCHMARK.json`` and change nothing
there; they fail when a rename or deletion in ``src/`` would leave the
benchmark reading zeros.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ls_ledger.fixtures import example_records, write_records

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("ingest", "overview", "graph", "closures", "match", "relations", "neighborhoods")

# span -> the counts bench/trace_stage.py records for it
COUNTED_SPANS = {
    "ledger_ingest.parse_records": {"lines", "issues"},
    "snapshot.save_bundle": {"bytes"},
    "graph_metrics.null_model_triangles.cert": {"samples", "edges"},
    "graph_metrics.null_model_triangles.txmm": {"samples", "edges"},
    "graph_metrics.distance_distribution": {"pairs"},
    "temporal_metrics.closure_distribution.k2": {"links", "infinite"},
    "temporal_metrics.closure_distribution.k3": {"links", "infinite"},
}

# per_layer metrics that already read 0 and are to be replaced in the
# benchmark itself (ROADMAP item 2, "Stale per-layer metrics")
STALE = {
    "temporal_metrics.aggregated_neighborhood",
    "temporal_metrics.neighborhood_overlap",
    "graph_metrics.triangle_count",
}

# per_layer times that no stage records, each with the reason; the
# benchmark reads them as 0
UNRECORDED = dict.fromkeys(STALE, "no such function is left in src/")

# public functions of the traced modules that no stage reaches on the
# example ledger, each with the reason it stays in src/
UNREACHED = {
    "stream_core.activity": "library API, in ls_ledger.__all__",
    "cli.run": "the process entry point, which bench/trace_stage.py bypasses",
}


@pytest.fixture(scope="module")
def example_spans(tmp_path_factory) -> list[list]:
    """The spans of every stage run on the example ledger through
    ``bench/trace_stage.py``, in stage order."""
    tmp_path = tmp_path_factory.mktemp("traced")
    ledger = tmp_path / "ledger.jsonl"
    write_records(ledger, example_records())
    out, spans_dir = tmp_path / "out", tmp_path / "spans"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans = []
    for stage in STAGES:
        options = {
            "ingest": ["--input", str(ledger), "--remuniter", "w"],
            "graph": ["--samples", "5"],
        }.get(stage, [])
        path = spans_dir / f"{stage}.json"
        proc = subprocess.run(
            [sys.executable, "bench/trace_stage.py", str(path), stage, "--out", str(out), *options],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (stage, proc.stderr)
        spans += json.loads(path.read_text())
    return spans


def test_trace_stage_counts_every_stage(example_spans):
    spans = example_spans
    counts = {name: counts for name, _, _, _, counts in spans if name in COUNTED_SPANS}
    for name, keys in COUNTED_SPANS.items():
        assert name in counts, f"no span {name}"
        assert set(counts[name] or ()) == keys, name
    assert counts["graph_metrics.null_model_triangles.cert"]["samples"] == 5
    # len() of the undirected edges counts the 5 distinct unordered pairs
    assert counts["graph_metrics.null_model_triangles.cert"]["edges"] == 5
    assert counts["graph_metrics.null_model_triangles.txmm"]["edges"] == 5
    assert counts["temporal_metrics.closure_distribution.k2"]["links"] == 12


def test_per_layer_metrics_name_public_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in metrics:
        module, name = metric["name"].split(".")[:2]
        if module == "trace":  # the tracer's own totals
            continue
        if module == "cli":  # cli.<stage>.*: the span of cmd_<stage>
            name = f"cmd_{name}"
        if f"{module}.{name}" in STALE:
            continue
        fn = getattr(importlib.import_module(f"ls_ledger.{module}"), name, None)
        # bench/trace_stage.py wraps exactly the public, non-generator
        # functions defined in each module
        assert inspect.isfunction(fn), metric["name"]
        assert fn.__module__ == f"ls_ledger.{module}", metric["name"]
        assert not name.startswith("_") and not inspect.isgeneratorfunction(fn), metric["name"]


def test_per_layer_times_are_recorded_spans(example_spans):
    recorded = {name for name, _, _, _, _ in example_spans}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # a time X.s is the span X; cli.<stage>.self_s and the trace totals are not spans
    timed = {m["name"].removesuffix(".s") for m in metrics if m["name"].endswith(".s")}
    assert timed - recorded == UNRECORDED.keys()


def test_every_public_function_is_reached_or_listed(example_spans):
    spec = importlib.util.spec_from_file_location("trace_stage", ROOT / "bench" / "trace_stage.py")
    trace_stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_stage)
    public = set()
    for short in trace_stage.MODULES:
        mod = importlib.import_module(f"ls_ledger.{short}")
        public |= {
            f"{short}.{name}"
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        }
    # a span is named module.function, with a suffix for some kernels
    reached = {".".join(name.split(".")[:2]) for name, _, _, _, _ in example_spans}
    assert public - reached == set(UNREACHED)
