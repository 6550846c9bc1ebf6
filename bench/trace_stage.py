"""Run one ls-ledger stage with every public function of the package timed.

    PYTHONPATH=src python3 bench/trace_stage.py SPANS.json STAGE --out DIR
        [--input PATH] [--remuniter KEY] [--samples N] [--seed N]

The stage runs by calling ``cli.cmd_<STAGE>`` with the configuration that
``ls-ledger STAGE`` builds from the same options, without click's
dispatch. Before it runs, each public module-level function of the
modules in ``MODULES`` is replaced, in every module that binds it, by a
wrapper that records a span: name, start, end, the enclosing span, and
counts of the work done for the few functions listed in ``COUNTS``. Spans
stay in memory and go to SPANS.json when the stage ends, never into the
``--out`` directory, whose files the benchmark compares byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = (
    "ledger_ingest",
    "snapshot",
    "stream_core",
    "graph_metrics",
    "temporal_metrics",
    "interplay",
    "cli",
)

# span name -> counts of the work a call did, from (positional args, result)
COUNTS = {
    "ledger_ingest.parse_records": lambda a, r: {
        "lines": len(r.identities) + len(r.certifications) + len(r.transactions) + len(r.issues),
        "issues": len(r.issues),
    },
    "snapshot.save_bundle": lambda a, r: {"bytes": Path(r).stat().st_size},
    "graph_metrics.null_model_triangles": lambda a, r: {
        "samples": len(r.samples),
        "edges": len(a[0].undirected_edges()),
    },
    "graph_metrics.distance_distribution": lambda a, r: {"pairs": r.total()},
    "temporal_metrics.closure_distribution": lambda a, r: {
        "links": len(r.results),
        "infinite": r.infinite_count,
    },
}

# cmd_graph runs the null model on the cert graph, then on the txmm graph
NULL_MODEL_GRAPHS = ("cert", "txmm")


class Tracer:
    """Spans as [name, start, end, parent index (-1 at top), counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; return its result and the span."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
        return result, record

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, record = self.call(name, fn, *args, **kwargs)
            if counts is not None:
                record[4] = counts(args, result)
            if name == "temporal_metrics.closure_distribution":
                record[0] = f"{name}.k{result.k}"
            elif name == "graph_metrics.null_model_triangles":
                done = sum(s[0].startswith(name + ".") for s in self.spans)
                graph = NULL_MODEL_GRAPHS[done] if done < len(NULL_MODEL_GRAPHS) else "other"
                record[0] = f"{name}.{graph}"
            return result

        return traced

    def install(self, package: str) -> None:
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrapped[fn] = self.wrap(f"{short}.{name}", fn)
        for mod in [importlib.import_module(package), *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", type=Path)
    parser.add_argument("stage")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--input", type=Path)
    parser.add_argument("--remuniter")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    tracer = Tracer()
    try:
        cli, _ = tracer.call("cli.import", importlib.import_module, "ls_ledger.cli")
        from ls_ledger.errors import LedgerError

        tracer.install("ls_ledger")
        options = {
            "input_path": args.input,
            "remuniter": args.remuniter,
            "samples": args.samples,
            "seed": args.seed,
        }
        cfg = cli.RunConfig(out_dir=args.out, **{k: v for k, v in options.items() if v is not None})
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            getattr(cli, f"cmd_{args.stage}")(cfg)
        except (LedgerError, ValueError, KeyError) as err:
            print(f"Error: {err}", file=sys.stderr)
            return 1
        return 0
    finally:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
