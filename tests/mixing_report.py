"""How far the null model's swap chain gets at shorter budgets.

    PYTHONPATH=src python tests/mixing_report.py

For the cert and txmm graphs of the golden ledgers (``test_golden.CASES``),
the three benchmark ledgers at ``--seed 1`` and the north-star ledger, this
runs the chains of null-model samples 0 .. SAMPLES - 1 of seed SEED (the
generators ``null_model_triangles`` gives them) and prints, at each budget of
BUDGETS swap attempts per edge, the triangle count, the share of the
original edges still present and the acceptance share (swaps made over
attempts, from the first attempt on): the range over the chains, one
Markdown table row per graph. Each budget is a prefix of one 10m chain, run
in segments (``test_swap_kernel.test_chains_compose``), so the 10m column is
what the null model samples. The chains run on ``oracles.double_edge_swap``,
which draws as the null model's kernel does and counts the swaps it makes.
Read Ray, Pinar & Seshadhri, *Are we there yet? When to stop a Markov chain
while generating random graphs* (WAW 2012), for why the edge and the
acceptance shares are watched.

The benchmark ledgers come from ``bench/workloads.py``, which this script
loads but does not change. Pytest does not collect this module; the
generated ledgers go to a temporary directory. The run takes about 15 s on
a 2-core x86-64 VM, most of it the north-star ledger's chains.
"""

from __future__ import annotations

import random
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path

import numpy as np

import oracles
from ls_ledger import ledger_ingest
from ls_ledger.fixtures import format_record
from ls_ledger.graph_metrics import _node_triangles, clustering
from ls_ledger.stream_core import induced_graph, substream_by_class

BUDGETS = (0.5, 1, 2, 3, 5, 10)  # swap attempts per edge
SEED = 0  # the CLI's default --seed
SAMPLES = 3

# name -> (generator of bench/workloads.py, seed, its sizes), the benchmark
# ledgers as bench/run.py makes them at --seed 1, then the north-star ledger
GENERATED = {
    "realsize-uniform": ("uniform", 1, (500, 125, 5_000, 12_500)),
    "nullmodel-clustered": ("clustered", 1, (100, 25, 200, 500)),
    "anon-dirty": ("dirty", 1, (300, 3_000, 1_000, 40_000)),
    "north-star": ("clustered", 1, (3_000, 750, 30_000, 75_000)),
}


def graphs(lines) -> dict:
    """The cert and txmm graphs of the ledger read from record ``lines``."""
    identities, certs, txs, _ = ledger_ingest.parse_records(lines)
    keys, members = ledger_ingest.classify_keys(identities, txs)
    cert, tx = ledger_ingest.build_streams(certs, txs, keys, members)
    tx_mm = substream_by_class(tx, members, "MM")
    return {"cert": induced_graph(cert), "txmm": induced_graph(tx_mm)}


def chains(g, seed: int = SEED, samples: int = SAMPLES) -> list[list[tuple[int, float, float]]]:
    """Per null-model sample 0 .. ``samples`` - 1 of ``seed`` on ``g``, which
    has at least 2 edges: the triangle count, the share of g's edges still
    present and the share of the attempts so far that made a swap, after
    each budget of BUDGETS."""
    m, n = g.ends.shape[1], len(g.nodes)
    original = g.ends[0] * n + g.ends[1]  # each row holds u < v, as the swaps keep it
    result = []
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)  # as null_model_triangles seeds sample i
        edges, done, made, row = list(zip(*g.ends.tolist())), 0, 0, []
        for budget in BUDGETS:
            stop = int(budget * m)
            edges, swaps = oracles.double_edge_swap(edges, rng, stop - done)
            done, made = stop, made + swaps
            a, b = np.array(edges, dtype=np.int64).T
            triangles = int(_node_triangles(a, b, g.rank).sum()) // 3
            row.append((triangles, float(np.isin(a * n + b, original).mean()), made / stop))
        result.append(row)
    return result


def _span(values, spec: str) -> str:
    low, high = format(min(values), spec), format(max(values), spec)
    return low if low == high else f"{low}–{high}"


def table_row(name: str, g) -> str:
    """One Markdown row: the graph, its edges and observed triangles, then
    per budget the triangle counts, the edge shares and the acceptance
    shares over the chains."""
    cells = []
    for column in zip(*chains(g)):
        triangles, kept, accepted = zip(*column)
        shares = (_span([100 * x for x in xs], ".1f") for xs in (kept, accepted))
        cells.append(f"{_span(triangles, ',')} / {'% / '.join(shares)}%")
    return f"| {name}, m = {g.ends.shape[1]:,} (obs. {clustering(g)[3]:,}) | {' | '.join(cells)} |"


def _golden_ledgers():
    from test_golden import CASES

    seen = set()
    for case, (make_records, _, _) in sorted(CASES.items()):
        lines = tuple(map(format_record, make_records()))
        if lines not in seen:  # random77 runs under three option sets
            seen.add(lines)
            yield case, lines


def _generated_ledgers(workdir: Path):
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    import workloads

    for name, (generator, seed, sizes) in GENERATED.items():
        ledger = getattr(workloads, generator)(workdir / f"{name}.jsonl", seed, *sizes)
        yield name, ledger.path.read_text(encoding="utf-8").splitlines()


def main() -> None:
    started = time.perf_counter()
    budgets = " | ".join(f"{b:g}m" for b in BUDGETS)
    print(f"| graph | {budgets} |")
    print("|---" * (len(BUDGETS) + 1) + "|")
    with tempfile.TemporaryDirectory() as tmp:
        for ledger, lines in chain(_golden_ledgers(), _generated_ledgers(Path(tmp))):
            for name, g in graphs(lines).items():
                if g.ends.shape[1] >= 2:  # the null model's own condition
                    print(table_row(f"{ledger} {name}", g), flush=True)
    print(f"\n{time.perf_counter() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
