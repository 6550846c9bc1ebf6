"""How often the null model fails the uniformity gate, per swap budget.

    PYTHONPATH=src python tests/uniformity_sweep.py [--seeds N]

For every seed 0 .. N - 1 (default 100), each of the three cases of
``test_null_uniformity`` draws that case's number of samples with the null
model's per-sample seeds (``seed * 1_000_003 + i``), from the start graph's
edges in the order ``null_model_triangles`` takes them, and computes the
test's chi-square statistic at each budget of BUDGETS swap attempts, m
being the case's edge count. A seed fails a case at a budget when the
statistic is not below the p = 0.001 critical value, as the test asserts.
Each budget is a prefix of one chain, run in segments
(``test_swap_kernel.test_chains_compose``), so the 10m statistic is the one
the committed test computes at its seed. The script prints one Markdown
row per budget: the share of seeds that fail each case and any case. A
sampler that is uniform fails each case at about 0.1% of seeds.

Pytest does not collect this module. 100 seeds take about 16 minutes on
one core of a 2-core x86-64 VM.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from oracles import graph_of
from test_null_uniformity import CASES, CRITICAL, NODES, chi_square, degrees_of, simple_graphs
from ls_ledger.graph_metrics import _double_edge_swap

# label -> swap attempts for a graph of m edges
BUDGETS = {
    "3m": lambda m: 3 * m,
    "5m": lambda m: 5 * m,
    "max(3m, 200)": lambda m: max(3 * m, 200),
    "max(3m, 1,000)": lambda m: max(3 * m, 1_000),
    "10m": lambda m: 10 * m,
}


def chi_squares(case: str, seed: int, budgets=tuple(BUDGETS)) -> dict[str, float]:
    """The chi-square statistic of ``case``'s samples at ``seed`` after each
    of ``budgets``, labels of BUDGETS."""
    edges, samples = CASES[case]
    g = graph_of(NODES, edges)
    us, vs = g.ends.tolist()
    nodes = g.nodes.tolist()
    stops = {label: BUDGETS[label](len(us)) for label in budgets}
    drawn = {stop: [] for stop in sorted(set(stops.values()))}
    for i in range(samples):
        rng = random.Random(seed * 1_000_003 + i)  # as null_model_triangles seeds sample i
        columns, done = (us, vs), 0
        for stop, found in drawn.items():
            columns = _double_edge_swap(*columns, len(nodes), rng, stop - done)
            done = stop
            found.append([(nodes[u], nodes[v]) for u, v in zip(*columns)])
    graphs = simple_graphs(degrees_of(edges))
    return {label: chi_square(drawn[stop], graphs) for label, stop in stops.items()}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    critical = {case: CRITICAL[len(simple_graphs(degrees_of(CASES[case][0]))) - 1] for case in CASES}
    failed = {label: {case: set() for case in CASES} for label in BUDGETS}
    for seed in range(args.seeds):
        for case in CASES:
            for label, value in chi_squares(case, seed).items():
                if value >= critical[case]:
                    failed[label][case].add(seed)
    print(f"| budget | {' | '.join(sorted(CASES))} | any case |")
    print("|---" * (len(CASES) + 2) + "|")
    for label, by_case in failed.items():
        cells = [len(by_case[case]) for case in sorted(CASES)] + [len(set().union(*by_case.values()))]
        print(f"| {label} | {' | '.join(f'{100 * c / args.seeds:.1f}%' for c in cells)} |")
    print(f"\n{args.seeds} seeds, {time.perf_counter() - started:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
