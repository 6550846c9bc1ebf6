"""The kernels whose results the stage tracer reads by name return tuples.

``bench/trace_stage.py`` counts the work of a call from its result by
attribute (``r.samples``, ``r.total()``, ``r.k``, ``r.results``,
``r.infinite_count``, ``len(r.identities)``), and ``cli`` unpacks the same
results as tuples; so each is a named tuple with exactly these fields, in
this order.
"""

import pytest

from oracles import example_stream
from ls_ledger import graph_metrics, interplay, ledger_ingest, temporal_metrics
from ls_ledger.fixtures import example_records, format_record
from ls_ledger.stream_core import induced_graph


def _graph():
    return induced_graph(example_stream()[0])


KERNELS = {
    "parse_records": (
        lambda: ledger_ingest.parse_records(map(format_record, example_records())),
        ("identities", "certifications", "transactions", "issues"),
    ),
    "null_model_triangles": (
        lambda: graph_metrics.null_model_triangles(_graph(), 1, samples=3),
        ("observed", "samples", "mean", "std", "ratio"),
    ),
    "distance_distribution": (
        lambda: graph_metrics.distance_distribution([0, 0], [1, 3], _graph()),
        ("counts", "unreachable"),
    ),
    "closure_distribution": (
        lambda: temporal_metrics.closure_distribution(example_stream()[0], k=3),
        ("k", "results", "infinite_count"),
    ),
    "relation_sets": (
        lambda: interplay.relation_sets(example_stream()[0]),
        ("pairs", "bi"),
    ),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_result_is_a_tuple_of_its_named_fields(kernel):
    run, fields = KERNELS[kernel]
    result = run()
    assert isinstance(result, tuple)
    assert result._fields == fields
    assert all(value is getattr(result, name) for name, value in zip(fields, result))
