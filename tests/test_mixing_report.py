"""The mixing report's chains end where the null model's samples do."""

import pytest

import mixing_report
from ls_ledger.fixtures import example_records, format_record, random_records
from ls_ledger.graph_metrics import clustering, null_model_triangles

LEDGERS = {
    "example": example_records,
    "random77": lambda: random_records(77, n_members=10, n_certs=60, n_txs=90),
}


@pytest.mark.parametrize("ledger", sorted(LEDGERS))
@pytest.mark.parametrize("seed", [0, 5])
def test_last_budget_is_the_null_model_sample(ledger, seed):
    graphs = mixing_report.graphs(map(format_record, LEDGERS[ledger]()))
    assert mixing_report.BUDGETS[-1] == 10
    for name, g in graphs.items():
        rows = mixing_report.chains(g, seed=seed, samples=3)
        assert [len(row) for row in rows] == [len(mixing_report.BUDGETS)] * 3
        expected = null_model_triangles(g, clustering(g)[3], samples=3, seed=seed).samples
        assert tuple(row[-1][0] for row in rows) == expected, name
        assert all(0.0 <= kept <= 1.0 for row in rows for _, kept, _ in row), name
        assert all(0.0 <= accepted <= 1.0 for row in rows for _, _, accepted in row), name
