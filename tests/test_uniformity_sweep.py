"""The uniformity sweep's 10m statistic is the committed test's."""

import uniformity_sweep
from oracles import graph_of, rewired_samples
from test_null_uniformity import CASES, NODES, SEED, chi_square, degrees_of, simple_graphs


def test_sweep_at_10m_is_the_null_uniformity_statistic():
    case = "3,3,2,2,1,1"
    edges, samples = CASES[case]
    drawn = rewired_samples(graph_of(NODES, edges), samples, SEED)
    expected = chi_square(drawn, simple_graphs(degrees_of(edges)))
    assert uniformity_sweep.chi_squares(case, SEED, ("10m",)) == {"10m": expected}
