"""Directed link-stream analytics for coupled certification and
transaction ledgers.

The names below come from :mod:`ls_ledger.stream_core` and load on first
use, so importing the package (as ``python -m ls_ledger.cli`` does before
it runs ``cli``) imports neither numpy nor any submodule.
"""

__version__ = "0.1.0"

__all__ = [
    "BinnedSeries",
    "InducedGraph",
    "Link",
    "LinkStream",
    "NodeClass",
    "NodeClassification",
    "NodeTable",
    "activity",
    "activity_series",
    "build_stream",
    "induced_graph",
    "rolling_sum",
    "substream_by_class",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import stream_core

    value = getattr(stream_core, name)
    globals()[name] = value
    return value
