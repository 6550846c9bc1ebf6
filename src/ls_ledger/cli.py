"""Command-line front end: ingestion, metric computation, CSV export.

Every output is UTF-8 CSV with comma separators. Each file starts with
``#``-prefixed comment lines recording the command and the configuration
knobs that influenced it (seed included), followed by one header row.
Given the same input and configuration, reruns produce byte-identical
output directories.

Each stage runs as its own process, so a command imports its metric
module itself and calls through it: a process loads only the metric code
its stage runs. :func:`run` is that process's entry point.
"""

import gc

if __name__ == "__main__":
    # a stage process keeps what its imports build until it exits, so the
    # cyclic collector has nothing to free while they load; run() freezes
    # it all and turns collection back on. Only the builtin gc is imported
    # above this line (no __future__ import either), so every module loads
    # with collection off.
    gc.disable()

from dataclasses import dataclass, replace
from itertools import chain, repeat, starmap
from pathlib import Path

import click
import numpy as np

from . import snapshot, stream_core
from .atomic import atomic_file
from .errors import LedgerError

DEFAULT_BIN = 86_400  # one day
DEFAULT_WINDOW = 2_592_000  # 30 days
DEFAULT_SAMPLES = 100


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    input_path: Path | None = None
    remuniter: str | None = None
    window: int = DEFAULT_WINDOW
    bin_width: int = DEFAULT_BIN
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    strict: bool = False
    ordered_pairs: bool = False

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        if self.window < self.bin_width:
            raise ValueError("window must be at least the bin width")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def _fmt(x, places: int = 4) -> str:
    """Fractions with a fixed number of decimals; None becomes NA."""
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.{places}f}"
    return str(x)


def _write_csv(path: Path, comments: list[str], header: str, rows) -> None:
    """Write the comment lines, the header and one line per row, each row
    holding one value per header column."""
    line = ",".join(["{}"] * len(header.split(","))) + "\n"
    with atomic_file(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        fh.writelines(starmap(line.format, rows))


def _comments(command: str, cfg: RunConfig, *extra: str) -> list[str]:
    parts = [f"ls-ledger {command}"]
    knobs = (
        f"bin={cfg.bin_width} window={cfg.window} samples={cfg.samples} "
        f"seed={cfg.seed} pair_convention="
        f"{'ordered' if cfg.ordered_pairs else 'unordered'}"
    )
    return [*parts, knobs, *extra]


# ---------------------------------------------------------------- commands


def cmd_ingest(cfg: RunConfig) -> None:
    """Parse the ledger, build the streams, persist the snapshot, and
    export the substream repartitions."""
    from . import ledger_ingest

    # bytes that are not UTF-8 become lone surrogates, which the parser
    # rejects with their line number
    with open(cfg.input_path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        records = ledger_ingest.parse_records(fh, strict=cfg.strict)
    if records.issues:  # in one write, as click.echo flushes each call
        click.echo("\n".join(f"warning: skipped line {n}: {r}" for n, r in records.issues), err=True)

    cls = ledger_ingest.classify_keys(records.identities, records.transactions)
    # checked before anything is written, so a bad key leaves --out untouched
    if cfg.remuniter and cfg.remuniter not in cls.table:
        raise LedgerError(f"--remuniter key {cfg.remuniter!r} not present in the ledger")
    cert, tx = ledger_ingest.build_streams(records, cls)
    bundle = snapshot.build_bundle(cls.table, cls, cert, tx)
    snapshot.save_bundle(cfg.out_dir, bundle)

    _write_repartition(cfg, "repartition.csv", tx, cls)
    if cfg.remuniter:
        filtered = ledger_ingest.filter_wallet(tx, cls.table.id_of(cfg.remuniter))
        _write_repartition(cfg, "repartition_filtered.csv", filtered, cls, "remuniter removed")
        miners = ledger_ingest.identify_miners(tx, cls, cfg.remuniter)
        click.echo(f"miners:{len(miners)}")

    click.echo(
        f"identities:{len(records.identities)} "
        f"certs:{len(records.certifications)} txs:{len(records.transactions)}"
    )


def _write_repartition(cfg: RunConfig, fname: str, tx, cls, *extra: str) -> None:
    """Counts and amounts of the transaction stream ``tx`` per substream."""
    from . import ledger_ingest

    report = ledger_ingest.repartition(tx, cls)
    _write_csv(
        cfg.out_dir / fname,
        _comments("ingest", cfg, f"input={cfg.input_path}", *extra),
        "substream,count,count_share,amount,amount_share",
        (
            (label, row.count, _fmt(row.count_share), row.amount, _fmt(row.amount_share))
            for label, row in report.rows.items()
        ),
    )


def cmd_overview(cfg: RunConfig) -> None:
    """Activity series and rolling sums of the certification and member
    transaction streams, their correlation, and degree reports."""
    from . import graph_metrics

    bundle = snapshot.load_bundle(cfg.out_dir)
    cert, tx_mm = bundle.cert, bundle.tx_mm
    keys = bundle.table.keys()

    # bin both streams over the common enclosing interval so the series
    # share one grid; empty streams contribute no span of their own
    spans = [s.interval for s in (cert, tx_mm) if s.link_count] or [cert.interval]
    common = (min(t0 for t0, _ in spans), max(t1 for _, t1 in spans))
    series = {}
    for name, stream in (("cert", cert), ("txmm", tx_mm)):
        widened = replace(stream, interval=common)
        try:
            binned = stream_core.activity_series(widened, cfg.bin_width)
            series[name] = (binned, stream_core.rolling_sum(binned, cfg.window))
        except (MemoryError, ValueError, OverflowError):
            # numpy raises MemoryError, or ValueError/OverflowError where the
            # grid's size does not even fit an array shape
            n_bins = (common[1] - common[0]) // cfg.bin_width + 1
            raise LedgerError(
                f"cannot allocate {n_bins} bins of {cfg.bin_width} s over "
                f"[{common[0]}, {common[1]}]; try a larger --bin"
            ) from None

    _write_csv(
        cfg.out_dir / "activity.csv",
        _comments("overview", cfg),
        "bin_start,cert,txmm,cert_rolling,txmm_rolling",
        zip(
            series["cert"][0].bin_starts(),
            # the counts, then the rolling sums, each cert then txmm
            *(series[name][i].values.tolist() for i in (0, 1) for name in ("cert", "txmm")),
        ),
    )

    graphs, reports = {}, {}
    for name, stream in (("cert", cert), ("txmm", tx_mm)):
        g = graphs[name] = stream_core.induced_graph(stream)
        report = reports[name] = graph_metrics.degree_report(g)
        fname = "degrees.csv" if name == "cert" else f"degrees_{name}.csv"
        _write_csv(
            cfg.out_dir / fname,
            _comments("overview", cfg, f"stream={name}"),
            "node,in,out",
            zip(_keys(keys, g.nodes), report.in_degree.tolist(), report.out_degree.tolist()),
        )

    # the places in each graph of the nodes both graphs hold, ascending
    cert_nodes, txmm_nodes = graphs["cert"].nodes, graphs["txmm"].nodes
    in_cert = np.flatnonzero(np.isin(cert_nodes, txmm_nodes))
    in_txmm = np.searchsorted(txmm_nodes, cert_nodes[in_cert])
    c, x = reports["cert"], reports["txmm"]
    pairings = (
        ("cert_in~cert_out", c.in_degree, c.out_degree),
        ("txmm_in~txmm_out", x.in_degree, x.out_degree),
        ("cert_out~txmm_out", c.out_degree[in_cert], x.out_degree[in_txmm]),
        ("cert_in~txmm_in", c.in_degree[in_cert], x.in_degree[in_txmm]),
    )
    corr_rows = []
    for label, xs, ys in pairings:
        try:
            corr_rows.append((label, _fmt(graph_metrics.degree_correlation(xs, ys), 6)))
        except (LedgerError, ValueError):
            corr_rows.append((label, "NA"))
    _write_csv(
        cfg.out_dir / "degree_correlations.csv",
        _comments("overview", cfg),
        "pairing,pearson",
        corr_rows,
    )

    # activity correlation over the rolling sums, on the shared grid
    try:
        rolling = (series[name][1].values for name in ("cert", "txmm"))
        r = graph_metrics.degree_correlation(*rolling)
        click.echo(f"activity_correlation:{r:.6f}")
    except (LedgerError, ValueError):
        click.echo("activity_correlation:NA (undefined)")


def cmd_graph(cfg: RunConfig) -> None:
    """Clustering, triangles with their null-model comparison, and the
    certification distances of transacting-but-uncertified pairs."""
    from . import graph_metrics

    bundle = snapshot.load_bundle(cfg.out_dir)
    keys = bundle.table.keys()
    streams = {"cert": bundle.cert, "txmm": bundle.tx_mm, "txaa": bundle.substream("AA")}
    graphs = {name: stream_core.induced_graph(s) for name, s in streams.items()}

    for name, g in graphs.items():
        report = graph_metrics.clustering(g)
        fname = "clustering.csv" if name == "cert" else f"clustering_{name}.csv"
        _write_csv(
            cfg.out_dir / fname,
            _comments(
                "graph",
                cfg,
                f"stream={name}",
                f"average={report.average:.6f} (all nodes)",
                f"average_active={report.average_active:.6f} (degree >= 2 only)",
            ),
            "node,coefficient",
            zip(_keys(keys, g.nodes), (_fmt(c, 6) for c in report.coefficients.tolist())),
        )
        click.echo(f"triangles_{name}:{report.triangles}")
        click.echo(f"clustering_{name}:{report.average:.6f}")

        if name != "txaa" and len(g.undirected_edges()) >= 2:
            null = graph_metrics.null_model_triangles(
                g, report.triangles, samples=cfg.samples, seed=cfg.seed
            )
            fname = "null_model.csv" if name == "cert" else f"null_model_{name}.csv"
            _write_csv(
                cfg.out_dir / fname,
                _comments(
                    "graph",
                    cfg,
                    f"stream={name}",
                    f"observed={null.observed} mean={null.mean:.4f} "
                    f"std={null.std:.4f} ratio={null.ratio:.4f}",
                ),
                "sample,triangles",
                enumerate(null.samples),
            )
            click.echo(f"null_ratio_{name}:{null.ratio:.4f}")

    # member pairs that transact without any certification between them, and
    # their distances in the undirected certification graph, whose nodes are
    # the members, so every pair is measured
    rows = graphs["txmm"].undirected_edges()
    uncertified = rows[bundle.cert.pairs.find(rows[:, 0], rows[:, 1]) < 0]
    known = np.isin(uncertified, graphs["cert"].nodes)
    if not known.all():
        raise LedgerError(f"member {keys[uncertified[~known][0]]} not in the certification graph")
    at = np.searchsorted(graphs["cert"].nodes, uncertified)
    dist = graph_metrics.distance_distribution(at[:, 0], at[:, 1], graphs["cert"])
    _write_csv(
        cfg.out_dir / "distances.csv",
        _comments(
            "graph",
            cfg,
            f"pairs={len(uncertified)} unreachable={dist.unreachable}",
        ),
        "distance,count",
        ((d, c) for d, c in enumerate(dist.counts.tolist()) if c),
    )


def cmd_closures(cfg: RunConfig) -> None:
    """2- and 3-closure of every link, for the certification stream and the
    member transaction stream."""
    from . import temporal_metrics

    bundle = snapshot.load_bundle(cfg.out_dir)
    keys = bundle.table.keys()
    for name, stream in (("", bundle.cert), ("_txmm", bundle.tx_mm)):
        times = stream.t.tolist()
        sources = _keys(keys, stream.src)
        targets = _keys(keys, stream.dst)
        for k in (2, 3):
            dist = temporal_metrics.closure_distribution(stream, k=k)
            _write_csv(
                cfg.out_dir / f"closures_k{k}{name}.csv",
                _comments(
                    "closures", cfg, f"links={len(dist.results)} infinite={dist.infinite_count}"
                ),
                "t,source,target,lookback",
                zip(
                    times,
                    sources,
                    targets,
                    ["inf" if b < 0 else b for b in dist.results.tolist()],
                ),
            )


def cmd_match(cfg: RunConfig) -> None:
    """Certification/transaction time matching, per-transaction
    certification classes, and first-transaction delays."""
    from . import interplay

    bundle = snapshot.load_bundle(cfg.out_dir)
    cert, tx_mm = bundle.cert, bundle.tx_mm
    keys = bundle.table.keys()

    report = interplay.match_certifications(cert, tx_mm)
    cert_pairs = _pair_labels(keys, cert.pairs)
    _write_csv(
        cfg.out_dir / "match_cert.csv",
        _comments(
            "match",
            cfg,
            "fractions: "
            + " ".join(
                f"{cat.value}={report.fractions[cat]:.4f}"
                for cat in interplay.MatchCategory
            ),
            f"both_sided_pairs={report.both_sided}",
        ),
        "pair,anchor,category,delay",
        zip(
            cert_pairs,
            report.anchor.tolist(),
            _values(interplay.MatchCategory, report.category),
            _or_na(report.delay, report.category != _code(interplay.MatchCategory.NEVER)),
        ),
    )

    tx_classes = interplay.classify_transactions(tx_mm, cert)
    _write_csv(
        cfg.out_dir / "tx_classes.csv",
        _comments(
            "match",
            cfg,
            "fractions: "
            + " ".join(
                f"{cat.value}={tx_classes.fractions[cat]:.4f}"
                for cat in interplay.TxCategory
            ),
        ),
        "t,from,to,category",
        zip(
            tx_mm.t.tolist(),
            _keys(keys, tx_mm.src),
            _keys(keys, tx_mm.dst),
            _values(interplay.TxCategory, tx_classes.categories),
        ),
    )

    preceding = interplay.preceding_transaction_counts(cert, tx_mm)
    _write_csv(
        cfg.out_dir / "preceding_counts.csv",
        _comments("match", cfg),
        "pair,anchor,preceding_txs",
        zip(cert_pairs, report.anchor.tolist(), preceding.tolist()),
    )

    delays = interplay.new_transaction_cert_delays(tx_mm, cert)
    _write_csv(
        cfg.out_dir / "new_tx_delays.csv",
        _comments("match", cfg, f"unmatched_pairs={delays.unmatched}"),
        "pair,first_tx,delay",
        zip(
            _pair_labels(keys, tx_mm.pairs),
            delays.first_tx.tolist(),
            _or_na(delays.delay, delays.certified),
        ),
    )

    for cat in interplay.MatchCategory:
        click.echo(f"match_{cat.value}:{report.fractions[cat]:.4f}")
    for cat in interplay.TxCategory:
        click.echo(f"tx_{cat.value}:{tx_classes.fractions[cat]:.4f}")


def cmd_relations(cfg: RunConfig) -> None:
    """Relation-set ratio table and the certification fraction by
    transaction count."""
    from . import interplay

    bundle = snapshot.load_bundle(cfg.out_dir)
    cert_rel = interplay.relation_sets(bundle.cert)
    tx_rel = interplay.relation_sets(bundle.tx_mm)
    n_members = len(bundle.cls.members)
    table = interplay.relation_ratio_table(
        cert_rel, tx_rel, n_members, ordered_pairs=cfg.ordered_pairs
    )
    _write_csv(
        cfg.out_dir / "ratios.csv",
        _comments("relations", cfg, f"members={n_members}"),
        "cell,numerator,denominator,value",
        (
            (c.label, c.numerator, c.denominator, _fmt(c.value))
            for c in table.cells
        ),
    )

    tau = interplay.pair_transaction_counts(bundle.tx_mm)
    rows = interplay.certification_fraction_by_k(tau, tx_rel, cert_rel)
    _write_csv(
        cfg.out_dir / "fraction_by_k.csv",
        _comments("relations", cfg),
        "k,n_pairs,frac_any,frac_bi",
        ((r.k, r.n_pairs, _fmt(r.frac_any), _fmt(r.frac_bi)) for r in rows),
    )


def cmd_neighborhoods(cfg: RunConfig) -> None:
    """Aggregated neighborhoods per stream and the inclusion of transaction
    neighborhoods within certification neighborhoods."""
    from . import temporal_metrics

    bundle = snapshot.load_bundle(cfg.out_dir)
    streams = {"cert": bundle.cert, "txmm": bundle.tx_mm}
    graphs = {name: stream_core.induced_graph(s) for name, s in streams.items()}
    keys = bundle.table.keys()
    _write_csv(
        cfg.out_dir / "neighborhoods.csv",
        _comments("neighborhoods", cfg),
        "node,stream,neighbor",
        # the CSR slices: nodes ascending, each node's neighbors ascending
        chain.from_iterable(
            zip(
                _keys(keys, g.nodes.repeat(g.degree)),
                repeat(name),
                _keys(keys, g.nodes[g.neighbors[1]]),
            )
            for name, g in graphs.items()
        ),
    )
    nodes, *fractions = temporal_metrics.neighborhood_overlaps(graphs["cert"], graphs["txmm"])
    _write_csv(
        cfg.out_dir / "overlap.csv",
        _comments("neighborhoods", cfg, "inclusion of txmm neighborhood in cert neighborhood"),
        "node,inclusion,jaccard",
        zip(_keys(keys, nodes), *(_or_na(x, ~np.isnan(x), ".4f") for x in fractions)),
    )


def _keys(keys: list[str], handles) -> list[str]:
    """The key of every handle of a column, one list lookup each."""
    return [keys[h] for h in handles.tolist()]


def _pair_labels(keys: list[str], idx: stream_core.PairIndex) -> list[str]:
    """The ``u|v`` key label of every pair of the index."""
    return [f"{keys[u]}|{keys[v]}" for u, v in zip(idx.u.tolist(), idx.v.tolist())]


def _code(category) -> int:
    """A category's code: its position in its enum."""
    return list(type(category)).index(category)


def _values(categories, codes) -> list[str]:
    """The value of the category of every code."""
    values = [cat.value for cat in categories]
    return [values[c] for c in codes.tolist()]


def _or_na(values, defined, spec: str = "") -> list:
    """The values, formatted by ``spec``, NA where ``defined`` does not hold."""
    return [format(v, spec) if ok else "NA" for v, ok in zip(values.tolist(), defined.tolist())]


# ------------------------------------------------------------------- click


def _common_options(fn):
    fn = click.option(
        "--out",
        "out_dir",
        envvar="LS_LEDGER_OUT",
        required=True,
        type=click.Path(file_okay=False, path_type=Path),
        help="Output directory (env: LS_LEDGER_OUT).",
    )(fn)
    fn = click.option("--window", default=DEFAULT_WINDOW, show_default=True, help="Rolling window (s).")(fn)
    fn = click.option("--bin", "bin_width", default=DEFAULT_BIN, show_default=True, help="Bin width (s).")(fn)
    fn = click.option("--samples", default=DEFAULT_SAMPLES, show_default=True, help="Null-model samples.")(fn)
    fn = click.option(
        "--seed", default=0, show_default=True, type=click.IntRange(min=0), help="Null-model seed."
    )(fn)
    fn = click.option(
        "--ordered-pairs",
        is_flag=True,
        help="Normalize ratio rows 1-2 by ordered member pairs (default: unordered).",
    )(fn)
    return fn


def _config(out_dir: Path, input_path: Path | None = None, **kw) -> RunConfig:
    try:
        return RunConfig(out_dir=out_dir, input_path=input_path, **kw)
    except ValueError as err:
        raise click.UsageError(str(err))


def _run(command, cfg: RunConfig) -> None:
    try:
        command(cfg)
    except (LedgerError, ValueError, KeyError) as err:
        raise click.ClickException(str(err))
    except OSError as err:
        # name the output that failed, not the temporary file it went
        # through; an error without a file name happened inside --out
        where = err.filename2 or err.filename or cfg.out_dir
        raise click.ClickException(f"{err.strerror or err}: {where}")


@click.group()
def main():
    """Link-stream analytics over certification and transaction ledgers."""


@main.command("ingest")
@click.option(
    "--input",
    "input_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Line-delimited ledger records.",
)
@click.option("--remuniter", default=None, help="Donation wallet key.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed line.")
@_common_options
def ingest_command(input_path, remuniter, strict, out_dir, window, bin_width, samples, seed, ordered_pairs):
    """Parse records, build all streams, and persist the snapshot."""
    cfg = _config(
        out_dir,
        input_path,
        remuniter=remuniter,
        window=window,
        bin_width=bin_width,
        samples=samples,
        seed=seed,
        strict=strict,
        ordered_pairs=ordered_pairs,
    )
    _run(cmd_ingest, cfg)


def _metric_command(name, fn, help_text):
    @main.command(name, help=help_text)
    @_common_options
    def _command(out_dir, window, bin_width, samples, seed, ordered_pairs):
        cfg = _config(
            out_dir,
            window=window,
            bin_width=bin_width,
            samples=samples,
            seed=seed,
            ordered_pairs=ordered_pairs,
        )
        _run(fn, cfg)

    _command.__name__ = f"{name}_command"
    return _command


_metric_command("overview", cmd_overview, "Activity series, rolling sums, degrees.")
_metric_command("graph", cmd_graph, "Clustering, triangles, null model, distances.")
_metric_command("closures", cmd_closures, "2- and 3-closure of every link.")
_metric_command("match", cmd_match, "Certification/transaction time matching.")
_metric_command("relations", cmd_relations, "Relation-set ratios and fraction by k.")
_metric_command("neighborhoods", cmd_neighborhoods, "Neighborhoods and overlap.")


def run():
    """The ``ls-ledger`` process: :func:`main` with every object that
    exists before it runs (the imports' modules, functions and constants)
    moved out of the collector's reach. Later collections and interpreter
    exit then skip them; ``main()`` called in-process keeps the default
    collector."""
    gc.freeze()
    gc.enable()
    try:
        main()
    finally:
        # the stage's own objects too, so exit does not walk them
        gc.freeze()


if __name__ == "__main__":
    run()
