"""Command-line front end: ingestion, metric computation, CSV export.

Every output is UTF-8 CSV with comma separators. Each file starts with
``#``-prefixed comment lines recording the command and the configuration
knobs that influenced it (seed included), followed by one header row.
Given the same input and configuration, reruns produce byte-identical
output directories.

Each stage runs as its own process, so a command imports its metric
module itself and calls through it: a process loads only the metric code
its stage runs. A metric command loads the snapshot's four parts once and
builds the transaction substreams it reads from them: ``graph`` the
member (MM) and anonymous (AA) ones, every other command MM alone.
:func:`run` is that process's entry point.

Click checks each option alone (``--bin`` and ``--samples`` at least 1,
``--seed`` at least 0); every command passes its parameters as they are
to :func:`_config`, which checks that the window covers at least one bin
and returns them as the named tuple :class:`RunConfig`.
"""

import gc

if __name__ == "__main__":
    # a stage process keeps what its imports build until it exits, so the
    # cyclic collector has nothing to free while they load; run() freezes
    # it all and turns collection back on. Only the builtin gc is imported
    # above this line (no __future__ import either), so every module loads
    # with collection off.
    gc.disable()

from itertools import chain, repeat, starmap
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import snapshot, stream_core
from .atomic import atomic_file
from .errors import LedgerError

DEFAULT_BIN = 86_400  # one day
DEFAULT_WINDOW = 2_592_000  # 30 days
DEFAULT_SAMPLES = 100


class RunConfig(NamedTuple):
    """The options of one command, each field named as its click
    parameter; :func:`_config` builds it from them."""

    out_dir: Path
    input_path: Path | None = None
    remuniter: str | None = None
    window: int = DEFAULT_WINDOW
    bin_width: int = DEFAULT_BIN
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    strict: bool = False
    ordered_pairs: bool = False


def _write_csv(path: Path, comments: list[str], header: str, rows) -> None:
    """Write the comment lines, the header and one line per row, each row
    holding one value per header column. A comment character that is not
    printable (a newline, a byte of a path that is not UTF-8) is written
    as ``ascii()`` writes it, so every comment stays one ``#`` line of UTF-8."""
    line = ",".join(["{}"] * len(header.split(","))) + "\n"
    with atomic_file(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in comments:
            escaped = "".join(c if c.isprintable() else ascii(c)[1:-1] for c in comment)
            fh.write(f"# {escaped}\n")
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
        identities, certs, txs, issues = ledger_ingest.parse_records(fh, strict=cfg.strict)
    if issues:  # in one write, as click.echo flushes each call
        click.echo("\n".join(f"warning: skipped line {n}: {r}" for n, r in issues), err=True)

    keys, members = ledger_ingest.classify_keys(identities, txs)
    # checked before anything is written, so a bad key leaves --out untouched
    if cfg.remuniter is not None and cfg.remuniter not in keys:
        raise LedgerError(f"--remuniter key {cfg.remuniter!r} not present in the ledger")
    cert, tx = ledger_ingest.build_streams(certs, txs, keys, members)
    snapshot.save_bundle(cfg.out_dir, snapshot.build_bundle(keys, members, cert, tx))

    _write_repartition(cfg, "repartition.csv", tx, members)
    filtered_csv = "repartition_filtered.csv"
    if cfg.remuniter is not None:
        wallet = keys.index(cfg.remuniter)
        filtered = ledger_ingest.filter_wallet(tx, wallet)
        _write_repartition(cfg, filtered_csv, filtered, members, "remuniter removed")
        miners = ledger_ingest.identify_miners(tx, members, wallet)
        click.echo(f"miners:{len(miners)}")
    else:  # no earlier run's table may stay beside this run's
        (cfg.out_dir / filtered_csv).unlink(missing_ok=True)

    click.echo(f"identities:{len(identities)} certs:{len(certs)} txs:{len(txs)}")


def _write_repartition(cfg: RunConfig, fname: str, tx, members, *extra: str) -> None:
    """Counts and amounts of the transaction stream ``tx`` per substream."""
    from . import ledger_ingest

    count, count_share, amount, amount_share = ledger_ingest.repartition(tx, members)
    _write_csv(
        cfg.out_dir / fname,
        _comments("ingest", cfg, f"input={cfg.input_path}", *extra),
        "substream,count,count_share,amount,amount_share",
        zip(
            stream_core.SUBSTREAM_LABELS,
            count.tolist(),
            _fixed(count_share),
            amount,
            _fixed(amount_share),
        ),
    )


def cmd_overview(cfg: RunConfig) -> None:
    """Activity series and rolling sums of the certification and member
    transaction streams, their correlation, and degree reports."""
    from . import graph_metrics

    keys, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    tx_mm = stream_core.substream_by_class(tx, members, "MM")

    # bin both streams over the common enclosing interval so the series
    # share one grid; empty streams contribute no span of their own
    spans = [s.interval for s in (cert, tx_mm) if s.link_count] or [cert.interval]
    common = (min(t0 for t0, _ in spans), max(t1 for _, t1 in spans))
    series = {}
    for name, stream in (("cert", cert), ("txmm", tx_mm)):
        widened = stream_core.LinkStream(common, stream.nodes, stream.t, stream.src, stream.dst)
        try:
            counts = stream_core.activity_series(widened, cfg.bin_width)
            series[name] = (counts, stream_core.rolling_sum(counts, cfg.bin_width, cfg.window))
        except (MemoryError, ValueError, OverflowError):
            # numpy raises MemoryError, or ValueError/OverflowError where the
            # grid's size does not even fit an array shape
            n_bins = (common[1] - common[0]) // cfg.bin_width + 1
            raise LedgerError(
                f"cannot allocate {n_bins} bins of {cfg.bin_width} s over "
                f"[{common[0]}, {common[1]}]; try a larger --bin"
            ) from None

    # the bin starts as exact Python ints, past int64 too
    end = common[0] + len(series["cert"][0]) * cfg.bin_width
    _write_csv(
        cfg.out_dir / "activity.csv",
        _comments("overview", cfg),
        "bin_start,cert,txmm,cert_rolling,txmm_rolling",
        zip(
            range(common[0], end, cfg.bin_width),
            # the counts, then the rolling sums, each cert then txmm
            *(series[name][i].tolist() for i in (0, 1) for name in ("cert", "txmm")),
        ),
    )

    degrees = {}
    for name, stream in (("cert", cert), ("txmm", tx_mm)):
        g = stream_core.induced_graph(stream)
        in_degree, out_degree = degrees[name] = graph_metrics.degree_report(g)
        _write_csv(
            cfg.out_dir / _stream_file("degrees", name),
            _comments("overview", cfg, f"stream={name}"),
            "node,in,out",
            zip(_keys(keys, g.nodes), in_degree.tolist(), out_degree.tolist()),
        )

    # both graphs' nodes are the members, so their degree columns pair
    # node by node
    (c_in, c_out), (x_in, x_out) = degrees["cert"], degrees["txmm"]
    pairings = (
        ("cert_in~cert_out", c_in, c_out),
        ("txmm_in~txmm_out", x_in, x_out),
        ("cert_out~txmm_out", c_out, x_out),
        ("cert_in~txmm_in", c_in, x_in),
    )
    corr_rows = []
    for label, xs, ys in pairings:
        try:
            corr_rows.append((label, f"{graph_metrics.degree_correlation(xs, ys):.6f}"))
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
        rolling = (series[name][1] for name in ("cert", "txmm"))
        r = graph_metrics.degree_correlation(*rolling)
        click.echo(f"activity_correlation:{r:.6f}")
    except (LedgerError, ValueError):
        click.echo("activity_correlation:NA (undefined)")


def cmd_graph(cfg: RunConfig) -> None:
    """Clustering, triangles with their null-model comparison, and the
    certification distances of transacting-but-uncertified pairs."""
    from . import graph_metrics

    keys, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    streams = {
        "cert": cert,
        "txmm": stream_core.substream_by_class(tx, members, "MM"),
        "txaa": stream_core.substream_by_class(tx, members, "AA"),
    }
    graphs = {name: stream_core.induced_graph(s) for name, s in streams.items()}

    for name, g in graphs.items():
        coefficients, average, average_active, triangles = graph_metrics.clustering(g)
        _write_csv(
            cfg.out_dir / _stream_file("clustering", name),
            _comments(
                "graph",
                cfg,
                f"stream={name}",
                f"average={average:.6f} (all nodes)",
                f"average_active={average_active:.6f} (degree >= 2 only)",
            ),
            "node,coefficient",
            zip(_keys(keys, g.nodes), _fixed(coefficients, 6)),
        )
        click.echo(f"triangles_{name}:{triangles}")
        click.echo(f"clustering_{name}:{average:.6f}")

        if name == "txaa":
            continue
        null_csv = cfg.out_dir / _stream_file("null_model", name)
        if g.ends.shape[1] < 2:  # no swap to draw from: no null model,
            null_csv.unlink(missing_ok=True)  # nor an earlier run's
            continue
        observed, samples, mean, std, ratio = graph_metrics.null_model_triangles(
            g, triangles, cfg.samples, cfg.seed
        )
        _write_csv(
            null_csv,
            _comments(
                "graph",
                cfg,
                f"stream={name}",
                f"observed={observed} mean={mean:.4f} std={std:.4f} ratio={ratio:.4f}",
            ),
            "sample,triangles",
            enumerate(samples),
        )
        click.echo(f"null_ratio_{name}:{ratio:.4f}")

    # member pairs that transact without any certification between them, and
    # their distances in the undirected certification graph; both graphs'
    # nodes are the members, so a txmm edge's ends are places in either
    txmm = graphs["txmm"]
    uncertified = txmm.ends[:, cert.pairs.find_pairs(txmm.stream.pairs) < 0]
    counts, unreachable = graph_metrics.distance_distribution(*uncertified, graphs["cert"])
    _write_csv(
        cfg.out_dir / "distances.csv",
        _comments("graph", cfg, f"pairs={uncertified.shape[1]} unreachable={unreachable}"),
        "distance,count",
        ((d, c) for d, c in enumerate(counts.tolist()) if c),
    )


def cmd_closures(cfg: RunConfig) -> None:
    """2- and 3-closure of every link, for the certification stream and the
    member transaction stream."""
    from . import temporal_metrics

    keys, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    tx_mm = stream_core.substream_by_class(tx, members, "MM")
    for name, stream in (("cert", cert), ("txmm", tx_mm)):
        times = stream.t.tolist()
        sources = _keys(keys, stream.src)
        targets = _keys(keys, stream.dst)
        for k in (2, 3):
            _, lookback, infinite = temporal_metrics.closure_distribution(stream, k=k)
            _write_csv(
                cfg.out_dir / _stream_file(f"closures_k{k}", name),
                _comments("closures", cfg, f"links={len(lookback)} infinite={infinite}"),
                "t,source,target,lookback",
                zip(times, sources, targets, ["inf" if b < 0 else b for b in lookback.tolist()]),
            )


def cmd_match(cfg: RunConfig) -> None:
    """Certification/transaction time matching, per-transaction
    certification classes, and first-transaction delays."""
    from . import interplay

    keys, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    tx_mm = stream_core.substream_by_class(tx, members, "MM")

    anchor, category, delay, fractions, both_sided = interplay.match_certifications(cert, tx_mm)
    match_shares = list(zip(interplay.MATCH_CATEGORIES, _fixed(fractions)))
    cert_pairs = _pair_labels(keys, cert.pairs)
    _write_csv(
        cfg.out_dir / "match_cert.csv",
        _comments(
            "match",
            cfg,
            "fractions: " + " ".join(f"{cat}={x}" for cat, x in match_shares),
            f"both_sided_pairs={both_sided}",
        ),
        "pair,anchor,category,delay",
        zip(
            cert_pairs,
            anchor.tolist(),
            _keys(interplay.MATCH_CATEGORIES, category),
            _or_na(delay, category != interplay.MATCH_CATEGORIES.index("never")),
        ),
    )

    tx_category, fractions = interplay.classify_transactions(tx_mm, cert)
    tx_shares = list(zip(interplay.TX_CATEGORIES, _fixed(fractions)))
    _write_csv(
        cfg.out_dir / "tx_classes.csv",
        _comments("match", cfg, "fractions: " + " ".join(f"{cat}={x}" for cat, x in tx_shares)),
        "t,from,to,category",
        zip(
            tx_mm.t.tolist(),
            _keys(keys, tx_mm.src),
            _keys(keys, tx_mm.dst),
            _keys(interplay.TX_CATEGORIES, tx_category),
        ),
    )

    preceding = interplay.preceding_transaction_counts(cert, tx_mm)
    _write_csv(
        cfg.out_dir / "preceding_counts.csv",
        _comments("match", cfg),
        "pair,anchor,preceding_txs",
        zip(cert_pairs, anchor.tolist(), preceding.tolist()),
    )

    first_tx, delay, certified, unmatched = interplay.new_transaction_cert_delays(tx_mm, cert)
    _write_csv(
        cfg.out_dir / "new_tx_delays.csv",
        _comments("match", cfg, f"unmatched_pairs={unmatched}"),
        "pair,first_tx,delay",
        zip(_pair_labels(keys, tx_mm.pairs), first_tx.tolist(), _or_na(delay, certified)),
    )

    for cat, x in match_shares:
        click.echo(f"match_{cat}:{x}")
    for cat, x in tx_shares:
        click.echo(f"tx_{cat}:{x}")


def cmd_relations(cfg: RunConfig) -> None:
    """Relation-set ratio table and the certification fraction by
    transaction count."""
    from . import interplay

    _, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    tx_mm = stream_core.substream_by_class(tx, members, "MM")
    cert_rel = interplay.relation_sets(cert)
    tx_rel = interplay.relation_sets(tx_mm)
    n_members = len(members)
    numerator, denominator, value = interplay.relation_ratio_table(
        cert_rel, tx_rel, n_members, ordered_pairs=cfg.ordered_pairs
    )
    _write_csv(
        cfg.out_dir / "ratios.csv",
        _comments("relations", cfg, f"members={n_members}"),
        "cell,numerator,denominator,value",
        zip(
            interplay.RATIO_CELLS,
            numerator.tolist(),
            denominator.tolist(),
            _or_na(value, ~np.isnan(value), ".4f"),
        ),
    )

    tau = interplay.pair_transaction_counts(tx_mm)
    k, n_pairs, frac_any, frac_bi = interplay.certification_fraction_by_k(tau, tx_rel, cert_rel)
    _write_csv(
        cfg.out_dir / "fraction_by_k.csv",
        _comments("relations", cfg),
        "k,n_pairs,frac_any,frac_bi",
        zip(k.tolist(), n_pairs.tolist(), _fixed(frac_any), _fixed(frac_bi)),
    )


def cmd_neighborhoods(cfg: RunConfig) -> None:
    """Aggregated neighborhoods per stream and the inclusion of transaction
    neighborhoods within certification neighborhoods."""
    from . import temporal_metrics

    keys, members, cert, tx = snapshot.load_bundle(cfg.out_dir)
    tx_mm = stream_core.substream_by_class(tx, members, "MM")
    graphs = {"cert": stream_core.induced_graph(cert), "txmm": stream_core.induced_graph(tx_mm)}
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


def _stream_file(stem: str, name: str) -> str:
    """The name of the output file ``stem`` for the stream ``name``: the
    certification stream's has no suffix, any other's ends in ``_<name>``."""
    return f"{stem}.csv" if name == "cert" else f"{stem}_{name}.csv"


def _keys(keys, handles) -> list[str]:
    """The key of every handle of a column, or the label of every code, one
    lookup each."""
    return [keys[h] for h in handles.tolist()]


def _pair_labels(keys: list[str], idx: stream_core.PairIndex) -> list[str]:
    """The ``u|v`` key label of every pair of the index."""
    return [f"{keys[u]}|{keys[v]}" for u, v in zip(idx.u.tolist(), idx.v.tolist())]


def _fixed(values: np.ndarray, places: int = 4) -> list[str]:
    """Every value of a float column with a fixed number of decimals."""
    return [f"{v:.{places}f}" for v in values.tolist()]


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
    fn = click.option(
        "--bin", "bin_width", default=DEFAULT_BIN, show_default=True, type=click.IntRange(min=1), help="Bin width (s)."
    )(fn)
    fn = click.option(
        "--samples", default=DEFAULT_SAMPLES, show_default=True, type=click.IntRange(min=1), help="Null-model samples."
    )(fn)
    fn = click.option(
        "--seed", default=0, show_default=True, type=click.IntRange(min=0), help="Null-model seed."
    )(fn)
    fn = click.option(
        "--ordered-pairs",
        is_flag=True,
        help="Normalize ratio rows 1-2 by ordered member pairs (default: unordered).",
    )(fn)
    return fn


def _config(**params) -> RunConfig:
    """The command's click parameters as its configuration, once the
    window covers at least one bin."""
    if params["window"] < params["bin_width"]:
        raise click.BadParameter("window must be at least the bin width", param_hint="'--window'")
    return RunConfig(**params)


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
def ingest_command(**params):
    """Parse records, build all streams, and persist the snapshot."""
    _run(cmd_ingest, _config(**params))


def _metric_command(name, fn, help_text):
    @main.command(name, help=help_text)
    @_common_options
    def _command(**params):
        _run(fn, _config(**params))

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
