"""Benchmark of the ls-ledger CLI pipeline on seeded ledgers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --record
    python3 bench/run.py --smoke

Each run writes a seeded ledger under ``.bench_work/`` and runs the seven
stages on it, each as its own ``python -m ls_ledger.cli STAGE`` process
with ``PYTHONPATH=src``, one at a time, the way a user runs them. The
program sees only the ledger and its command-line options.

``--trace 0`` reruns the whole pipeline while ``--seconds`` allow and
reports the end-to-end metrics: each stage's median time, their sum as
``pipeline_s``, the median time of ``ls_ledger.cli --help`` (sampled at
every pass) as ``setup_s``, and the peak RSS of any stage process. Each
time is a wall time taken at a fixed core speed, which a probe loop
measures on the stage's own core while the stage runs (see ``Probe``).
``--trace 1`` runs each stage once untraced and once through
``bench/trace_stage.py``, which times every public function of the
package, and reports the per-layer metrics, the tracing overhead and the
time the spans leave unaccounted in each stage.

Every stage run is checked: exit code 0, and output files equal to the
digests recorded in ``bench/digests.json`` for this workload and seed, or
to the first pipeline of the run when none are recorded. The ingest
summary, skipped-line warnings and repartition tables must match what the
generator wrote. The last line of stdout is one JSON object: ``attempted``
and ``failed`` count stage runs, ``metrics`` maps each metric name to its
value and unit. The exit code is 1 when any check failed. ``--record``
stores the digests of a clean run for its workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
DIGESTS = BENCH / "digests.json"
SETUP_RUNS = 2
PROBE_LOOPS = 20_000
PROBE_S = 0.0012  # about the probe loop's time when its core runs fast
PROBE_GAP = 0.04  # seconds between probes

STAGES = ("ingest", "overview", "graph", "closures", "match", "relations", "neighborhoods")
CLI = [sys.executable, "-m", "ls_ledger.cli"]
TRACED = [sys.executable, "bench/trace_stage.py"]
# bytecode caching on, as in an installed package
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = "src"
WARNING = re.compile(r"^warning: skipped line (\d+):", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    make: Callable[[Path, int], workloads.Ledger]
    samples: int | None = None  # graph --samples; None keeps the CLI default
    clustering_vs_uniform: float | None = None  # least cert clustering ratio


# Why each workload: see "why" in BENCHMARK.json.
WORKLOADS = {
    "realsize-uniform": Workload(
        lambda path, seed: workloads.uniform(path, seed, 500, 125, 5_000, 12_500),
        samples=2,
    ),
    "nullmodel-clustered": Workload(
        lambda path, seed: workloads.clustered(path, seed, 100, 25, 200, 500),
        clustering_vs_uniform=3.0,
    ),
    "anon-dirty": Workload(
        lambda path, seed: workloads.dirty(path, seed, 300, 3_000, 1_000, 40_000),
        samples=2,
    ),
}

END_TO_END = {
    "pipeline_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ledger_ingest.parse_records.s": "s",
    "ledger_ingest.parse_records.lines": "count",
    "ledger_ingest.parse_records.issues": "count",
    **{
        f"ledger_ingest.{fn}.s": "s"
        for fn in ("classify_keys", "build_streams", "repartition", "filter_wallet", "identify_miners")
    },
    "snapshot.build_bundle.s": "s",
    "snapshot.save_bundle.s": "s",
    "snapshot.save_bundle.bytes": "B",
    "snapshot.load_bundle.s": "s",
    "snapshot.load_bundle.calls": "count",
    **{f"stream_core.{fn}.s": "s" for fn in ("induced_graph", "activity_series", "rolling_sum")},
    **{
        f"graph_metrics.null_model_triangles.{graph}.{what}": unit
        for graph in ("cert", "txmm")
        for what, unit in (("s", "s"), ("samples", "count"), ("edges", "count"))
    },
    "graph_metrics.clustering.s": "s",
    "graph_metrics.triangle_count.s": "s",
    "graph_metrics.distance_distribution.s": "s",
    "graph_metrics.distance_distribution.pairs": "count",
    "graph_metrics.degree_report.s": "s",
    **{
        f"temporal_metrics.closure_distribution.k{k}.{what}": unit
        for k in (2, 3)
        for what, unit in (("s", "s"), ("links", "count"), ("infinite", "count"))
    },
    **{
        f"temporal_metrics.{fn}.{what}": unit
        for fn in ("aggregated_neighborhood", "neighborhood_overlap")
        for what, unit in (("s", "s"), ("calls", "count"))
    },
    **{
        f"interplay.{fn}.s": "s"
        for fn in (
            "relation_sets",
            "relation_ratio_table",
            "pair_transaction_counts",
            "certification_fraction_by_k",
            "match_certifications",
            "classify_transactions",
            "preceding_transaction_counts",
            "new_transaction_cert_delays",
        )
    },
    **{f"cli.{stage}.self_s": "s" for stage in STAGES},
    **{f"cli.{stage}.unaccounted_s": "s" for stage in STAGES},
    "trace.pipeline_s": "s",
    "trace.overhead": "share",
}


@dataclass
class StageRun:
    stage: str
    wall: float
    rss_kb: int
    code: int
    files: dict[str, str]  # outputs the stage wrote or changed -> sha256
    stdout: str
    stderr: str


def written_since(out: Path, before: dict[str, int]) -> dict[str, str]:
    """sha256 of each file in ``out`` whose mtime is not in ``before``."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name, mtime in mtimes(out).items()
        if before.get(name) != mtime
    }


def mtimes(out: Path) -> dict[str, int]:
    if not out.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in sorted(out.iterdir()) if p.is_file()}


def stage_args(stage: str, ledger: workloads.Ledger, wl: Workload, seed: int, out: Path) -> list[str]:
    args = [stage, "--out", str(out)]
    if stage == "ingest":
        args += ["--input", str(ledger.path), "--remuniter", ledger.remuniter]
    if stage == "graph":
        args += ["--seed", str(seed)]
        if wl.samples is not None:
            args += ["--samples", str(wl.samples)]
    return args


def run_stage(argv: list[str], stage: str, out: Path, logs: Path) -> StageRun:
    """Run one stage process to its end; stdout and stderr go to files."""
    before = mtimes(out)
    out_log, err_log = logs / f"{stage}.out", logs / f"{stage}.err"
    with open(out_log, "wb") as so, open(err_log, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, stdout=so, stderr=se)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    files = written_since(out, before)
    return StageRun(
        stage,
        wall,
        usage.ru_maxrss,
        proc.returncode,
        files,
        out_log.read_text(encoding="utf-8", errors="replace"),
        err_log.read_text(encoding="utf-8", errors="replace"),
    )


def _table(path: Path) -> dict[str, tuple[int, int]]:
    """substream -> (count, amount) from a repartition CSV."""
    rows = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return {r[0]: (int(r[1]), int(r[3])) for r in (ln.split(",") for ln in rows[1:])}


def ingest_problems(run: StageRun, ledger: workloads.Ledger, out: Path) -> list[str]:
    """What the ingest stage reports against what the generator wrote."""
    problems = []
    lines = run.stdout.splitlines()
    summary = f"identities:{ledger.identities} certs:{ledger.certs} txs:{ledger.txs}"
    if summary not in lines:
        problems.append(f"stdout lacks '{summary}'")
    if f"miners:{len(ledger.miners)}" not in lines:
        problems.append(f"stdout lacks 'miners:{len(ledger.miners)}'")
    warned = [int(n) for n in WARNING.findall(run.stderr)]
    if warned != ledger.malformed:
        problems.append(
            f"{len(warned)} skipped-line warnings, expected {len(ledger.malformed)} "
            "at the generator's malformed lines"
        )
    for name, counts, amounts in (
        ("repartition.csv", ledger.counts, ledger.amounts),
        ("repartition_filtered.csv", ledger.filtered_counts, ledger.filtered_amounts),
    ):
        want = {label: (counts[label], amounts[label]) for label in workloads.LABELS}
        try:
            got = _table(out / name)
        except (OSError, ValueError, IndexError) as err:
            problems.append(f"{name} unreadable: {err}")
            continue
        if got != want:
            problems.append(f"{name} counts or amounts differ from the ledger's")
    return problems


class Checks:
    """Checks stage runs and counts the failed ones, naming the cause."""

    def __init__(self, label: str, ledger: workloads.Ledger, recorded: dict | None):
        self.label = label
        self.ledger = ledger
        self.expected = dict(recorded or {})  # stage -> file -> sha256
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def stage(self, run: StageRun, out: Path) -> None:
        problems = []
        if run.code != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {run.code}: {tail[0]}")
        want = self.expected.get(run.stage)
        if want is not None:
            for name in sorted(set(want) | set(run.files)):
                if name not in run.files:
                    problems.append(f"{name} not written")
                elif name not in want:
                    problems.append(f"{name} not expected")
                elif want[name] != run.files[name]:
                    problems.append(f"{name} differs from its recorded digest")
        if run.stage == "ingest":
            problems += ingest_problems(run, self.ledger, out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.fail(f"{run.stage}: " + "; ".join(problems))
        elif want is None:
            self.expected[run.stage] = run.files

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAILED {self.label} {message}", file=sys.stderr)


def time_setup() -> float:
    """Wall time of ``ls_ledger.cli --help``: interpreter start and imports."""
    start = time.perf_counter()
    subprocess.run([*CLI, "--help"], env=ENV, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def probe_loop() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Probe(threading.Thread):
    """Measures the core's speed while a timed process runs on it.

    The shared machine's cores each switch between a fast and a slow state,
    some 1.5x apart, every few tenths of a second to a few seconds, so a
    raw wall time depends as much on the machine as on the program. Every
    process of a run is pinned to one core (see ``main``). While a timed
    process runs, this thread wakes every ``PROBE_GAP`` seconds and times
    ``probe_loop`` on that core, taking about 3% of it from the process.
    ``scale`` turns the wall time into seconds at the speed where the loop
    takes ``PROBE_S``: the wall time times ``PROBE_S`` over the median loop
    time, loops before and after the process included. The loop does not
    touch the program, so a change to the program moves the scaled time as
    much as the raw one.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.times = [probe_loop()]
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(PROBE_GAP):
            self.times.append(probe_loop())

    def scale(self, wall: float) -> float:
        self.done.set()
        self.join()
        self.times.append(probe_loop())
        return wall * PROBE_S / statistics.median(self.times)


def layer_metrics(traced: list[StageRun], spans_dir: Path, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pipeline: ``.s`` is
    inclusive seconds summed over calls, self time is a span minus its
    direct children, unaccounted time is a stage's wall time outside its
    top-level spans (interpreter start and exit). A metric no span gave,
    such as one of a function that was renamed, reads 0 and is named on a
    ``#`` line."""
    totals: dict[str, float] = defaultdict(float)
    for run in traced:
        spans = json.loads((spans_dir / f"{run.stage}.json").read_text())
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent, counts) in enumerate(spans):
            totals[f"{name}.s"] += end - start
            totals[f"{name}.calls"] += 1
            for what, n in (counts or {}).items():
                totals[f"{name}.{what}"] += n
            if parent < 0:
                top += end - start
            if name == f"cli.cmd_{run.stage}":
                totals[f"cli.{run.stage}.self_s"] += end - start - children[i]
        totals[f"cli.{run.stage}.unaccounted_s"] = run.wall - top
    totals["trace.pipeline_s"] = sum(run.wall for run in traced)
    totals["trace.overhead"] = totals["trace.pipeline_s"] / untraced_s - 1
    missing = [name for name in PER_LAYER if name not in totals]
    if missing:
        print("# no span for " + " ".join(missing))
    return {name: totals.get(name, 0.0) for name in PER_LAYER}


def measure(
    name: str, ledger: workloads.Ledger, wl: Workload, seed: int, seconds: float, trace: bool
) -> tuple[dict, Checks]:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    checks = Checks(f"{name} seed {seed}", ledger, recorded.get(name, {}).get(str(seed)))
    out, logs, spans = WORK / "out", WORK / "logs", WORK / "spans"
    for d in (out, logs, spans):
        shutil.rmtree(d, ignore_errors=True)
    logs.mkdir(parents=True)

    def stage_run(stage: str, prefix: list[str] = CLI) -> StageRun:
        run = run_stage([*prefix, *stage_args(stage, ledger, wl, seed, out)], stage, out, logs)
        checks.stage(run, out)
        return run

    if trace:
        # each stage untraced, then traced at once, so that both runs of a
        # stage see the same machine load
        untraced_s, traced = 0.0, []
        for stage in STAGES:
            untraced_s += stage_run(stage).wall
            traced.append(stage_run(stage, [*TRACED, str(spans / f"{stage}.json")]))
        values = layer_metrics(traced, spans, untraced_s)
        if values["ledger_ingest.parse_records.issues"] != len(ledger.malformed):
            checks.fail("ingest: parse_records.issues differs from the skipped-line warnings")
        units = PER_LAYER
        runs = "each stage once untraced, once traced"
    else:
        deadline = time.perf_counter() + seconds
        time_setup()  # fills the bytecode cache, which users pay once
        # Passes over the whole pipeline and one ``--help``, each process
        # timed with a probe, while the deadline allows. Near the end, a
        # pass reruns only the stages whose median so far still fits, so
        # short stages get the most samples.
        scaled: dict[str, list[float]] = {name: [] for name in (*STAGES, "setup")}
        raw: dict[str, list[float]] = {name: [] for name in scaled}
        rss_kb = 0

        def sample(name: str, timed: Callable[[], float]) -> None:
            probe = Probe()
            probe.start()
            wall = timed()
            raw[name].append(wall)
            scaled[name].append(probe.scale(wall))

        def stage_wall(stage: str) -> float:
            nonlocal rss_kb
            run = stage_run(stage)
            rss_kb = max(rss_kb, run.rss_kb)
            return run.wall

        for _ in range(SETUP_RUNS):
            sample("setup", time_setup)
        ran = True
        while ran:
            ran = False
            for stage in STAGES:
                if raw[stage] and time.perf_counter() + statistics.median(raw[stage]) > deadline:
                    continue
                sample(stage, lambda: stage_wall(stage))
                ran = True
            if ran:
                sample("setup", time_setup)
        values = {f"{stage}_s": statistics.median(scaled[stage]) for stage in STAGES}
        values["pipeline_s"] = sum(values.values())
        values["setup_s"] = statistics.median(scaled["setup"])
        values["peak_rss_mb"] = rss_kb / 1024
        units = END_TO_END
        runs = "wall seconds per run, then scaled: " + "; ".join(
            f"{name} " + " ".join(f"{w:.4f}" for w in raw[name])
            + " | " + " ".join(f"{w:.4f}" for w in scaled[name])
            for name in raw
        )
    metrics = {
        key: {"value": round(values[key]) if unit in ("count", "B") else values[key], "unit": unit}
        for key, unit in units.items()
    }
    print(f"# {runs}")
    for key, m in metrics.items():
        print(f"# {key} {m['value']} {m['unit']}")
    share = checks.failed / checks.attempted
    print(f"# failed_ops {share} share ({checks.failed} of {checks.attempted} stage runs)")
    return metrics, checks


def smoke() -> int:
    """Both paths on the program's 12-link example ledger; checks that every
    metric is printed with the unit BENCHMARK.json gives it."""
    sys.path.insert(0, "src")
    ledger = workloads.example(WORK / "input" / "smoke.jsonl")
    listed = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for trace, units, kind in ((False, END_TO_END, "end_to_end"), (True, PER_LAYER, "per_layer")):
        metrics, checks = measure("smoke", ledger, Workload(lambda p, s: ledger), 0, 0, trace)
        problems += checks.problems
        want = {m["name"]: m["unit"] for m in listed[kind]}
        got = {k: m["unit"] for k, m in metrics.items()}
        if got != units or want != units:
            problems.append(f"{kind} metrics or units differ from BENCHMARK.json")
    print("smoke:", "; ".join(problems) if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="ls-ledger pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store output digests")
    parser.add_argument("--smoke", action="store_true", help="quick run on the example ledger")
    args = parser.parse_args()

    os.chdir(ROOT)
    # one core for this process and every stage, so that a probe and the
    # process it runs beside meet the same core speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not Path("src/ls_ledger/cli.py").is_file():
        print("bench: no src/ls_ledger here; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    ledger = wl.make(WORK / "input" / f"{args.workload}.jsonl", args.seed)
    clustering = workloads.average_clustering(ledger.cert_edges, ledger.identities)
    print(
        f"# {args.workload} seed {args.seed}: {ledger.lines} lines, "
        f"{len(ledger.malformed)} malformed, cert clustering {clustering:.4f}"
    )
    metrics, checks = measure(args.workload, ledger, wl, args.seed, args.seconds, bool(args.trace))
    if wl.clustering_vs_uniform is not None:
        uniform = workloads.uniform_clustering(args.seed, ledger.identities, ledger.certs)
        print(f"# cert clustering of the uniform generator at this size {uniform:.4f}")
        if clustering < wl.clustering_vs_uniform * uniform:
            checks.fail(f"generator: cert clustering below {wl.clustering_vs_uniform}x uniform")
    correct = not checks.problems
    if args.record and correct:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded.setdefault(args.workload, {})[str(args.seed)] = checks.expected
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
