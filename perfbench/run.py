"""Closed-loop benchmark of the pcclone command line.

One client in one process calls ``pcclone.cli.main(argv)`` on a seeded deck
of configurations, one call at a time, for ``--seconds`` seconds, with
BLAS/OpenMP threads pinned to 1.  Every output is checked after the timed
window (see check.py); at the default seed its sha256 must also equal the
digest recorded in digests.json.

Times are gauged against the speed of the host: a fixed yardstick runs
before every timed call and before and after every set-up sample, and each
time is scaled to the host speed at which the yardstick takes
``yardstick.YARDSTICK_MS`` (see yardstick.py).  Each workload names its
kind of yardstick in ``workloads.YARDSTICK``; set-up uses the ``python``
kind.  The raw figures are printed and saved beside the scaled ones.

    python3 perfbench/run.py --workload sweep_closed --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs whole decks untraced for half the time,
then the same calls again with the span tracer installed (tracer.py).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with its environment block, is also written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from yardstick import WINDOW, YARDSTICK_MS, Yardstick, normalise, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
IMPORT_SAMPLES = 9
#: yardstick runs before and after each set-up sample
SETUP_GAUGES = 3
WARMUP_S = 1.0
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import pcclone.cli; "
                  "print(time.perf_counter() - t)")

#: layer spans, named as module.attribute under src/pcclone
SPANS = (
    "cli.main",
    "experiment.parse_experiment",
    "experiment.run_experiment",
    "experiment.compare_experiments",
    "experiment.render_rows",
    "compensation.optimize_symmetry",
    "cloners.run_model",
    "cloners.circuit_joint_state",
    "cloners.CloneReport.from_joint",
    "noise.evaluate",
    "noise.with_distinguishability",
    "noise.sample_phase_jitter",
    "noise.conditional_sector_vectors",
    "counting.simulate_counts",
    "fock.apply_two_mode_coupler",
    "fock.postselect_coincidence",
    "fock.TwoQubitState",
    "fock.DensityMatrix",
)
VALUE_OF = {
    "cli.main": lambda code: code != 0,
    "compensation.optimize_symmetry": lambda result: result.evaluations,
    "noise.sample_phase_jitter": lambda array: array.nbytes,
    "noise.conditional_sector_vectors": lambda array: array.nbytes,
}


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``kind`` ("end_to_end" or "per_layer")."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def setup_times(yardstick: Yardstick) -> tuple[list[float], list[float]]:
    """Seconds to ``import pcclone.cli`` in fresh interpreters, raw and scaled.

    Each sample is scaled by the median of the yardstick runs just before
    and just after it.  This process and its children are pinned to one CPU
    meanwhile, so that the yardstick gauges the CPU the import runs on; the
    speed of the two vCPUs of a shared host can differ.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for _ in range(IMPORT_SAMPLES):
            gauges = [yardstick.time() for _ in range(SETUP_GAUGES)]
            done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            gauges += [yardstick.time() for _ in range(SETUP_GAUGES)]
            seconds = float(done.stdout.split()[-1])
            raw.append(seconds)
            scaled.append(scale(seconds, gauges, yardstick.kind))
    finally:
        os.sched_setaffinity(0, allowed)
    return raw, scaled


def environment(workload: str, seed: int) -> dict:
    import numpy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    nonblank = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        nonblank += sum(1 for line in data.decode().splitlines()
                        if not re.fullmatch(r"\s*", line))
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit if commit else "unavailable: not a git checkout",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "src_nonblank_lines": nonblank,
        "src_line_method": "lines of src/**/*.py not matching ^\\s*$, the count "
                           "grep -cv '^\\s*$' gives over the concatenated files",
    }


class Session:
    """The deck of one workload, its files, and every call made on it."""

    def __init__(self, workload: str, seed: int, workdir: Path, expected_digests=None):
        import workloads
        from pcclone import cli

        self.cli = cli
        self.deck = workloads.deck(workload, seed)
        self.expected_digests = expected_digests
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for entry, call in enumerate(self.deck):
            path = workdir / f"config-{entry}.json"
            path.write_text(json.dumps(call.config), encoding="utf-8")
            self.config_paths.append(path)
        self.first_output: list[bytes | None] = [None] * len(self.deck)
        self.calls: list[tuple[int, float]] = []  # (deck entry, seconds)
        self.failures: dict[int, str] = {}  # call number -> reason

    def run(self, entry: int) -> float:
        """Make one CLI call on deck entry ``entry``; return its duration."""
        call = self.deck[entry]
        out = self.workdir / f"out-{entry}.{call.fmt}"
        out.unlink(missing_ok=True)
        argv = [call.subcommand, "--config", str(self.config_paths[entry]),
                "--out", str(out), "--format", call.fmt]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call, so a tracer sees it
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start

        number = len(self.calls)
        self.calls.append((entry, elapsed))
        if code != 0:
            self.failures[number] = f"deck entry {entry}: exit {code}"
        elif not out.is_file():
            self.failures[number] = f"deck entry {entry}: no output written"
        else:
            data = out.read_bytes()
            if self.first_output[entry] is None:
                self.first_output[entry] = data
            elif data != self.first_output[entry]:
                self.failures[number] = f"deck entry {entry}: output differs between calls"
        return elapsed

    def verify(self) -> list[str]:
        """Check each distinct output once; fail every call of a bad entry."""
        import check

        problems = []
        for entry, data in enumerate(self.first_output):
            if data is None:
                continue
            found = check.check_output(self.deck[entry], data.decode("utf-8"))
            if self.expected_digests is not None:
                digest = hashlib.sha256(data).hexdigest()
                if digest != self.expected_digests[entry]:
                    found.append(f"sha256 {digest} differs from the recorded digest")
            if found:
                problems += [f"deck entry {entry}: {p}" for p in found]
                for number, (e, _) in enumerate(self.calls):
                    if e == entry:
                        self.failures.setdefault(number, f"deck entry {entry}: {found[0]}")
        return problems

    def warm_up(self) -> None:
        entry, start = 0, time.perf_counter()
        while entry == 0 or (entry < len(self.deck)
                             and time.perf_counter() - start < WARMUP_S):
            self.run(entry)
            entry += 1

    def run_deck(self) -> float:
        return sum(self.run(entry) for entry in range(len(self.deck)))


def percentile_90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8]


def timing_figures(deck, entries: list[int], times: list[float]) -> dict:
    """Throughputs and percentiles of the calls ``entries`` took ``times``.

    Throughputs divide the work of one deck by the sum of each entry's
    median call time, so a burst of load from elsewhere on the machine
    moves them less than a plain total would.
    """
    entry_median = [statistics.median(t for e, t in zip(entries, times) if e == entry)
                    for entry in range(len(deck))]
    deck_s = sum(entry_median)
    p90 = percentile_90(times)
    return {
        "calls_per_s": len(deck) / deck_s,
        "call_p50_ms": statistics.median(times) * 1e3,
        "call_p90_ms": p90 * 1e3,
        "rows_per_s": sum(call.rows for call in deck) / deck_s,
        "pairs_per_s": sum(call.pairs for call in deck) / deck_s,
        "calls_beyond_p90": sum(t > p90 for t in times),
        "entry_median_ms": [t * 1e3 for t in entry_median],
    }


def measure(session: Session, seconds: float, yardstick: Yardstick) -> tuple[dict, dict]:
    """Timed closed loop over whole decks; returns (metrics, extra figures).

    The loop ends at the first deck boundary after ``seconds``, so every
    deck entry is timed equally often.  Two yardstick runs precede each
    call and the second is timed, so that the gauge does not depend on how
    much of the caches the program under test used.  The metrics come from
    the call times scaled by it.
    """
    session.warm_up()
    for _ in range(2 * WINDOW):
        yardstick.time()
    first = len(session.calls)
    gauges = []
    decks, start = 0, time.perf_counter()
    while decks == 0 or time.perf_counter() - start < seconds:
        for entry in range(len(session.deck)):
            yardstick.work()  # refills what the last call evicted from the caches
            gauges.append(yardstick.time())
            session.run(entry)
        decks += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    entries = [e for e, _ in session.calls[first:]]
    raw = [t for _, t in session.calls[first:]]
    scaled = timing_figures(session.deck, entries, normalise(raw, gauges, yardstick.kind))
    metrics = {name: scaled[name] for name in
               ("calls_per_s", "call_p50_ms", "call_p90_ms", "rows_per_s")}
    metrics["peak_rss_mb"] = peak_rss_mb
    quartiles = statistics.quantiles(gauges, n=4)
    extra = {
        "timed_calls": len(raw),
        "decks": decks,
        "calls_beyond_p90": scaled["calls_beyond_p90"],
        "pairs_per_s": scaled["pairs_per_s"],
        "entry_median_ms": scaled["entry_median_ms"],
        "raw": timing_figures(session.deck, entries, raw),
        "yardstick_ms": {"q1": quartiles[0] * 1e3, "median": quartiles[1] * 1e3,
                         "q3": quartiles[2] * 1e3, "kind": yardstick.kind, "scale": YARDSTICK_MS[yardstick.kind]},
        "call_entries": entries,
        "call_seconds": raw,
        "yardstick_seconds": gauges,
    }
    return metrics, extra


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    """Untraced whole decks for half the time, then the same calls traced."""
    from tracer import Tracer

    session.warm_up()
    size = len(session.deck)
    decks, untraced, start = 0, 0.0, time.perf_counter()
    while decks == 0 or time.perf_counter() - start < seconds / 2.0:
        untraced += session.run_deck()
        decks += 1

    tracer = Tracer("pcclone", SPANS, VALUE_OF)
    first = len(session.calls)
    tracer.install()
    try:
        traced = 0.0
        for number in range(decks * size):
            tracer.call_id = first + number
            traced += session.run(number % size)
    finally:
        tracer.uninstall()

    call_ids = range(first, first + decks * size)
    counted = [c for c in call_ids if session.deck[session.calls[c][0]].counted]
    stats = tracer.stats(call_ids)
    rows = sum(session.deck[session.calls[c][0]].rows for c in call_ids)
    counted_rows = sum(session.deck[session.calls[c][0]].rows for c in counted)
    evaluate_counted = tracer.stats(counted)["noise.evaluate"].calls if counted else 0
    optimize = stats["compensation.optimize_symmetry"]

    metrics = {}
    for span, s in stats.items():
        metrics[f"{span}.calls"] = s.calls / decks
        metrics[f"{span}.self_s"] = s.self_s / decks
        metrics[f"{span}.total_s"] = s.total_s / decks
    validations = stats["fock.TwoQubitState"].calls + stats["fock.DensityMatrix"].calls
    metrics.update({
        "noise.evaluate.calls_per_row": evaluate_counted / counted_rows if counted_rows else 0.0,
        "fock.validations_per_row": validations / rows,
        "compensation.evaluations_per_call": optimize.value / optimize.calls if optimize.calls else 0.0,
        "noise.conditional_sector_vectors.bytes_out":
            stats["noise.conditional_sector_vectors"].value / decks,
        "noise.sample_phase_jitter.bytes_out": stats["noise.sample_phase_jitter"].value / decks,
        "cli.main.errors": stats["cli.main"].value + stats["cli.main"].raised,
        "trace.overhead": traced / untraced,
        "trace.missing_spans": len(tracer.missing),
    })
    extra = {"decks": decks, "calls_per_deck": size, "counted_rows": counted_rows,
             "missing_spans": tracer.missing, "tracer": tracer}
    return metrics, extra


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"][workload]
    env = environment(workload, seed)
    setup_raw, setup = (None, None) if trace else setup_times(Yardstick("python"))
    workdir = WORK / f"run-{os.getpid()}"
    try:
        session = Session(workload, seed, workdir, expected)
        if trace:
            metrics, extra = measure_layers(session, seconds)
            units = declared_units("per_layer")
        else:
            metrics, extra = measure(session, seconds, Yardstick(workloads.YARDSTICK[workload]))
            metrics["setup_s"] = statistics.median(setup)
            units = declared_units("end_to_end")
        problems = session.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(session.calls)
    failed = len(session.failures)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        tracer.save(results / f"{workload}-spans.npz")

    print(f"workload {workload}  seed {seed}  trace {'on' if trace else 'off'}  "
          f"calls {attempted}")
    for name in sorted(units) if trace else units:
        print(f"  {name:<50} {metrics[name]:>14.6g} {units[name]}")
    if not trace:
        print(f"  {'call_p90_ms samples':<50} {extra['calls_beyond_p90']} of "
              f"{extra['timed_calls']} timed calls lie beyond the 90th percentile"
              + ("" if extra["calls_beyond_p90"] >= 10 else " (fewer than 10: indicative only)"))
        if workload == "mc_jitter":
            print(f"  {'pairs_per_s':<50} {extra['pairs_per_s']:>14.6g} 1/s")
        raw = extra["raw"]
        print(f"  {'raw (unscaled) calls_per_s, p50, p90, rows_per_s':<50} "
              f"{raw['calls_per_s']:.6g} 1/s, {raw['call_p50_ms']:.6g} ms, "
              f"{raw['call_p90_ms']:.6g} ms, {raw['rows_per_s']:.6g} 1/s")
        gauge = extra["yardstick_ms"]
        print(f"  {'yardstick run, quartiles':<50} {gauge['q1']:.4g} / {gauge['median']:.4g}"
              f" / {gauge['q3']:.4g} ms ({gauge['kind']}); times are scaled to {gauge['scale']} ms")
        print(f"  {'setup_s samples, scaled':<50} " + " ".join(f"{t:.4f}" for t in setup))
        print(f"  {'setup_s samples, raw':<50} " + " ".join(f"{t:.4f}" for t in setup_raw))
    else:
        print(f"  traced {extra['decks']} decks of {extra['calls_per_deck']} calls; "
              f"missing spans: {extra['missing_spans'] or 'none'}")
    print(f"  {'error_rate':<50} {failed / attempted:>14.6g} ({failed} of {attempted} calls)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = dict(result, env=env, extra=extra, error_rate=failed / attempted,
                setup_samples_s=setup, setup_raw_samples_s=setup_raw, problems=problems)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        summary["correct"] &= part["correct"]
        summary["attempted"] += part["attempted"]
        summary["failed"] += part["failed"]
        for name, value in part["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sweep_closed, sweep_hom, mc_jitter, optimize or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcclone" / "cli.py").is_file():
        print(f"error: {SRC / 'pcclone'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
