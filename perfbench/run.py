"""Benchmark of the ``fosg`` command line: one closed-loop client, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each operation is one ``fosg.cli.main(argv)``
call on a generated game, under an in-process deadline (``signal.setitimer``)
and with its output captured in memory. Operations run in passes over the
workload's games, each pass in an order drawn from the seed, until ``--seconds``
have passed; the last pass always completes, so every game weighs the same.
An operation that failed is not attempted again in the same run. Outputs are
checked after the timed loop.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
completed operation a second time with spans recorded around each layer's
public function, then runs the layer probes, and reports the per-layer
metrics. The last line of standard output is the JSON result; the lines
before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from checks import Checker
from layers import PER_LAYER, layer_breakdown, layer_metrics, run_probes
from spans import Tracer
from workloads import TRACE_FILE, WORKLOADS, Game, Op, check_game, write_game

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
SETUP_REPS = 7
SETUP_REPS_BEFORE = 4
LIBRARY_TOL = 1e-12
TAIL_BEYOND = 10
# The process replaces itself with one that has these settings. String
# hashing decides set order and dict probing in the package: with a random
# hash seed one process ran the same operations 20% slower than the next. The
# load is one single-threaded client, and on 2 vCPUs a second OpenBLAS thread
# made one simplex solve take 4.0-7.5 s instead of 3.2-3.6 s.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MODULES = ("cli", "games", "io", "model", "unroll", "timing", "cfr", "decomposition",
           "sequence_form")


class DeadlineExceeded(Exception):
    """Raised by the SIGALRM handler when an operation overruns its deadline."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


@dataclass
class Attempt:
    op: Op
    run_pass: int
    seconds: float
    status: str                       # "ok", "deadline", "exit", "exception" or "check"
    out: str
    err: str
    trace_path: Optional[str] = None
    traced_seconds: Optional[float] = None
    traced_out: str = ""
    library_gap: Optional[float] = None
    exploitability: Optional[float] = None
    at_target: Optional[Tuple[int, float]] = None


def import_fosg() -> types.SimpleNamespace:
    """Import the package from this checkout's ``src``, afresh."""
    for name in [n for n in sys.modules if n == "fosg" or n.startswith("fosg.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"fosg.{name}") for name in MODULES}
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"fosg was imported from {modules['cli'].__file__}, not {SRC}")
    return types.SimpleNamespace(**modules)


def call_cli(fosg, argv: List[str], deadline_s: float,
             tracer: Optional[Tracer] = None, op_id: str = "") -> Tuple[str, float, str, str, int]:
    """One ``fosg.cli.main`` call: (status, seconds, stdout, stderr, root span index).

    The collector runs first, untimed, so every call starts from the same
    collector state, as it would in a fresh process.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    status, root = "ok", -1
    recording = tracer.recording(op_id, "cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with recording as root_span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if root_span is not None:
                    root = len(tracer.spans) - 1
                rc = fosg.cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if rc != 0:
            status = "exit"
            err.write(f"exit code {rc}\n")
    except DeadlineExceeded:
        status = "deadline"
    except (Exception, SystemExit) as exc:  # the operation failed; the benchmark goes on
        status = "exception"
        err.write(f"{type(exc).__name__}: {exc}\n")
    return status, time.perf_counter() - start, out.getvalue(), err.getvalue(), root


def set_up(workload, directory: str):
    """Import, generate the workload's games, write each to a fresh file, warm up."""
    fosg = import_fosg()
    games = workload.games(fosg)
    os.makedirs(directory)
    for game in games:
        check_game(game, fosg)
        write_game(game, directory, fosg)
    kuhn = Game(id="warm-up-kuhn", kind="spec", obj=fosg.games.kuhn_poker())
    write_game(kuhn, directory, fosg)
    warm_up = (
        ["solve", "cfr", "--game", kuhn.path, "--iters", "10", "--stride", "5",
         "--trace", os.path.join(directory, "warm-up-trace.csv")],
        ["solve", "cfrd", "--game", kuhn.path, "--iters", "2", "--subgame-iters", "5"],
        ["solve", "lp", "--game", kuhn.path],
        ["inspect", "--game", kuhn.path],
        ["timing", "check", "--game", "nontimeable"],
        ["timing", "pad", "--game", "padding_chain:4"],
    )
    for argv in warm_up:
        status, _seconds, _out, err, _root = call_cli(fosg, argv, workload.deadline_s)
        if status != "ok":
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {status} {err.strip()}")
    return fosg, games, kuhn.path


def measure(fosg, ops: List[Op], deadline_s: float, seed: int, seconds: float,
            directory: str, tracer: Optional[Tracer]) -> List[Attempt]:
    """Closed loop over whole passes until ``seconds`` have passed."""
    os.makedirs(directory)
    rng = random.Random(seed)
    attempts: List[Attempt] = []
    failed = set()
    start = time.perf_counter()
    for run_pass in itertools.count():
        order = [op for op in ops if op.id not in failed]
        if not order:
            break
        rng.shuffle(order)
        for op in order:
            trace_path = os.path.join(directory, f"{len(attempts)}.csv")
            attempt = Attempt(op, run_pass, 0.0, "ok", "", "", trace_path)
            attempts.append(attempt)
            # In a traced run, every other operation runs traced first, so
            # running second (warm caches) favours neither side of the overhead.
            modes = ((False,) if tracer is None else
                     (True, False) if len(attempts) % 2 == 0 else (False, True))
            for traced in modes:
                path = trace_path + ".traced" if traced else trace_path
                argv = [path if a == TRACE_FILE else a for a in op.argv]
                status, elapsed, out, err, root = call_cli(
                    fosg, argv, deadline_s, tracer if traced else None, op.id)
                if traced:
                    attempt.traced_seconds, attempt.traced_out = elapsed, out
                    attempt.library_gap = next(
                        (s.counts["value"] for s in reversed(tracer.spans[root:])
                         if s.parent == root and s.name == "cfr.exploitability"), None)
                else:
                    attempt.seconds, attempt.out, attempt.err = elapsed, out, err
                if status != "ok":
                    if traced:  # per-layer metrics describe completed operations only
                        del tracer.spans[root:]
                    attempt.status, attempt.seconds = status, elapsed
                    attempt.err = (f"missed the {deadline_s:g} s deadline"
                                   if status == "deadline" else err)
                    failed.add(op.id)
                    break
        if time.perf_counter() - start >= seconds:
            break
    return attempts


def check_outputs(checker: Checker, attempts: List[Attempt]) -> List[str]:
    """Run the output checks; a failed check fails its attempt."""
    problems = []
    for attempt in attempts:
        if attempt.status != "ok":
            continue
        found = checker.check(attempt)
        if attempt.library_gap is not None:
            traced = json.loads(attempt.traced_out)["exploitability"]
            if abs(traced - attempt.library_gap) > LIBRARY_TOL:
                found.append(f"CLI exploitability {traced!r} differs from the library's "
                             f"{attempt.library_gap!r}")
        if found:
            attempt.status = "check"
            problems += [f"{attempt.op.id}: {p}" for p in found]
    return problems


def _median_per_game(attempts: List[Attempt], value) -> Optional[float]:
    first: Dict[str, float] = {}
    for a in attempts:
        v = value(a)
        if a.status == "ok" and v is not None:
            first.setdefault(a.op.game, v)
    return statistics.median(first.values()) if first else None


def _pass_rates(completed: List[Attempt]) -> List[float]:
    """Completed operations per second of their own time, one rate per pass."""
    per_pass: Dict[int, List[float]] = {}
    for a in completed:
        per_pass.setdefault(a.run_pass, []).append(a.seconds)
    return [len(times) / sum(times) for times in per_pass.values()]


def _show(name: str, value, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<38} {shown:>14} {unit:<6} {note}".rstrip())


def report(workload, args, attempts, setup_times, peak_rss_mb):
    """Print the readable report; return (end-to-end metrics, failed attempts)."""
    completed = [a for a in attempts if a.status == "ok"]
    failures = [a for a in attempts if a.status != "ok"]
    times = sorted(a.seconds for a in completed)
    n = len(times)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[tail_index] if n > TAIL_BEYOND else times[-1],
        "ops_per_s": statistics.median(_pass_rates(completed)),
        "peak_rss_mb": peak_rss_mb,
    }
    tail_note = (f"p{100.0 * (tail_index + 1) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond"
                 if n > TAIL_BEYOND else f"max of {n} ops (fewer than {TAIL_BEYOND + 1})")
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client, deadline {workload.deadline_s:g} s")
    print(f"  why: {workload.why}")
    print(f"  end-to-end metrics ({'untraced calls, ' if args.trace else ''}"
          f"passes: {1 + max(a.run_pass for a in attempts)}):")
    for name, unit in END_TO_END.items():
        _show(name, metrics[name], unit, tail_note if name == "op_tail_s" else
              f"median of {len(setup_times)} set-ups" if name == "setup_s" else
              "median over passes" if name == "ops_per_s" else "")
    _show("fail_ratio", len(failures) / len(attempts), "",
          f"{len(failures)} failed of {len(attempts)} attempted")
    ttt = _median_per_game(attempts, lambda a: a.at_target[1] / 1000.0 if a.at_target else None)
    _show("time_to_target_s", ttt, "s", "cfr-random only" if ttt is None else
          "median over games, first trace point at the target")
    expl = _median_per_game(attempts, lambda a: a.exploitability)
    _show("expl_at_budget", expl, "", "solver workloads only" if expl is None else
          "median over games")
    for a in failures:
        print(f"  FAILED {a.op.id} ({a.status}) after {a.seconds:.3f} s: "
              f"{a.err.strip().splitlines()[-1] if a.err.strip() else ''}")
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, **FIXED_ENV))
    if not os.path.isfile(os.path.join(SRC, "fosg", "cli.py")):
        print(f"no fosg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"run-{os.getpid()}-{time.time_ns()}")
    try:
        return _run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)


def timed_set_up(workload, workdir: str, setup_times: List[float]):
    gc.collect()  # each set-up starts from the same collector state
    start = time.perf_counter()
    result = set_up(workload, os.path.join(workdir, f"setup{len(setup_times)}"))
    setup_times.append(time.perf_counter() - start)
    return result


def _run(workload, args, workdir: str) -> int:
    # Set-ups run both before and after the timed loop, so that their median
    # is not decided by the machine's speed in the run's first second.
    setup_times: List[float] = []
    for _ in range(SETUP_REPS_BEFORE):
        fosg = games = None
        fosg, games, kuhn_path = timed_set_up(workload, workdir, setup_times)
    gc.collect()
    gc.freeze()  # set-up's objects live for the whole run; keep them out of collections
    tracer = Tracer() if args.trace else None
    attempts = measure(fosg, workload.ops(games), workload.deadline_s, args.seed,
                       args.seconds, os.path.join(workdir, "traces"), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(Checker(fosg, {g.id: g for g in games}), attempts)
    if not any(a.status == "ok" for a in attempts):
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1
    values = breakdown = None
    if tracer is not None:
        completed = [a for a in attempts if a.status == "ok"]
        overhead_ms = 1000.0 * (statistics.median(a.traced_seconds for a in completed)
                                - statistics.median(a.seconds for a in completed))
        probe_target = run_probes(fosg, tracer, [g for g in games if g.kind == "spec"],
                                  kuhn_path)
        reached = [a.at_target[0] for a in completed if a.at_target]
        values = layer_metrics(tracer, statistics.median(reached) if reached else probe_target,
                               overhead_ms)
        breakdown = layer_breakdown(tracer)
    # The remaining set-ups re-import the package, so they come after its last use.
    while len(setup_times) < SETUP_REPS:
        timed_set_up(workload, workdir, setup_times)
    metrics, failures = report(workload, args, attempts, setup_times, peak_rss_mb)
    reported, source = (END_TO_END, metrics) if tracer is None else (PER_LAYER, values)
    result = {name: {"value": source[name], "unit": unit} for name, unit in reported.items()}
    if tracer is not None:
        print("  per-layer metrics (traced run; see perfbench/README.md for sources):")
        for name, unit in PER_LAYER.items():
            _show(name, values[name], unit)
        print("  self time per layer, ms: mean per op | within the median op")
        for layer, mean in breakdown["mean_ms"].items():
            print(f"    {layer:<16} {mean:12.3f} | {breakdown['median_op_ms'][layer]:12.3f}")
        print(f"  accounting: the median traced op's layer self times sum to "
              f"{sum(breakdown['median_op_ms'].values()):.3f} ms; untraced op_p50_s is "
              f"{1000.0 * metrics['op_p50_s']:.3f} ms; trace.overhead_ms is "
              f"{values['trace.overhead_ms']:.3f} ms")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(attempts),
                      "failed": len(failures), "metrics": result}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
