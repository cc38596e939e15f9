"""Closed-loop benchmark of the dpchroma CLI.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One client calls `dpchroma.cli.main([...])` in-process, one item after the
other, in a single process with no threads.  A run sets up once, then
times whole rounds of the workload's items (round(S / nominal round time)
rounds, at least one), setting up SETUP_PER_ROUND more times before each
round, then checks every item's output by a second route.  Every timing
is scaled to a fixed machine speed by passes of a reference loop run
before, inside and after it (see `timed`).  With --trace 0 it prints the end-to-end metrics; with --trace 1 it times half
as many rounds untraced and then traced, and prints per-layer metrics per
round.  The last line of standard output is the JSON result; the exit
code is 0 only when every item was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# DPCHROMA_WORKERS overrides --workers in the CLI, so an inherited value
# would silently start a process pool; the hash seed fixes set iteration.
# Without bytecode files every set-up compiles the sources, as the first
# import from a fresh checkout does, whatever the inherited setting.
PINNED_ENV = {"DPCHROMA_WORKERS": "1", "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
# Set-ups are spread over the run, between the rounds, so that the median
# set-up time samples the machine over the same stretch as the rounds do.
SETUP_PER_ROUND = 3
ITEM_LIMIT_S = 60.0
# No item starts this long after the first timed round began (in a traced
# run, the first untraced round), so a slow commit still ends inside the
# 180 s a run may take.
PHASE_LIMIT_S = 120.0
# The reference loop's passes (see `timed`): REFERENCE_N iterations take
# REFERENCE_S seconds at the reference speed, that of a 2-vCPU Xeon VM at
# 2.0 GHz with Python 3.11 in its faster state.  A pass runs every
# PROBE_EVERY_S of CPU time while a timed stretch of work runs.
REFERENCE_N = 1200
REFERENCE_S = 0.00023
PROBE_EVERY_S = 0.025


def _reference_loop(n: int) -> int:
    """A fixed pure-Python loop of the kinds of work dpchroma does: dict
    lookups, integer arithmetic, list appends.  It makes no tuples or other
    containers, so it never sets off the garbage collector."""
    table: dict[int, int] = {}
    out = []
    for i in range(n):
        key = (i & 127) * 13 + i % 13
        table[key] = table.get(key, 1) * 3 % 1000003 + i
        if not i & 7:
            out.append(key)
    return len(out) + len(table)


def reference() -> float:
    """Seconds one reference pass takes now (the lesser of two)."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _reference_loop(REFERENCE_N)
        best = min(best, time.perf_counter() - start)
    return best


class Lap:
    """One timed stretch: `wall` seconds of work, which at the reference
    speed would have taken `scaled` seconds; `speed` is their ratio."""

    wall = scaled = speed = math.nan


@contextlib.contextmanager
def timed():
    """Times the work of a `with` block at the reference speed.

    The machine the benchmark was built on runs the same code up to 1.8x
    slower for stretches of a second to several minutes, and switches
    within a single item.  So a reference pass runs just before and after
    the block and, on SIGPROF, every PROBE_EVERY_S of CPU time inside it;
    the block's wall time, less those passes, times the mean speed of the
    passes (REFERENCE_S over a pass's time) reads the same in either state.
    """
    lap = Lap()
    passes: list[float] = []

    def on_prof(signum, frame):
        passes.append(reference())

    before = reference()
    previous = signal.signal(signal.SIGPROF, on_prof)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield lap
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGPROF, previous)
        lap.wall = elapsed - sum(passes)
        lap.speed = statistics.mean(REFERENCE_S / x for x in (before, *passes, reference()))
        lap.scaled = lap.wall * lap.speed


def pin_environment():
    """Re-executes the interpreter once if the pinned variables differ."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def import_package():
    """Fresh import of dpchroma from this checkout's src/."""
    for name in [n for n in sys.modules if n == "dpchroma" or n.startswith("dpchroma.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import dpchroma.cli

    if not os.path.abspath(dpchroma.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dpchroma imported from {dpchroma.cli.__file__}, not {SRC}")
    return dpchroma.cli


class ItemTimeout(BaseException):
    """Raised inside an item that ran past ITEM_LIMIT_S.  A BaseException
    so that no handler in the package can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


class Runner:
    """Runs items through `cli.main` and keeps what the metrics need."""

    def __init__(self, items, item_limit_s: float = ITEM_LIMIT_S):
        self.cli = None
        self.items = items
        self.item_limit_s = item_limit_s
        self.first: list[tuple[int, str] | None] = [None] * len(items)
        self.samples: list[list[float]] = [[] for _ in items]
        self.raw_samples: list[list[float]] = [[] for _ in items]
        self.speeds: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_index: set[int] = set()
        self.output_bytes = 0

    def run_item(self, i: int) -> Lap:
        """Runs item i once and returns its lap.  The item starts on a heap
        cleared of earlier items' garbage, as a call in a process of its own
        would, so its cost does not hang on the items run before it."""
        item = self.items[i]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with timed() as lap:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            try:
                signal.setitimer(signal.ITIMER_REAL, self.item_limit_s)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(item.argv))
            except ItemTimeout:
                rc, problem = None, f"timed out after {self.item_limit_s:g} s"
            except Exception:
                rc, problem = None, "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.attempted += 1
        self.samples[i].append(lap.scaled)
        self.raw_samples[i].append(lap.wall)
        self.speeds.append(lap.speed)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if rc is not None:
            problem = None
            if self.first[i] is None:
                self.first[i] = (rc, text)
            elif self.first[i] != (rc, text):
                problem = "output differs from its first run"
        if problem:
            self.failures.append(f"{item.name}: {problem}")
            self.failed_index.add(i)
        return lap

    def run_rounds(self, rounds: int, deadline: float = math.inf, fresh=import_package) -> tuple[list[float], float]:
        """Up to `rounds` rounds, starting no item after `deadline` (a
        perf_counter value).  Returns the scaled seconds of each completed
        round, and the scaled seconds of all items run, including those of
        a round cut short by the deadline.

        Before each round, outside the timed region, `fresh()` imports the
        package anew and returns its cli module, so that no module state
        (a cache, say) carries from one round to the next: every round
        costs what one call per process would.
        """
        completed, total = [], 0.0
        while len(completed) < rounds and not self.failures and time.perf_counter() < deadline:
            self.cli = fresh()
            spent = 0.0
            whole = True
            for i in range(len(self.items)):
                if self.failures or time.perf_counter() >= deadline:
                    whole = False
                    break
                spent += self.run_item(i).scaled
            total += spent
            if whole and not self.failures:
                completed.append(spent)
        return completed, total

    def gate(self) -> int:
        """Checks each distinct item's first output by its second route;
        returns the number of executions that were wrong."""
        checked: dict[tuple[str, ...], str | None] = {}
        for i, item in enumerate(self.items):
            if self.first[i] is None or i in self.failed_index:
                continue
            if item.argv not in checked:
                try:
                    checked[item.argv] = item.check(*self.first[i])
                except Exception:
                    checked[item.argv] = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            if checked[item.argv]:
                self.failures.append(f"{item.name}: {checked[item.argv]}")
                self.failed_index.add(i)
        return sum(len(self.samples[i]) for i in self.failed_index)


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it
    (nearest-rank), and its value; the minimum below 11 samples.

    For p <= 100 (n - 10) / n the nearest rank ceil(p n / 100) is at most
    n - 10, so the largest such whole p leaves at least ten above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    p = max(0, min(99, 100 * (n - 10) // n))
    return xs[max(math.ceil(p * n / 100) - 1, 0)], p


def environment(load_at_start) -> dict:
    lines = 0
    package = os.path.join(SRC, "dpchroma")
    for name in sorted(os.listdir(package)) if os.path.isdir(package) else []:
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_at_start],
        "src_lines": lines,
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def _git_sha() -> str | None:
    """HEAD's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def set_up(workload_name: str, seed: int, smoke: bool = False):
    """Import the package, build the items and write their graph files;
    returns (cli, workload, items, workdir, scaled seconds taken).  The
    garbage of earlier set-ups and rounds is collected before timing."""
    gc.collect()
    with timed() as lap:
        cli = import_package()
        import workloads

        workload = workloads.WORKLOADS[workload_name]
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        items = workload.build(seed, workdir, smoke=smoke)
    return cli, workload, items, workdir, lap.scaled


def measure(workload_name: str, seed: int, seconds: int, trace: bool, smoke: bool = False) -> tuple[dict, int]:
    load_at_start = os.getloadavg()
    _, workload, items, workdir, first_setup_s = set_up(workload_name, seed, smoke)
    setup_times = [first_setup_s]

    def set_up_again():
        """SETUP_PER_ROUND timed set-ups whose items are thrown away; the
        rounds keep the first set-up's items and the last import."""
        for _ in range(SETUP_PER_ROUND):
            cli, _, _, spare, took = set_up(workload_name, seed, smoke)
            shutil.rmtree(spare)
            setup_times.append(took)
        return cli

    try:
        rounds = max(1, round(seconds / workload.nominal_round_s))
        runner = Runner(items)
        info = {"workload": workload_name, "seed": seed, "items_per_round": len(items)}
        deadline = time.perf_counter() + PHASE_LIMIT_S
        metrics = {}
        if trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()

            def traced_fresh():
                tracer.uninstall()
                cli = import_package()
                tracer.install()
                return cli

            plain, _ = runner.run_rounds(max(1, rounds // 2), deadline)
            before = runner.output_bytes
            try:
                traced, _ = runner.run_rounds(len(plain), deadline, traced_fresh)
            finally:
                tracer.uninstall()
            tracer.counts["cli.output_bytes"] = runner.output_bytes - before
            # Counts are per traced round, so a traced phase cut short by
            # the deadline fails the run rather than skew them.
            if plain and len(traced) == len(plain):
                from dpchroma.verify import SUITES

                overhead = statistics.mean(traced) / statistics.mean(plain) - 1
                values = layer_metrics(tracer, len(traced), SUITES, overhead)
                metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
            info["rounds"] = {"untraced": len(plain), "traced": len(traced)}
            info["timed_s"] = {"untraced": sum(plain), "traced": sum(traced)}
        else:
            completed, spent = runner.run_rounds(rounds, deadline, set_up_again)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if completed:
                pooled = [x for xs in runner.samples for x in xs]
                n = len(pooled)
                tail_s, tail_p = tail(pooled)
                wall = [x for xs in runner.raw_samples for x in xs]
                metrics = {
                    "items_per_s": {"value": n / spent, "unit": "1/s"},
                    "item_p50_ms": {"value": statistics.median(pooled) * 1e3, "unit": "ms"},
                    "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
                    "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                }
                info.update(rounds=len(completed), samples=n, tail_percentile=tail_p, setups=len(setup_times))
                info["unscaled"] = {
                    "items_per_s": n / sum(wall),
                    "item_p50_ms": statistics.median(wall) * 1e3,
                    "timed_s": sum(wall),
                    "speed": statistics.median(runner.speeds),
                }
        if not metrics and not runner.failures:
            runner.failures.append(f"no complete round within {PHASE_LIMIT_S:g} s")
        failed = runner.gate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(runner.attempted, 1)
    info.update(
        fail_rate=failed / attempted,
        failures=runner.failures[:20],
        env=environment(load_at_start),
    )
    correct = not runner.failures and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}, 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("per_candidate", "per_weight", "overhead_frac")):
        return "ratio"
    return "count"


def print_report(report: dict):
    info, result = report["info"], report["result"]
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{info['workload']:16s} {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{info['workload']:16s} {'fail_rate':48s} {info['fail_rate']:.6g}"
        f" ({result['failed']} of {result['attempted']} items)"
    )
    for failure in info["failures"]:
        print(f"FAILED {failure}")


def run_all(args) -> int:
    """Each workload in its own process; prints every metric and a
    combined result with workload-prefixed metric names."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "dpchroma", "cli.py")):
        print(f"perfbench: no dpchroma sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    report, code = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
