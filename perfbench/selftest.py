"""Self-test of the benchmark on a smoke subset of each workload.

    python3 perfbench/selftest.py

For every workload it checks that traced and untraced runs print
byte-identical CLI output, that the runs emit exactly the metric names
and units listed in BENCHMARK.json, that the work counts of two traced
runs are identical, that each item's check rejects a tampered output,
and that the hang guard stops an item and names it.  It also checks that the
benchmark fails without printing a result when the package sources are
missing.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

WORK_COUNT_SUFFIXES = (".calls", ".checks", "covers.candidates", "covers.partitions", "cli.output_bytes")


def tamper(output: str) -> str:
    """The same JSON with one number changed so that the answer is wrong."""
    data = json.loads(output)
    if "minimum" in data:
        data["minimum"] = str(int(data["minimum"]) + 1)
    elif "polynomial" in data:
        coefficients = data["polynomial"]["coefficients"]
        coefficients[0] = str(int(coefficients[0]) + 1)
    else:
        data["failed"] = 1
    return json.dumps(data, indent=2)


def check_workload(name: str, names: dict[str, dict[str, str]]) -> list[str]:
    problems = []
    plain, _ = run.measure(name, seed=1, seconds=1, trace=False, smoke=True)
    traced = [run.measure(name, seed=1, seconds=1, trace=True, smoke=True)[0] for _ in range(2)]
    # A traced run compares every traced output with the untraced one, so
    # a difference makes it incorrect.
    for label, report in [("untraced", plain)] + [("traced", r) for r in traced]:
        if not report["result"]["correct"]:
            problems.append(f"{name} {label}: {report['info']['failures']}")
    for kind, report in (("end_to_end", plain), ("per_layer", traced[0])):
        emitted = {k: v["unit"] for k, v in report["result"]["metrics"].items()}
        if emitted != names[kind]:
            wrong = sorted(set(emitted.items()) ^ set(names[kind].items()))
            problems.append(f"{name} {kind}: names or units differ from BENCHMARK.json: {wrong}")
    first, second = ({k: v["value"] for k, v in r["result"]["metrics"].items()} for r in traced)
    for key in sorted(first):
        if key.endswith(WORK_COUNT_SUFFIXES) and first[key] != second.get(key):
            problems.append(f"{name}: work count {key} {first[key]} then {second.get(key)}")
    return problems


def check_gate_and_guard() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        _, _, items, workdir, _ = run.set_up(name, seed=2, smoke=True)
        try:
            runner = run.Runner(items)
            runner.run_rounds(1)
            for i, item in enumerate(items):
                rc, output = runner.first[i]
                if item.check(rc, output) is not None or item.check(rc, tamper(output)) is None:
                    problems.append(f"{item.name}: check does not tell right from tampered output")
            guarded = run.Runner(items[:1], item_limit_s=0.0001)
            guarded.run_rounds(1)
            if not any(f.startswith(items[0].name) and "timed out" in f for f in guarded.failures):
                problems.append(f"{items[0].name}: hang guard did not fire ({guarded.failures})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_without_sources() -> list[str]:
    """Run the benchmark in a directory holding only itself."""
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.pin_environment()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    if set(workloads.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        print("FAIL: BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    problems = []
    for name in workloads.WORKLOADS:
        problems += check_workload(name, names)
        print(f"{name}: smoke runs done", flush=True)
    problems += check_gate_and_guard()
    problems += check_without_sources()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
