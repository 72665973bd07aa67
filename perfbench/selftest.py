"""Short self-test of the benchmark against the code in this checkout.

    python3 perfbench/selftest.py

For every workload it makes one very short run with --trace 0 and one with
--trace 1 and checks that:
- the last line is the result object, with every metric BENCHMARK.json names
  for that mode, each with its unit, and no other;
- no certification failed (fail_frac is 0) and no layer microbenchmark gave
  a verdict other than the seed code's.
It also checks that a directory holding only BENCHMARK.json and perfbench/,
with no fourvel sources, makes the benchmark exit non-zero without a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(workload: str, trace: int) -> list:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in want if n in got and want[n] != got[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, "
                        f"wrong units {units}")
    print(f"{where}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_bare_directory() -> list:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    ok = proc.returncode != 0 and not last.startswith("{")
    print(f"bare directory: {'ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, "
                          f"last line {last!r}"]


def main() -> int:
    problems = check_bare_directory()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace)
    for p in problems:
        print(p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
