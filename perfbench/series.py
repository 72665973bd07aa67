"""Run the benchmark over several seeds, on one source tree or alternating
between two, and keep every result.

    python3 perfbench/series.py --out .perfbench_out/base --seeds 10
    python3 perfbench/series.py --tree ../parent --tree . --out DIR

Each tree is the root of a fourvel checkout; every run uses this copy of
run.py, so both sides are measured with identical benchmark code. With two
trees the side that runs first alternates from one seed to the next. Results
go to DIR/<label>.jsonl, one line per run with the workload, seed, machine
notes and the run's result object; the summary is printed at the end.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "tree": str(tree), "machine": machine,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", type=Path,
                        help="checkout root to measure (default: .); "
                             "give twice to alternate base and change")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = [t.resolve() for t in (args.tree or [Path(".")])]
    if len(trees) > 2:
        parser.error("give at most two trees")
    labels = ["base", "change"] if len(trees) == 2 else ["runs"]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    files = [args.out / f"{label}.jsonl" for label in labels]
    for f in files:
        f.write_text("")

    for workload in workloads:
        for i in range(args.seeds):
            seed = args.first_seed + i
            order = list(range(len(trees)))
            if i % 2:
                order.reverse()
            for side in order:
                rec = run_once(trees[side], workload, seed, args.seconds,
                               args.trace)
                with files[side].open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"# {labels[side]} {workload} seed {seed}: "
                      f"correct={rec['result']['correct']}", flush=True)
    compare.report([compare.load(f) for f in files])
    return 0


if __name__ == "__main__":
    sys.exit(main())
