"""Time benchmark passes of two source trees in alternating pairs.

    python tools/ab_pairs.py TREE_A TREE_B --workload central-stencil \\
        --pairs 100
    python tools/ab_pairs.py TREE_A TREE_B --pairs 20 \\
        --config '{"scenario": "gauge-orbit", "method": {"mode": "central"}}'

Each tree is the root of a fourvel checkout. Its ``src/`` is compiled with
``compileall`` first, so neither side compiles at import. Then one worker
process per tree puts that tree's ``src/`` and ``perfbench/`` on its path,
builds the workload's configs at seed 1 with that tree's
``perfbench/run.py`` and runs one untimed pass, which fills first-call
caches. ``--config`` times one scenario config instead of a workload, such
as central gauge-orbit, which no workload runs: a ``config_from_dict``
document, at seed 1 unless it names a seed, whose first report sets the
checks that every timed pass must certify. Each pair then runs one pass in
each worker, the tree that goes first alternating from pair to pair. A pass
is ``run.run_pass``: every scenario of the workload (or the one config)
certified and exported once. Its time is the sum of the certifications'
wall times, and its minor page faults are ``ru_minflt`` read before and
after it.

The summary gives the median pass time per tree, the ratio B / A of the
medians, the pairs in which B was faster, the ratio per block of 20 pairs,
and the median minor faults per pass per tree. A pass whose scenarios do
not all certify as the seed code did (for ``--config``, as its first
report did) ends the run with exit code 1.
"""
from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

BLOCK = 20   # pairs per block ratio
SPEC = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())

WORKER = """
import json, resource, signal, sys
sys.path[:0] = ["perfbench", "src"]
import run
from fourvel import runner
signal.signal(signal.SIGALRM, run._on_alarm)
workload, doc = sys.argv[1], json.loads(sys.argv[2])
if doc is None:
    cfgs = [runner.config_from_dict(d) for d in run.config_docs(workload, 1)]
    expected = run.EXPECTED[workload]
else:
    cfgs = [runner.config_from_dict({"seed": 1, **doc, "no_timestamp": True})]
    checks = runner.run_scenario(cfgs[0]).checks
    expected = {cfgs[0].scenario: {c.name: c.count for c in checks}}
run.run_pass(runner, cfgs, expected)
print("ready", flush=True)
for _ in sys.stdin:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = run.run_pass(runner, cfgs, expected)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    errors = [r.get("error") for r in result["results"] if not r["ok"]]
    print(json.dumps({"s": result["wall_s"], "faults": faults,
                      "errors": errors}), flush=True)
"""


class Worker:
    """One interpreter running passes of one tree's workload, or of one
    config when config is not None, on request."""

    def __init__(self, tree: Path, workload, config):
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(workload), json.dumps(config)],
            cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"worker for {self.tree} did not start")

    def run_pass(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker for {self.tree} exited")
        result = json.loads(line)
        if result["errors"]:
            raise RuntimeError(f"{self.tree}: {result['errors']}")
        return result

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def summary(passes) -> list:
    """Lines of the summary of passes[side][pair] = {"s", "faults"}, side 0
    being tree A."""
    a, b = ([p["s"] for p in side] for side in passes)
    lines = [f"{name}: median pass {statistics.median(s) * 1e3:.3f} ms, "
             f"median faults per pass "
             f"{statistics.median(p['faults'] for p in side):g}"
             for name, s, side in zip("AB", (a, b), passes)]
    won = sum(sb < sa for sa, sb in zip(a, b))
    lines.append(f"ratio B/A {statistics.median(b) / statistics.median(a):.4f}"
                 f", B faster in {won} of {len(a)} pairs")
    blocks = [statistics.median(b[i:i + BLOCK])
              / statistics.median(a[i:i + BLOCK])
              for i in range(0, len(a), BLOCK)]
    lines.append(f"ratio B/A per block of {BLOCK} pairs: "
                 + " ".join(f"{r:.4f}" for r in blocks))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, metavar="TREE_A")
    parser.add_argument("tree_b", type=Path, metavar="TREE_B")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    target.add_argument("--config", type=json.loads, metavar="JSON",
                        help="one config_from_dict document to time")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.config is not None and not isinstance(args.config, dict):
        parser.error("--config must be a JSON object")
    trees = [t.resolve() for t in (args.tree_a, args.tree_b)]
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
        if not compileall.compile_dir(tree / "src", quiet=1):
            parser.error(f"{tree}/src does not compile")

    workers = [Worker(tree, args.workload, args.config) for tree in trees]
    passes = [[], []]
    try:
        for w in workers:
            w.ready()
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                passes[side].append(workers[side].run_pass())
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers:
            w.close()
    what = args.workload or f"config {json.dumps(args.config)}"
    print(f"# {what}, {args.pairs} pairs; A = {trees[0]}, "
          f"B = {trees[1]}")
    print("\n".join(summary(passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
