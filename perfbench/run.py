"""Certification-throughput benchmark for fourvel.

Run from the root of a fourvel checkout (the directory holding src/):

    python3 perfbench/run.py --workload central-stencil --seed 1 \\
        --seconds 20 --trace 0

A workload is a fixed list of scenarios, certified one after another by
`fourvel.runner.run_scenario` and serialized by `export_report`, exactly what
`fourvel run <scenario> --no-timestamp` does. One pass certifies every
scenario once; passes repeat back to back (a closed loop with one client)
until --seconds have gone by. --seed reaches the program only as
`ScenarioConfig.seed`.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
microbenchmarks and a traced pass's self time and call counts per module.
The last line of output is one JSON object: correct, attempted, failed,
metrics. The lines before it are notes for people.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads: the fixtures work on 4x4
# arrays, so extra threads would only add scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = Path.cwd() / ".perfbench_out"

# The scenarios of each workload are the keys of expected_checks.json, which
# also holds the check names and counts the seed code reports for each.
EXPECTED = json.loads((HERE / "expected_checks.json").read_text())
MODE = {"central-stencil": "central", "gauge-orbit": None,
        "default-sweep": None}   # None: the scenario's own default mode

GUARD_S = 30.0      # wall-clock limit for one certification
SETUP_RUNS = 5      # fresh interpreters timed for setup_s, after one warm-up
# reference_loop() on a quiet 2-core Intel Xeon VM (Python 3.11, numpy 2.4)
REF_S = 0.0075

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import fourvel
configs = [fourvel.config_from_dict(doc) for doc in json.loads(sys.argv[1])]
print(json.dumps({"setup_s": time.perf_counter() - t0, "configs": len(configs)}))
"""


def reference_loop() -> float:
    """Seconds for a fixed loop of Python arithmetic and small complex numpy
    operations, the two kinds of work fourvel does, sharing no code with it.

    Timed on either side of each certification and setup interpreter, it
    measures how fast the host runs this process at that moment. On a shared
    host that speed swings by up to 1.8x for seconds to minutes at a time,
    far more than the bounds allow; the end-to-end times are therefore scaled
    by REF_S / reference_loop() to the speed of a quiet host.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    g = np.array([0.3j, -0.2j, 0.1j, -1.05])
    x = np.array([0.1, 0.2, 0.3])
    for i in range(400):
        v = np.exp(1j * (x @ x - 0.5 * i)) * g
        acc += abs(complex(np.sum(v * v)))
    return time.perf_counter() - t0


class PassTimeout(Exception):
    """A certification ran past GUARD_S."""


def _on_alarm(signum, frame):
    raise PassTimeout(f"certification exceeded {GUARD_S} s")


def config_docs(workload: str, seed: int) -> list:
    docs = []
    for scenario in EXPECTED[workload]:
        doc = {"scenario": scenario, "seed": seed, "no_timestamp": True}
        if MODE[workload]:
            doc["method"] = {"mode": MODE[workload]}
        docs.append(doc)
    return docs


def machine_notes() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": 1,
    }


def measure_setup(docs: list) -> list:
    """(seconds, reference seconds) to import fourvel and validate the configs,
    per fresh interpreter; the first, which compiles bytecode, is dropped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS + 1):
        before = reference_loop()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(docs)],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if result["configs"] != len(docs):
            raise RuntimeError(f"setup built {result['configs']} configs")
        times.append((result["setup_s"], (before + reference_loop()) / 2))
    return times[1:]


def certify(runner, cfg, expected: dict) -> dict:
    """Run and serialize one scenario under the wall-clock guard."""
    outcome = {"scenario": cfg.scenario, "ok": False, "rows": 0, "sha256": None}
    signal.setitimer(signal.ITIMER_REAL, GUARD_S)
    t0 = time.perf_counter()
    try:
        report = runner.run_scenario(cfg)
        text = runner.export_report(report, "json")
    except PassTimeout as exc:
        outcome["error"] = str(exc)
        return outcome
    except Exception as exc:  # a certification that raises has failed
        outcome["error"] = repr(exc)
        return outcome
    finally:
        outcome["wall_s"] = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    checks = {c.name: c.count for c in report.checks}
    outcome["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if not report.passed:
        outcome["error"] = "verdict passed: false"
    elif list(checks.items()) != list(expected.items()):
        outcome["error"] = f"checks differ from the seed code's: {checks}"
    else:
        outcome.update(ok=True, rows=len(report.rows))
    return outcome


def run_pass(runner, cfgs, expected: dict) -> dict:
    """Certify every scenario once; the reference loop runs before the
    first certification and after each, so each has one on either side."""
    refs = [reference_loop()]
    results = []
    for cfg in cfgs:
        results.append(certify(runner, cfg, expected[cfg.scenario]))
        refs.append(reference_loop())
    return {"wall_s": sum(r["wall_s"] for r in results),
            "scaled_s": sum(r["wall_s"] * REF_S * 2 / (before + after)
                            for r, before, after in zip(results, refs, refs[1:])),
            "rows": sum(r["rows"] for r in results), "results": results,
            "refs": refs}


def timed_passes(runner, cfgs, expected, seconds: float) -> list:
    """Closed loop: the next pass starts when the previous one ends."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(runner, cfgs, expected))
    return passes


def tail_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s"


def tally(passes: list) -> tuple:
    results = [r for p in passes for r in p["results"]]
    for r in results:
        if not r["ok"]:
            print(f"# FAILED {r['scenario']}: {r.get('error')}")
    return len(results), sum(not r["ok"] for r in results)


def end_to_end(workload, runner, cfgs, docs, seconds) -> tuple:
    setup = measure_setup(docs)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    passes = timed_passes(runner, cfgs, EXPECTED[workload], seconds)
    cpu_per_wall = ((time.process_time() - cpu0)
                    / (time.perf_counter() - wall0))
    walls = [p["wall_s"] for p in passes]
    scaled = [p["scaled_s"] for p in passes]
    rows = sum(p["rows"] for p in passes)
    refs = [ref for p in passes for ref in p["refs"]]
    attempted, failed = tally(passes)
    metrics = {
        "rows_per_s": (rows / sum(scaled), "rows/s"),
        "pass_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(t * REF_S / ref for t, ref in setup),
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"# {len(passes)} passes, {rows} certified rows, "
          f"cpu/wall {cpu_per_wall:.3f}")
    print(f"# host speed: reference loop median {statistics.median(refs):.5f} s"
          f" (quiet host {REF_S} s) over {len(refs)} samples")
    print(f"# unscaled: rows_per_s {rows / sum(walls):.6g}, "
          f"pass_s {statistics.median(walls):.6g}, "
          f"setup_s {statistics.median(t for t, _ in setup):.6g}")
    print(f"# pass_s samples {len(walls)}, tail {tail_percentile(scaled)}")
    print(f"# setup_s samples {len(setup)}: "
          + ", ".join(f"{t * REF_S / ref:.4f}" for t, ref in setup))
    print(f"# fail_frac {failed}/{attempted} = {failed / attempted:g}")
    for r in passes[0]["results"]:
        print(f"# report sha256 {r['scenario']}: {r['sha256']}")
    return metrics, attempted, failed


def per_layer(workload, runner, cfgs, seconds) -> tuple:
    import layers
    import tracing

    timings, layer_failed = layers.run(OUT)
    metrics = {name: (us, "us") for name, us in timings.items()}
    for name in layer_failed:
        print(f"# FAILED layer verdict: {name}")

    untraced = timed_passes(runner, cfgs, EXPECTED[workload], seconds / 2)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = run_pass(runner, cfgs, EXPECTED[workload])
    tracer.write(OUT / f"spans-{workload}.npz")
    summary = tracer.summary()

    base = statistics.median(p["wall_s"] for p in untraced)
    for module, agg in summary["modules"].items():
        # worldline runs only in default-sweep; elsewhere its self time is a
        # constant 0.0, so it is a note line rather than a metric
        if module != "worldline":
            metrics[f"trace.{module}.self_s"] = (agg["self_s"], "s")
        metrics[f"trace.{module}.calls"] = (agg["calls"], "count")
    metrics["trace.wavefunctions.fixture_points"] = (
        summary["modules"]["wavefunctions"]["points"], "count")
    metrics["trace.dirac.gamma_matrices.calls"] = (
        summary["calls"].get("dirac.gamma_matrices", 0), "count")
    metrics["trace.trace_overhead"] = (traced["wall_s"] - base, "s")
    print(f"# traced pass {traced['wall_s']:.3f} s vs untraced median "
          f"{base:.3f} s over {len(untraced)} passes; "
          f"{summary['spans']} spans kept")
    for module, agg in summary["modules"].items():
        for name in ("self_s", "calls"):
            print(f"# {workload}.{module}.{name} = {agg[name]:g}")
    attempted, failed = tally(untraced + [traced])
    return (metrics, attempted + len(timings),
            failed + len(layer_failed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fourvel" / "__init__.py").is_file():
        print(f"perfbench: no fourvel sources under {SRC}; run from the root "
              "of a fourvel checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must be an unsigned 64-bit integer",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from fourvel import runner

    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    print("# machine " + json.dumps(machine_notes()))
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    docs = config_docs(args.workload, args.seed)
    cfgs = [runner.config_from_dict(doc) for doc in docs]
    if args.trace:
        metrics, attempted, failed = per_layer(args.workload, runner, cfgs,
                                               args.seconds)
    else:
        metrics, attempted, failed = end_to_end(args.workload, runner, cfgs,
                                                docs, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
