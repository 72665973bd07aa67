"""Summarize one result set, or compare a base set with a change.

    python3 perfbench/compare.py DIR/runs.jsonl
    python3 perfbench/compare.py DIR/base.jsonl DIR/change.jsonl

Inputs are the JSONL files series.py writes. For one set it prints, per
workload and metric, the sample count, median, quartiles and quartile spread
as a share of the median, against the metric's bound in BENCHMARK.json. For
two sets it pairs runs by workload and seed and prints both medians and
quartiles, how many pairs the change won (ties count for neither) and the
ratio of medians with its base. Counts are printed as counts. The verdict
follows the rules of the benchmark: a gain needs nine tenths of the pairs
and a median difference beyond the base's quartile spread; a regression is
a median worse than the base's by more than the bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
INFO = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def _series(records: list) -> dict:
    """{workload: {metric: {seed: value}}} plus failure totals."""
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"_attempted": 0, "_failed": 0})
        w["_attempted"] += rec["result"]["attempted"]
        w["_failed"] += rec["result"]["failed"]
        for name, m in rec["result"]["metrics"].items():
            w.setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _worse(change: float, base: float, better: str) -> float:
    """Share by which change is worse than base (negative: better)."""
    return (change - base) / base if better == "lower" else (base - change) / base


def summarize(records: list) -> None:
    for workload, metrics in _series(records).items():
        att, fail = metrics.pop("_attempted"), metrics.pop("_failed")
        print(f"\n{workload}: fail_frac {fail}/{att} = {fail / max(att, 1):g}")
        for name, by_seed in metrics.items():
            info = INFO.get(name, {})
            vals = list(by_seed.values())
            q1, med, q3 = quartiles(vals)
            line = (f"  {name:48s} n={len(vals):2d} median {med:.6g} "
                    f"{info.get('unit', '')} [q1 {q1:.6g}, q3 {q3:.6g}]")
            if "bound" in info:
                spread = _spread(vals)
                flag = ("ok" if spread <= info["bound"] / 3 else
                        "within bound" if spread <= info["bound"] else "WIDE")
                line += (f" spread {spread:.3f} vs bound {info['bound']} "
                         f"-> {flag}")
            print(line)


def compare(base: list, change: list) -> None:
    base_s, change_s = _series(base), _series(change)
    for workload, bmetrics in base_s.items():
        cmetrics = change_s.get(workload, {})
        print(f"\n{workload}: fail_frac base {bmetrics.pop('_failed')}/"
              f"{bmetrics.pop('_attempted')}, change "
              f"{cmetrics.pop('_failed', 0)}/{cmetrics.pop('_attempted', 0)}")
        for name, bseeds in bmetrics.items():
            cseeds = cmetrics.get(name, {})
            seeds = [s for s in bseeds if s in cseeds]
            if not seeds:
                continue
            info = INFO.get(name, {})
            unit, better = info.get("unit", ""), info.get("better", "lower")
            bq, cq = quartiles(list(bseeds.values())), quartiles(
                list(cseeds.values()))
            if unit == "count":
                print(f"  {name:48s} base {bq[1]:g}, change {cq[1]:g}, "
                      f"difference {cq[1] - bq[1]:+g} {unit}")
                continue
            wins = sum(_worse(cseeds[s], bseeds[s], better) < 0 for s in seeds)
            worse = _worse(cq[1], bq[1], better)
            line = (f"  {name:48s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                    f" change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {unit};"
                    f" change wins {wins}/{len(seeds)}; ratio change/base "
                    f"{cq[1] / bq[1]:.4f} (base {bq[1]:.6g} {unit})")
            if "bound" in info:
                if wins >= 0.9 * len(seeds) and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
                    verdict = "gain"
                elif worse > info["bound"]:
                    verdict = f"REGRESSION beyond bound {info['bound']}"
                elif _spread(list(bseeds.values())) > info["bound"]:
                    verdict = "unresolved: base spread exceeds bound"
                else:
                    verdict = "no change beyond bound"
                line += f" -> {verdict}"
            print(line)


def report(sets: list) -> None:
    if len(sets) == 1:
        summarize(sets[0])
    else:
        compare(sets[0], sets[1])


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    report([load(p) for p in paths])
    return 0


if __name__ == "__main__":
    sys.exit(main())
