"""Row skeleton of every default report against a recorded golden file.

For each default scenario the golden file holds the report's rows reduced to
(case, check, index, x1, x2, x3, t), in report order, and each check's name,
count and verdict. Magnitudes are left out: a change in how the kernels
evaluate may move them at rounding level, but it must not reorder rows, move
a sample point or change a verdict.

Regenerate only for a deliberate change of clouds or checks:

    PYTHONPATH=src python tests/test_default_skeleton.py
"""
import json
from pathlib import Path

import pytest

from fourvel import (default_config, export_report, list_scenarios,
                     run_scenario)

GOLDEN = Path(__file__).parent / "data" / "default_skeleton.json"


def skeleton(report) -> dict:
    """Rows as [case id, check id, index, point id] over tables of cases,
    check names and (x1, x2, x3, t) points, each in order of first use."""
    tables = {"cases": {}, "names": {}, "points": {}}

    def ident(table, key):
        return tables[table].setdefault(key, len(tables[table]))

    rows = [[ident("cases", r["case"]), ident("names", r["check"]),
             r["index"], ident("points", (r["x1"], r["x2"], r["x3"], r["t"]))]
            for r in json.loads(export_report(report))["rows"]]
    return {
        "checks": [[c.name, c.count, c.passed] for c in report.checks],
        "cases": list(tables["cases"]),
        "names": list(tables["names"]),
        "points": [list(p) for p in tables["points"]],
        "rows": rows,
    }


def _default_skeleton(name: str) -> dict:
    return skeleton(run_scenario(default_config(name)))


@pytest.mark.parametrize("name", list_scenarios())
def test_default_rows_match_golden_skeleton(name):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == list_scenarios()
    current = _default_skeleton(name)
    assert current == golden[name]
    # 1 == 1.0 in Python, but not in the report's JSON
    assert (json.dumps(current, sort_keys=True)
            == json.dumps(golden[name], sort_keys=True))


if __name__ == "__main__":
    doc = {name: _default_skeleton(name) for name in list_scenarios()}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                      + "\n")
