"""The test oracle and the CPU cost model stay off a serving node.

``repro.testing`` holds reference implementations (the row-at-a-time
query oracle, the crash kit) that tests compare the engine against.  A
server process must not import them: an oracle on the serving path is
an oracle compared with itself.  Likewise the engine's layers only count
work on the simulated clock; pricing it is the clock's business.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from repro.simdisk.cost import CpuCostModel

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_server_does_not_import_the_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.net.server\n"
            "print(*sorted(m for m in sys.modules "
            "if m.startswith('repro.testing') or m == 'repro.query.naive'))",
        ],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == []


#: What prices CPU work: the model, its unit-cost fields and the direct
#: charge.  The serving path only counts work on the clock.
COST_NAMES = {"charge_cpu", "CpuCostModel", "cost_model", "cost"} | {
    field.name for field in dataclasses.fields(CpuCostModel)
}
#: Where the cost model may be named: the substrate that prices work,
#: the competitor models that charge their own operations, the package
#: root's re-export, and the planner's ``explain`` estimate.
COST_DIRS = ("simdisk/", "baselines/")
COST_FILES = {"__init__.py"}
EXPLAIN_ESTIMATE = ("query/planner.py", "_estimate_costs")


def _names(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id, child.lineno
        elif isinstance(child, ast.Attribute):
            yield child.attr, child.lineno
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1], child.lineno
        elif isinstance(child, ast.arg):
            yield child.arg, child.lineno


def test_the_serving_path_counts_work_and_never_prices_it():
    package = SRC / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative.startswith(COST_DIRS) or relative in COST_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (relative, getattr(node, "name", None)) == EXPLAIN_ESTIMATE:
                continue
            offenders += [
                f"{relative}:{line}: {name}"
                for name, line in _names(node) if name in COST_NAMES
            ]
    assert offenders == []
