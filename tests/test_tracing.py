"""The benchmark's per-layer tracer must still install on the package.

``bench/tracing.py`` wraps package functions and methods by name, so a
removed or inherited member breaks ``bench/run.py --trace 1``.  This runs the
tracer, unchanged, in a fresh interpreter over one request of each verb.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from scepoly import poly
from scepoly.genfunc import FormalSeries
from scepoly.rational import GaussianRational
from scepoly.report import CheckReport

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from scepoly import cli

tracer = tracing.Tracer()
tracing.install(tracer)
requests = [
    ["verify", "--suite", "all", "--max-n", "3"],
    ["poly", "em", "--n", "5", "--m", "-5/3", "--format", "json"],
    ["integrate", "--kind", "sin", "--n", "4", "--a", "0", "--b", "2", "--check"],
    ["genfunc", "--family", "s", "--order", "6", "--format", "latex"],
]
codes = []
for rid, argv in enumerate(requests, 1):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(tracer.run_request(rid, cli.main, argv))
print(json.dumps({"codes": codes, "metrics": tracer.layer_metrics()}))
"""


def test_tracer_installs_and_times_every_layer():
    # src first, then whatever path the caller inherited (it may hold the dependencies).
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    metrics = result["metrics"]
    for key in ("families.rodrigues", "poly.exppoly", "integrals.check"):
        assert metrics[f"{key}.time_s"] > 0, key


def test_every_traced_member_is_in_its_own_class_dict():
    """The tracer reads each member from ``cls.__dict__``: name any that moved out or went away."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    members = [(GaussianRational, name) for name in tracing.RATIONAL_METHODS]
    members += [(getattr(poly, cls), name) for cls, name, _ in tracing.POLY_METHODS]
    members += [(FormalSeries, name) for name, _ in tracing.SERIES_METHODS]
    members += [(CheckReport, name) for name in tracing.REPORT_MEMBERS]
    missing = [f"{cls.__name__}.{name}" for cls, name in members if name not in cls.__dict__]
    assert not missing, f"bench/tracing.py wraps members missing from their class's own __dict__: {missing}"
