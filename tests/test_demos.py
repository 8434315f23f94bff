"""Smoke test: every quick demo runs to completion against the package.

Each demo runs in its own interpreter from a copy of ``demos/``, so the
charts it writes land in the test's temporary directory and not in the
checkout. Demo 06 is left out: it is an 18 s timing run of the
``anomex.bench`` API, which acceptance criteria 7 and 8 already cover.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_quantiles_and_thresholds", "02_detectors", "03_local_whatif",
         "04_overall_importance", "05_shap_comparison")


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    dest = tmp_path_factory.mktemp("demos")
    for name in DEMOS:
        shutil.copy(ROOT / "demos" / f"{name}.py", dest)
    return dest


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(demo_copy, name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(demo_copy / f"{name}.py")],
        cwd=demo_copy, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
