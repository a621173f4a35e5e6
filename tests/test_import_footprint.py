"""scipy is imported on first use, not by importing the package.

A one-trial run never needs scipy, so ``import repro.api`` / ``repro.cli``
must not load it; the confidence interval and the SLSQP reference import it
when they run, and compute exactly what a direct scipy call does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro
from repro.analysis.stats import confidence_interval


def test_package_import_loads_no_scipy():
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, repro, repro.api, repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "values, confidence",
    [
        ([1.0, 2.0, 3.0, 4.0], 0.95),
        ([0.8045, 0.7993, 0.8102], 0.95),
        ([12.5, -3.25, 7.0, 7.0, 1e-3], 0.9),
        (list(np.random.default_rng(7).normal(5.0, 2.0, size=11)), 0.99),
    ],
)
def test_confidence_interval_equals_direct_scipy(values, confidence):
    array = np.asarray(values, dtype=float)
    mean = float(np.mean(array))
    sem = float(scipy_stats.sem(array))
    half = float(sem * scipy_stats.t.ppf((1.0 + confidence) / 2.0, array.size - 1))
    assert confidence_interval(values, confidence) == (mean - half, mean + half)
