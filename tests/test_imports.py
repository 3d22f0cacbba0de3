"""The library loads without scipy: the chi-square functions are closed
forms, and only the S^d (d >= 3) cap draw imports scipy, when it runs."""

import os
import subprocess
import sys
from pathlib import Path

import frechetstats

SRC = Path(frechetstats.__file__).resolve().parent.parent

SCRIPT = """
import sys
import numpy as np
import frechetstats
from frechetstats import cli
from frechetstats.simulate import (GaussianDescriptor, Sampler, SphereCapDescriptor,
                                   mc_coverage, mc_type1)
from frechetstats.spaces import EuclideanSpace, SphereSpace

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

data, sites = sys.argv[1], sys.argv[2]
assert cli.main(["gen-fiber", "--group1-size", "5", "--group0-size", "4", "--sites", "3",
                 "--seed", "2", "--output", data]) == 0
assert cli.main(["fiber", data, "--output", sites]) == 0
space = EuclideanSpace(2)
sampler = Sampler(space, GaussianDescriptor((0.0, 0.0)), 1)
assert mc_coverage(sampler, n=20, reps=10, alpha=0.05).reps == 10
assert mc_type1(space, sampler, n1=10, n2=10, reps=10, alpha=0.05).reps == 10
print(scipy_modules())
sphere = SphereSpace(4)  # S^3
cap = SphereCapDescriptor((0.0, 0.0, 0.0, 1.0), 0.5)
Sampler(sphere, cap, 1).draw(5)
print(bool(scipy_modules()))
"""


def test_the_library_runs_without_loading_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "fiber.csv"), str(tmp_path / "sites.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    # the last two lines: scipy modules after the runs, and whether the S^3
    # cap draw loaded scipy
    assert proc.stdout.splitlines()[-2:] == ["[]", "True"]
