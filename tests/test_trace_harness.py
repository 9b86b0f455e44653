"""The traced benchmark harness still finds every package attribute it wraps.

`bench/spans.py::install` replaces package functions and methods by name, so
renaming one of them breaks `bench/run.py --trace 1` without failing any
package test. This runs the install in a fresh interpreter, as the traced
child does, so the wrapping never leaks into the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_wraps_every_named_attribute():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]\n"
        "import spans\n"
        "spans.install(spans.Tracer())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_convdiff_block_is_one_traced_velocity_call():
    """A 100-column block call counts once in `problems.velocity_calls`,
    so the count keeps its meaning whatever the velocity does inside."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]\n"
        "import numpy as np\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from nirom.problems import ConvDiff2D\n"
        "system = ConvDiff2D()\n"
        "X = np.random.default_rng(0).normal(size=(system.dim, 100))\n"
        "system.velocity(X, 0.0, [9.5, 9.5])\n"
        "names = [tracer.names[i] for i in tracer.name_id]\n"
        "print(names.count('problem.velocity'), len(names))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1"]
