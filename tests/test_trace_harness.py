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
