"""The README's code runs as written against the package."""

from pathlib import Path
import re

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), scope)
    traj = scope["traj"]
    assert traj.states.shape == (scope["basis"].n, 801)
    assert np.all(np.isfinite(traj.states))
