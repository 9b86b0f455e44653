"""The README's code runs as written against the package."""

from pathlib import Path
import re
import shlex

import numpy as np

from nirom import cli
from nirom.pipeline import INI_KEYS, _NT_KEYS, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library use"), re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), scope)
    traj = scope["traj"]
    assert traj.states.shape == (scope["basis"].n, 801)
    assert np.all(np.isfinite(traj.states))


def test_command_lines_parse():
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "nirom" for words in lines)
    parser = cli.build_parser()
    for words in lines:
        parser.parse_args(words[1:])  # argparse exits on an unknown command or flag


def test_config_table_lists_the_accepted_keys():
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", _section("Command line"), re.MULTILINE)
    table = {section: set(re.findall(r"`(\w+)`", keys)) for section, keys in rows}
    accepted = {section: set(keys) for section, keys in INI_KEYS.items()}
    accepted["integration"] |= set(_NT_KEYS)
    del table["models"]  # its keys are model names, described in words
    assert table == accepted


def test_config_example_loads(tmp_path):
    text = re.search(r"```ini\n(.*?)```", _section("Command line"), re.DOTALL).group(1)
    (tmp_path / "experiment.ini").write_text(text)
    cfg = load_config(tmp_path / "experiment.ini")
    assert cfg.problem == "convdiff" and set(cfg.models) == {"sindy", "vkoga"}
