"""Every roundsched command in README.md's code blocks runs and exits 0.

The commands run in order through cli.main, in a directory that holds a
copy of specs/, so the schedules the synth examples write are the ones
the check and simulate examples read.  A flag that the command line no
longer takes fails here instead of in a reader's shell.
"""

import re
import shlex
import shutil
from pathlib import Path

from roundsched.cli import main
from roundsched.sim import SHAPES

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
EVENT_TABLE = re.compile(r"^\| `kind` \| fields \| meaning \|\n\|[-|]+\|\n((?:\|.*\n)+)", re.M)


def readme_commands() -> list[list[str]]:
    commands = []
    for block in FENCE.findall((ROOT / "README.md").read_text(encoding="utf-8")):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("roundsched "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_the_walkthrough_covers_every_subcommand():
    assert [c[0] for c in readme_commands()] == [
        "synth", "synth", "check", "simulate", "model", "model", "model", "model",
    ]


def test_every_readme_command_exits_0(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "specs", tmp_path / "specs")
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        assert main(argv) == 0, argv


def test_the_event_table_lists_the_declared_shapes():
    # one row per kind, in SHAPES order, naming the fields of every shape
    # of that kind in declared order (the open degraded span adds `open`)
    tables = EVENT_TABLE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(tables) == 1
    rows = {}
    for line in tables[0].splitlines():
        kind, fields, _ = (cell.strip() for cell in line.strip("|").split("|"))
        # a field is named in backquotes, `open: true` by its name
        rows[kind.strip("`")] = re.findall(r"`(\w+)[^`]*`", fields)
    declared = {}
    for shape in SHAPES.values():
        declared.setdefault(shape.kind, {}).update(dict.fromkeys(name for name, _ in shape.fields))
    assert list(rows) == list(declared)
    assert rows == {kind: list(names) for kind, names in declared.items()}
