"""The README's CLI tour, run command by command through the CLI."""

import json
import pathlib
import shlex

from agmds import cli
from agmds.catalog import load_entries

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def tour_commands() -> list[str]:
    """The `agmds ...` lines of the README's CLI tour block, with
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("agmds "):
            commands.append(line)
    return commands


def run_tour(directory: pathlib.Path, capsys, monkeypatch) -> list[str]:
    """Run the tour in directory and return each command's stdout; each
    must exit 0.  <prefix> becomes the id of the one stored entry, and
    `> FILE` writes stdout to FILE."""
    monkeypatch.chdir(directory)
    outputs = []
    for command in tour_commands():
        command, _, target = command.partition(" > ")
        if "<prefix>" in command:
            (entry,) = load_entries("codes.jsonl")
            command = command.replace("<prefix>", entry.id)
        rc = cli.main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert rc == 0, f"{command}: exit {rc}: {err}"
        if target:
            (directory / target.strip()).write_text(out, encoding="utf-8")
        outputs.append(out)
    return outputs


def test_readme_cli_tour_runs_and_is_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AGMDS_SEED", raising=False)
    commands = tour_commands()
    assert len(commands) >= 10 and any("<prefix>" in c for c in commands)
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    outputs = run_tour(first, capsys, monkeypatch)
    assert outputs == run_tour(second, capsys, monkeypatch)
    # the --json commands print one JSON document each
    for command, out in zip(commands, outputs):
        if "--json" in command.split():
            json.loads(out)
