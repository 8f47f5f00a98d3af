"""The README's library example and command lines run as documented."""

import json
import re
import shlex
from pathlib import Path

from dcubed.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})


def _promised(comment):
    """The result a command's comment names: a quoted phrase, the text after
    a colon, or a lone token; None when it names none."""
    quoted = re.search(r'"(.+?)"', comment)
    if quoted:
        return quoted.group(1)
    if ":" in comment:
        return comment.rsplit(":", 1)[1].strip()
    return comment if comment and " " not in comment else None


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # where `verify --report` writes
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "dcubed", line
        assert main(argv[1:]) == 0, line
        last = capsys.readouterr().out.strip().splitlines()[-1]
        promised = _promised(comment.strip())
        if promised is not None:
            assert last == promised, line
            checked.append(promised)
    assert checked == ["dx1", "  (-1) * [1] d2x_dx(1,2) [1]", "d2x1"]
    assert json.loads((tmp_path / "report.json").read_text())["summary"]["passed"]


def test_readme_config_examples_run(capsys, tmp_path):
    section = README.read_text().split("### Configuration file", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    for index, block in enumerate(blocks):
        path = tmp_path / f"config{index}.json"
        path.write_text(block)
        json.loads(block)  # each example is one JSON document
        assert main(["diff", "x1", "--config", str(path)]) == 0, block
        assert capsys.readouterr().out == "dx1\n"
