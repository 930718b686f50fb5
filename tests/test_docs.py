"""The README's examples run against the current package."""

import re
import shlex
from pathlib import Path

from rlncfail import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(after: str, lang: str = "") -> str:
    """The first fenced block of the given language after the line `after`."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^```{lang}\n(.*?)^```", text[text.index(after):], re.M | re.S).group(1)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `gen ... --out net.txt` writes here
    commands = [shlex.split(line, comments=True) for line in readme_block("## Command line", "sh").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["rlncfail", "gen"], ["rlncfail", "bounds"], ["rlncfail", "exact"],
        ["rlncfail", "simulate"], ["rlncfail", "sweep"],
    ]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "net.txt").exists()
    assert capsys.readouterr().err.count("\n") == 1  # `gen`'s summary line alone


def test_readme_bounds_output(capsys):
    expect = readme_block("`bounds` output for the butterfly, sink `t1`, `q = 2`:")
    assert cli.main(["bounds", "--gen", "butterfly", "--sink", "t1", "--field", "2"]) == 0
    assert capsys.readouterr().out == expect
