import ast
import re
import shlex
from pathlib import Path

from ahbopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """Every ``ahbopt ...`` line of README.md's sh blocks, in order, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "ahbopt":
                commands.append(words[1:])
    return commands


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    # a parser that found nothing would pass vacuously
    assert [argv[0] for argv in commands] == (
        ["solve", "compare"] + ["certify"] * 5 + ["fit-rate"])
    # in order: fit-rate reads the trace that compare writes
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_claims_ledger_cites_tests_that_exist():
    section = README.read_text().split("### Claims ledger\n", 1)[1].split("\n#", 1)[0]
    # the table's rows below its header and rule: one per claim of the abstract
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 5
    defined = {node.name
               for path in Path(__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for row in rows:
        cited = re.findall(r"`(test_\w+)`", row)
        assert cited, row
        assert set(cited) <= defined, set(cited) - defined
