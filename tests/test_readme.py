"""The README's examples, run as written.

Each line of a Python block runs in one shared namespace; a line that is an
expression with a comment must print as the comment says (the comment up to
its first ", ").  Each `$ epsalg ...` example of the command line block runs
as a child process and must print the lines shown; a `...` line stands for
any lines between the ones shown before and after it.
"""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import epsalg

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# (language, body) of every fenced block.
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)

_SHELL_EXAMPLES = [
    chunk.splitlines()
    for lang, block in _BLOCKS
    if block.startswith("$ epsalg")
    for chunk in block.strip().split("\n\n")
]


def test_python_examples_give_the_commented_results():
    namespace = {}
    checked = 0
    for block in (block for lang, block in _BLOCKS if lang == "python"):
        for line in block.splitlines():
            code, _, comment = (part.strip() for part in line.partition("#"))
            if not code:
                continue
            try:
                expr = compile(code, "README.md", "eval")
            except SyntaxError:
                exec(code, namespace)
                continue
            value = eval(expr, namespace)
            if comment:
                assert str(value) == comment.split(", ")[0], line
                checked += 1
    assert checked == 6


@pytest.mark.parametrize("example", _SHELL_EXAMPLES, ids=[ex[0][2:] for ex in _SHELL_EXAMPLES])
def test_shell_examples_print_what_they_show(example):
    command, *shown = example
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsalg.__file__)))
    proc = subprocess.run([sys.executable, "-m", *shlex.split(command[2:])],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert lines[:len(head)] == head
        assert lines[len(lines) - len(tail):] == tail
    else:
        assert lines == shown


def test_every_shell_example_is_collected():
    assert [ex[0].split()[2] for ex in _SHELL_EXAMPLES] == [
        "normalize", "normalize", "bracket", "mu", "mu", "dim", "confluence"]
