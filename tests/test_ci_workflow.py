"""CI runs each check once: its only pytest commands are the tier-1
suite, the slow-marked tests and the bench harness self-test, so no CI
step re-runs a tier-1 test file; every ``python -m repro`` command in
it names options the CLI still has; and every script or spec it runs is
in the checkout."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: The arguments of each allowed ``python -m pytest`` command.
ALLOWED = [("-x", "-q"), ("-m", "slow", "-q"), ("bench", "-q")]

#: Words that end a command on a shell line.
SHELL_OPS = ("&&", "||", ";", "|")

#: A workflow expression such as ``${{ matrix.mshr-model }}``, whose
#: value only the runner knows.
EXPRESSION = re.compile(r"\$\{\{[^}]*\}\}")


def pytest_commands(text: str) -> list[tuple[str, ...]]:
    """The arguments of every pytest invocation in a workflow's text
    (``pip install pytest`` names a package, not a run)."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        words = line.split()
        for i, word in enumerate(words):
            if word == "pytest" and (i == 0 or words[i - 1] in ("-m", "run:")
                                     or "=" in words[i - 1]):
                commands.append(tuple(takewhile(
                    lambda w: w not in SHELL_OPS, words[i + 1:]
                )))
    return commands


def repro_commands(text: str) -> list[list[str]]:
    """The arguments of every ``python -m repro`` invocation in a
    workflow's text, each ``${{ ... }}`` expression as one word."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        __, sep, tail = line.partition("python -m repro ")
        if not sep:
            continue
        args = []
        for word in shlex.split(EXPRESSION.sub("EXPR", tail)):
            if word in SHELL_OPS or word[0] in "<>" or word[:2] == "2>":
                break
            args.append(word.rstrip(";"))
            if word.endswith(";"):
                break
        commands.append(args)
    return commands


def python_scripts(text: str) -> list[str]:
    """The script of every ``python FILE`` invocation in a workflow's
    text; ``python -m``, ``python -`` and shell-variable scripts name no
    file of the checkout."""
    scripts = []
    for line in text.replace("\\\n", " ").splitlines():
        words = line.split()
        for word, script in zip(words, words[1:]):
            if word == "python" and script[0] != "-" and "$" not in script:
                scripts.append(script)
    return scripts


def test_ci_runs_each_pytest_suite_once():
    assert sorted(pytest_commands(CI.read_text())) == sorted(ALLOWED)


def test_ci_repro_commands_parse():
    commands = repro_commands(CI.read_text())
    assert {args[0] for args in commands} >= {"run-spec", "audit"}
    parser = build_parser()
    for args in commands:
        try:
            parser.parse_args(args)
        except SystemExit:
            pytest.fail(f"ci.yml runs `python -m repro {' '.join(args)}`, "
                        "which the CLI rejects")


def test_repro_commands_reads_continuations_and_redirects():
    text = ("          PYTHONPATH=src python -m repro audit --machine small \\\n"
            "            --set mshr_model=${{ matrix.mshr-model }}\n"
            "          python -m repro run-spec a.toml >/dev/null 2>c.log\n"
            "          if python -m repro run-spec b.toml --small; then\n")
    assert repro_commands(text) == [
        ["audit", "--machine", "small", "--set", "mshr_model=EXPR"],
        ["run-spec", "a.toml"],
        ["run-spec", "b.toml", "--small"],
    ]


def test_ci_scripts_and_specs_exist():
    text = CI.read_text()
    parser = build_parser()
    specs = [args.spec for args in map(parser.parse_args, repro_commands(text))
             if args.command == "run-spec"]
    paths = python_scripts(text) + specs
    assert "benchmarks/telemetry_overhead.py" in paths
    assert "examples/specs/figure7.toml" in paths
    missing = [path for path in paths if not (ROOT / path).is_file()]
    assert not missing, f"ci.yml runs files the checkout lacks: {missing}"
