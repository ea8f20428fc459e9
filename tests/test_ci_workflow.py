"""CI runs each check once: its only pytest commands are the tier-1
suite, the slow-marked tests and the bench harness self-test, so no CI
step re-runs a tier-1 test file."""

from itertools import takewhile
from pathlib import Path

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

#: The arguments of each allowed ``python -m pytest`` command.
ALLOWED = [("-x", "-q"), ("-m", "slow", "-q"), ("bench", "-q")]


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
                    lambda w: w not in ("&&", "||", ";", "|"), words[i + 1:]
                )))
    return commands


def test_ci_runs_each_pytest_suite_once():
    assert sorted(pytest_commands(CI.read_text())) == sorted(ALLOWED)

