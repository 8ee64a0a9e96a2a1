"""CI's workflow, replayed locally: the console step and the tests it names.

Two steps of ``.github/workflows/tier1.yml`` are code that only a hosted
runner would otherwise run.  The console step is run here under
``bash -e``, with ``groverbench`` a shell function for ``python -m
groverbench.cli`` and ``RUNNER_TEMP`` a temporary directory.  Every test
the order-sensitive step names must be collected by pytest.  The steps that
need a network or a runner are not replayed: ``actions/checkout``,
``actions/setup-python``, the ``pip install`` of the package and its test
dependencies, and the Python version matrix (the replay runs on this
interpreter alone).
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def step_script(name: str) -> str:
    """The ``run`` block scalar of the workflow step called ``name``.

    A line parser, not a YAML one: the step's ``run: |`` body is every
    following line indented deeper than the ``run:`` key, dedented.
    """
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"      - name: {name}")
    run_line = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run_line]) - len(lines[run_line].lstrip())
    body = []
    for line in lines[run_line + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    width = min(len(line) - len(line.lstrip()) for line in body if line.strip())
    return "\n".join(line[width:] for line in body).strip() + "\n"


def package_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_the_console_step_runs_under_bash_e(tmp_path):
    python = shlex.quote(sys.executable)
    script = (
        f'python() {{ {python} "$@"; }}\n'
        'groverbench() { python -m groverbench.cli "$@"; }\n'
        + step_script("Run the installed console script")
    )
    result = subprocess.run(
        ["bash", "-e", "-c", script],
        cwd=tmp_path,
        env=dict(package_env(), RUNNER_TEMP=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # The shorter rerun left no tail of the longer plan's file.
    assert '"trial": 3' not in (tmp_path / "plan" / "results.json").read_text()


def test_every_order_sensitive_test_is_collected():
    script = step_script("Order-sensitive tests, each in its own process")
    named = re.findall(r"tests/\S+\.py::\w+", script)
    assert len(named) == 4
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
        cwd=ROOT,
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert [line for line in result.stdout.splitlines() if "::" in line] == named
