"""The offline steps of the CI workflow, run as tier-1 tests.

Every step of .github/workflows/tests.yml is either run here or named
in SKIPPED, so a step added to the workflow fails this module until it
is run or listed.  The steps that run are the memory-smoke job's peak
RSS script and install-path's steps on the installed entry point; each
job's steps run in order in one temporary directory and must exit 0.
No package is installed: `qmarkov` and `python` resolve to shims that
run this interpreter, with PYTHONPATH set to the absolute src directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="PyYAML is needed to read the workflow file")

ROOT = Path(__file__).resolve().parents[1]
JOBS = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())["jobs"]

# steps not run here, as (job, name or action): they check out or set up
# Python, install packages, or run pytest, which needs no workflow to run
SKIPPED = [
    ("tier-1", "actions/checkout@v4"),
    ("tier-1", "actions/setup-python@v5"),
    ("tier-1", "Install dependencies"),
    ("tier-1", "Tier-1 tests"),
    ("tier-1", "Byte-identity digests under the SSE3 BLAS kernel"),
    ("bench-harness", "actions/checkout@v4"),
    ("bench-harness", "actions/setup-python@v5"),
    ("bench-harness", "Install dependencies"),
    ("bench-harness", "Benchmark harness tests"),
    ("install-path", "actions/checkout@v4"),
    ("install-path", "actions/setup-python@v5"),
    ("install-path", "Install build tools and dependencies"),
    ("install-path", "Editable install as documented"),
    ("install-path", "Tests against the installed package"),
    ("memory-smoke", "actions/checkout@v4"),
    ("memory-smoke", "actions/setup-python@v5"),
    ("memory-smoke", "Install dependencies"),
]


def _steps():
    """(job, name or action, step) of every step, in workflow order."""
    return [(job, step.get("name", step.get("uses")), step) for job, spec in JOBS.items() for step in spec["steps"]]


def _run(job):
    """The steps of job that run here, in order."""
    return [step for j, name, step in _steps() if j == job and (j, name) not in SKIPPED]


def test_each_step_is_run_or_named_as_skipped():
    assert [(job, name) for job, name, _ in _steps() if (job, name) in SKIPPED] == SKIPPED
    assert {job: [step["name"] for step in _run(job)] for job in JOBS if _run(job)} == {
        "install-path": [
            "Installed entry point",
            "Installed entry point turns a malformed file into exit 2",
            "Installed entry point writes --out in UTF-8 under the C locale",
            "Installed entry point reports a near-stochastic file's iterate as exit 3",
            "Installed entry point sweeps the whole oracle range",
            "Installed entry point reads back the matrices it writes",
            "Installed entry point starts at a negative half-integer label",
        ],
        "memory-smoke": [
            "Peak RSS of 10^7-step simulates of spin 1 and spin 25 with --out, of parsing their files "
            "and a 10^6-line file of 24-byte labels, "
            "of 10^7-step walks of a spin-1/2 chain by the two-state scan, of a 9-state chain, "
            "of a dense 110-state chain walked by bisect "
            "and of a spin-1 walk that never couples, "
            "of 10^7-step register walks at 8, 24 and 64 qubits and of 10^7 coin tosses, "
            "and of a 10^7-step walk of a uniform 256-state chain"
        ],
    }


def _shim(directory: Path, name: str, argv: str) -> None:
    path = directory / name
    path.write_text(f'#!/bin/sh\nexec {argv} "$@"\n')
    path.chmod(0o755)


@pytest.mark.parametrize("job", ["install-path", "memory-smoke"])
def test_workflow_steps_exit_0(job, tmp_path):
    shims, work = tmp_path / "bin", tmp_path / "work"
    shims.mkdir()
    work.mkdir()
    _shim(shims, "python", f'"{sys.executable}"')
    _shim(shims, "qmarkov", f'"{sys.executable}" -m qmarkov.cli')
    for step in _run(job):
        env = {**os.environ, **step.get("env", {})}
        env["PATH"] = f"{shims}{os.pathsep}{env.get('PATH', '')}"
        env["PYTHONPATH"] = str(ROOT / "src")
        script = work / "step-script"
        script.write_text(step["run"])
        # the shells GitHub runs a step's script with
        shells = {"python": [sys.executable], "bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail"]}
        argv = [*shells[step.get("shell", "bash")], script]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (step["name"], done.stdout, done.stderr)
