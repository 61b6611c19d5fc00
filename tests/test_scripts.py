"""Smoke runs of the experiment scripts that the README documents, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bidegree

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    # the child imports the same package as this test, installed or not
    package_root = str(Path(bidegree.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, header",
    [
        (
            "coverage_table.py",
            ["--families", "binary", "--n", "20", "--replications", "5"],
            "family,n,L_rule,i,j,coverage_pct,mean_ci_length,nonexist_pct,reps",
        ),
        (
            "start_sweep.py",
            ["--families", "binary", "geometric", "--n", "20", "--graphs", "2", "--repeats", "1",
             "--classes", "4"],
            "family,n,L_rule,graphs,closed_form_iterations,class_iterations,swept_iterations,"
            "closed_form_ms,class_ms,swept_ms,verdicts_differ",
        ),
    ],
)
def test_script_prints_csv(name, args, header):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header


def test_qq_study_writes_csv(tmp_path):
    result = run_script(
        "qq_study.py", "--family", "exponential", "--n", "20", "--rules", "zero",
        "--replications", "20", "--out-dir", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    (out,) = tmp_path.iterdir()
    assert out.name == "exponential_n20_zero_alpha_diff_1_2.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "theoretical,empirical"
    assert len(lines) == 21
