"""The exit-code contract on input from outside: every command line exits 0
or 2, never 1 (a counterexample) or 3 (an internal error), and a size pplab
refuses exits 2 at once instead of running until it is killed.
"""

import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pplab
from pplab import cli

HUGE = "99999999999999999999"

# Each ran until it was killed, or exited 3 with a RecursionError, before
# the regimes bounded their sizes.
SIZE_ARGVS = [
    ["dims", "--N", "2", "--n", HUGE, "--k", "1"],
    ["dims", "--N", "30", "--n", "30", "--k", "1"],
    ["verify-theorem", "--N", "1", "--n", HUGE, "--k", "1", "--trials", "1"],
    ["dims", "--N", HUGE, "--n", "3", "--k", "1"],
    ["splitting-type", "--N", HUGE, "--n", "3", "--k", "1"],
    ["sweep", "--n", HUGE],
    ["verify-theorem", "--N", "1", "--n", "2", "--k", "1", "--trials", HUGE],
]


def pplab_process(argv):
    src = str(Path(pplab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pplab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=10,
    )


@pytest.mark.parametrize("argv", SIZE_ARGVS, ids=" ".join)
def test_a_refused_size_exits_2_within_10_seconds(argv):
    proc = pplab_process(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: require") and proc.stderr.count("\n") == 1


def test_a_huge_degree_is_not_a_size_of_the_corollary():
    # The corollary's cocycle has rank binom(N+k, N) whatever n is.
    proc = pplab_process(["verify-corollary", "--N", "1", "--n", HUGE, "--k", "1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("overall: PASS\n")


COMMANDS = [name for name, *_ in cli.COMMANDS]
DECLARED = sorted({flag for *_, options in cli.COMMANDS for flag in options})
UNDECLARED = ["--foo", "-N", "--NN", "--help"]
VALUES = ["0", "-1", "-7", HUGE, "1.5", "1e3", "abc", "", "json", "text", "1", "2", "3"]
SMALL = ["1", "2", "3"]


@st.composite
def argvs(draw):
    """A command (one of the six, junk or none), often with a small triple,
    then options declared and undeclared, each with no value, one, or
    several, and any option repeated."""
    command = draw(st.sampled_from(COMMANDS + ["junk", None]))
    argv = [] if command is None else [command]
    if draw(st.booleans()):
        for flag in ("--N", "--n", "--k"):
            argv += [flag, draw(st.sampled_from(SMALL))]
    for _ in range(draw(st.integers(0, 4))):
        argv.append(draw(st.sampled_from(DECLARED + UNDECLARED)))
        argv += draw(st.lists(st.sampled_from(VALUES), max_size=3))
    return argv


@settings(
    max_examples=200,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argvs())
def test_every_command_line_exits_0_or_2(capsys, monkeypatch, tmp_path, argv):
    # --out writes its report into the test's own directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PPLAB_SEED", raising=False)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert any(line.startswith(("usage:", "error:")) for line in err.splitlines()), err
