import argparse
import hashlib
import json
import re

import pytest

from pplab import cli, jetmap, parabolic
from pplab.jetmap import JetRepReport
from pplab.laurent import LaurentMatrix
from pplab.splitting import TransitionData, jet_transition_matrix, transition_to_json_dict

from test_splitting import window_splitting


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_theorem_passes(capsys):
    code, out, _ = run(
        capsys, "verify-theorem", "--N", "1", "--n", "3", "--k", "1",
        "--trials", "100", "--seed", "7",
    )
    assert code == 0
    assert "overall: PASS" in out
    assert "equivariance 100/100" in out


def test_verify_corollary_passes(capsys):
    code, out, _ = run(capsys, "verify-corollary", "--N", "2", "--n", "2", "--k", "1")
    assert code == 0
    assert "{1, 1, 1}" in out


def test_bad_regime_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-theorem", "--N", "1", "--n", "2", "--k", "2")
    assert code == 2
    assert "1 <= k < n" in err


@pytest.mark.parametrize("argv", [
    ["verify-theorem", "--N", "0", "--n", "3", "--k", "1"],
    ["verify-corollary", "--N", "0", "--n", "3", "--k", "1"],
    ["verify-corollary", "--N", "1", "--n", "3", "--k", "3"],
    ["dims", "--N", "0", "--n", "3", "--k", "1"],
    ["dims", "--N", "1", "--n", "3", "--k", "0"],
    ["splitting-type", "--N", "1", "--n", "0", "--k", "1"],
    ["splitting-type", "--N", "1", "--n", "2", "--k", "-1"],
    ["export-transition", "--N", "0", "--n", "2", "--k", "1"],
    ["sweep", "--N", "0"],
    ["sweep", "--n", "2", "--k", "5"],
    ["sweep", "--n", "-3"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_corollary_refuses_a_bad_triple_before_building_the_cocycle(capsys, monkeypatch):
    # A huge k outside the corollary's regime must fail at once, not after
    # building a cocycle of rank binom(N+k, N).
    calls = []

    def recorded(*args):
        calls.append(args)
        return jet_transition_matrix(*args)

    monkeypatch.setattr(cli, "jet_transition_matrix", recorded)
    code, out, err = run(capsys, "verify-corollary", "--N", "1", "--n", "3", "--k", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "0 <= k < n" in err
    assert calls == []


# The options each command declares: exactly the ones its handler reads.
COMMAND_OPTIONS = {
    "verify-theorem": "--N --n --k --trials --seed --height --output --out --verbose",
    "verify-corollary": "--N --n --k --output --out --verbose",
    "dims": "--N --n --k --output --out",
    "splitting-type": "--N --n --k --output --out",
    "export-transition": "--N --n --k --out",
    "sweep": "--N --n --k --trials --seed --height --output --out",
}
OPTION_VALUES = {"--trials": ["1"], "--seed": ["1"], "--height": ["1"], "--output": ["json"], "--verbose": []}
NOT_READ = [
    (command, flag)
    for command, flags in COMMAND_OPTIONS.items()
    for flag in COMMAND_OPTIONS["verify-theorem"].split()
    if flag not in flags.split()
]


def test_each_command_declares_only_the_options_it_reads():
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    declared = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert declared == {name: set(flags.split()) for name, flags in COMMAND_OPTIONS.items()}
    assert sum(map(len, declared.values())) == 37
    assert len(NOT_READ) == 17


@pytest.mark.parametrize("command,flag", NOT_READ, ids=[" ".join(pair) for pair in NOT_READ])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, command, flag):
    triple = [] if command == "sweep" else ["--N", "1", "--n", "3", "--k", "1"]
    option = [flag, *OPTION_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *triple, *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: pplab {command} ")
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_an_unread_option_shows_the_usage_of_its_command(capsys):
    # The message names the options dims takes, not the list of commands.
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--N", "1", "--n", "2", "--k", "1", "--seed", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, message = err.split("\npplab dims: error: ")
    assert usage.startswith("usage: pplab dims ")
    assert "--output" in usage and "verify-theorem" not in usage
    assert message == "unrecognized arguments: --seed 1\n"


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["verify-theorem", "--N", "1", "--n", "3", "--k", "1"],
    ["sweep", "--N", "1", "--n", "2"],
])
@pytest.mark.parametrize("flag,value", [
    ("--trials", "0"), ("--trials", "-3"), ("--height", "0"), ("--height", "x"),
])
def test_nonpositive_trials_or_height_is_usage_error(capsys, command, flag, value):
    # Exit 1 is reserved for counterexamples; a bad trial input must not
    # reach the checks, and zero trials must not pass vacuously.
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_empty_sweep_range_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--n", "1", "--trials", "1")
    assert code == 2
    assert "no (N, n, k)" in err


def test_counterexample_exit_code(capsys, monkeypatch):
    # No true counterexample exists, so fake a failing report to pin the
    # exit-code contract.
    failing = JetRepReport(
        N=1, n=3, k=1,
        kernel_matches=True, taylor_kernel_matches=True, rank_correct=True,
        equivariance_trials=10, equivariance_failures=1,
        quotient_iso_equivariant=True,
    )
    monkeypatch.setattr(cli, "verify_jet_representation", lambda *a, **kw: failing)
    code, out, _ = run(capsys, "verify-theorem", "--N", "1", "--n", "3", "--k", "1")
    assert code == 1
    assert "overall: FAIL" in out


def non_uniform_cocycle(N, n, k):
    # Row 0 of the jet cocycle times t: the determinant stays a unit, the
    # degrees sum to one more than the corollary's, so no uniform splitting.
    data = jet_transition_matrix(N, n, k)
    entries = list(data.matrix.entries)
    entries[: data.rank] = [p.shift(1) for p in entries[: data.rank]]
    return TransitionData(data.rank, LaurentMatrix(data.rank, data.rank, tuple(entries)))


@pytest.mark.parametrize("command", [
    ["verify-corollary", "--N", "2", "--n", "3", "--k", "1"],
    ["sweep", "--N", "2", "--n", "3", "--k", "1", "--trials", "2"],
])
def test_non_uniform_cocycle_is_a_counterexample(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "jet_transition_matrix", non_uniform_cocycle)
    code, out, err = run(capsys, *command, "--output", "json")
    assert code == 1, err
    report = json.loads(out)
    split = report["result"] if "result" in report else report["results"][0]["splitting"]
    assert split["pass"] is False
    assert sum(split["degrees"]) == split["multiplicity"] * split["expected_degree"] + 1
    # Its true degrees, as the window-search oracle reads them: its first
    # block is not uniform, so column reduction reads it.
    assert split["degrees"] == list(window_splitting(non_uniform_cocycle(2, 3, 1))) == [3, 2, 2]
    assert report["overall_pass"] is False


def twisted_jet_cocycle(shift):
    # The jet cocycle times t^shift: still a unit cocycle, split uniformly,
    # but of degree n-k+shift, which the certificate reads off the
    # determinant and proves by its two section counts.
    def build(N, n, k):
        data = jet_transition_matrix(N, n, k)
        entries = tuple(p.shift(shift) for p in data.matrix.entries)
        return TransitionData(data.rank, LaurentMatrix(data.rank, data.rank, entries))

    return build


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("command", [
    ["verify-corollary", "--N", "2", "--n", "4", "--k", "2"],
    ["sweep", "--N", "2", "--n", "4", "--k", "2", "--trials", "2"],
])
def test_twisted_cocycle_is_a_counterexample(capsys, monkeypatch, command, shift):
    monkeypatch.setattr(cli, "jet_transition_matrix", twisted_jet_cocycle(shift))
    code, out, err = run(capsys, *command, "--output", "json")
    assert code == 1, err
    report = json.loads(out)
    split = report["result"] if "result" in report else report["results"][0]["splitting"]
    assert split["pass"] is False
    assert split["degrees"] == [4 - 2 + shift] * split["multiplicity"]
    assert report["overall_pass"] is False


def test_internal_error_exit_code(capsys, monkeypatch):
    # An exception from inside a check is neither a counterexample (1) nor a
    # usage error (2). A plain ValueError too: only the library's range
    # checks raise ParameterError, the ValueError that reads as exit 2.
    for planted in (ArithmeticError("planted"), ValueError("planted")):
        def broken(*args, **kwargs):
            raise planted

        monkeypatch.setattr(cli, "codimension_identity", broken)
        code, out, err = run(capsys, "dims", "--N", "2", "--n", "4", "--k", "2")
        assert code == 3
        assert out == ""
        assert err == f"internal error: {type(planted).__name__}: planted\n"


def test_sweep_triple_count_and_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--N", "1", "2", "--n", "2", "3", "4",
        "--trials", "5", "--seed", "1", "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert len(report["results"]) == 12  # 2 * (1 + 2 + 3)
    assert report["overall_pass"] is True


CHECKED = ["N", "n", "k", "trials", "seed", "height"]
THEOREM = ["verify-theorem", "--N", "1", "--n", "2", "--k", "1", "--trials", "2"]
COROLLARY = ["verify-corollary", "--N", "2", "--n", "3", "--k", "1"]


@pytest.mark.parametrize(
    "argv,verbose_key",
    [
        (THEOREM, None),
        ([*THEOREM, "--verbose"], "phi_matrix"),
        (COROLLARY, None),
        ([*COROLLARY, "--verbose"], "transition"),
        (["dims", "--N", "1", "--n", "2", "--k", "1"], None),
        (["splitting-type", "--N", "1", "--n", "2", "--k", "1"], None),
        (["sweep", "--N", "1", "--n", "2", "--trials", "2"], None),
    ],
    ids=["verify-theorem", "verify-theorem --verbose", "verify-corollary",
         "verify-corollary --verbose", "dims", "splitting-type", "sweep"],
)
def test_every_report_keeps_its_key_order_and_config(capsys, argv, verbose_key):
    # One layout for every report: the config records the command and then
    # exactly the checked options it declares, in declaration order, so an
    # option outside CHECKED, such as a later reporting flag, stays out.
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 0
    report = json.loads(out)
    command = argv[0]
    assert list(report) == [
        "schema", "tool_version", "config",
        "results" if command == "sweep" else "result", "overall_pass",
        *([verbose_key] if verbose_key else []), "elapsed_ms",
    ]
    declared = [flag[2:] for flag in COMMAND_OPTIONS[command].split()]
    assert list(report["config"]) == ["command", *(name for name in declared if name in CHECKED)]
    assert report["config"]["command"] == command


def test_sweep_is_deterministic_modulo_elapsed(capsys):
    argv = ["sweep", "--N", "1", "--n", "2", "3", "--trials", "5", "--seed", "42",
            "--output", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a) == json.dumps(b)


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("PPLAB_SEED", "314")
    code, out, _ = run(
        capsys, "verify-theorem", "--N", "1", "--n", "2", "--k", "1",
        "--trials", "3", "--seed", "0", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 314


def test_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("PPLAB_SEED", "not-a-number")
    code, _, err = run(capsys, "verify-theorem", "--N", "1", "--n", "2", "--k", "1")
    assert code == 2
    assert "PPLAB_SEED" in err


def test_env_seed_is_ignored_by_commands_without_seed(capsys, monkeypatch):
    monkeypatch.setenv("PPLAB_SEED", "not-a-number")
    code, out, _ = run(capsys, "dims", "--N", "2", "--n", "4", "--k", "2")
    assert code == 0
    assert "overall: PASS" in out


def test_export_transition_schema(capsys, tmp_path):
    out_path = tmp_path / "transition.json"
    code, _, _ = run(
        capsys, "export-transition", "--N", "1", "--n", "3", "--k", "1",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"rank", "variable", "entries"}
    assert payload["rank"] == 2
    assert len(payload["entries"]) == payload["rank"] ** 2
    for entry in payload["entries"]:
        for exp, frac in entry:
            assert isinstance(exp, int)
            num, den = frac.split("/")
            int(num), int(den)


def test_dims_command(capsys):
    code, out, _ = run(capsys, "dims", "--N", "2", "--n", "4", "--k", "2",
                       "--output", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim_forms"] == 15
    assert result["fiber_rank"] == 6
    assert result["dim_small_x0_subspace"] == 9
    assert result["identity"] is True


def test_splitting_type_command_allows_k_zero(capsys):
    code, out, _ = run(capsys, "splitting-type", "--N", "1", "--n", "3", "--k", "0")
    assert code == 0
    assert "{3}" in out


def test_report_written_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify-theorem", "--N", "1", "--n", "2", "--k", "1",
        "--trials", "2", "--output", "json", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["overall_pass"] is True


def test_verbose_embeds_matrices(capsys):
    code, out, _ = run(
        capsys, "verify-theorem", "--N", "1", "--n", "2", "--k", "1",
        "--trials", "2", "--output", "json", "--verbose",
    )
    assert code == 0
    report = json.loads(out)
    assert report["phi_matrix"] == [["2", "0", "0"], ["0", "1", "0"]]


@pytest.mark.parametrize("command", [
    ["dims", "--N", "1", "--n", "2", "--k", "1"],
    ["export-transition", "--N", "1", "--n", "2", "--k", "1"],
    ["sweep", "--N", "1", "--n", "2", "--trials", "2"],
])
@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
def test_unwritable_out_path_is_usage_error(capsys, tmp_path, command, target):
    # A missing parent directory and a directory in place of a file: the
    # checks have run, but a bad --out path is still the caller's error.
    path = tmp_path / target
    code, out, err = run(capsys, *command, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1


def test_unwritable_out_path_fails_before_any_check(capsys, tmp_path, monkeypatch):
    calls = []

    def recorded(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(cli, "verify_jet_representation", recorded("theorem"))
    monkeypatch.setattr(cli, "verify_jet_representations", recorded("theorems"))
    monkeypatch.setattr(cli, "jet_transition_matrix", recorded("cocycle"))
    code, out, err = run(capsys, "sweep", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out ")
    assert calls == []


def test_out_check_keeps_an_existing_file_and_creates_none(capsys, tmp_path):
    kept = tmp_path / "kept.txt"
    kept.write_text("old report\n")
    code, _, _ = run(capsys, "dims", "--N", "1", "--n", "2", "--k", "5", "--out", str(kept))
    assert code == 2
    assert kept.read_text() == "old report\n"
    code, _, _ = run(capsys, "dims", "--N", "1", "--n", "2", "--k", "5",
                     "--out", str(tmp_path / "new.txt"))
    assert code == 2
    assert not (tmp_path / "new.txt").exists()


def test_verify_corollary_verbose_builds_the_cocycle_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return jet_transition_matrix(*args)

    monkeypatch.setattr(cli, "jet_transition_matrix", counted)
    code, out, _ = run(capsys, "verify-corollary", "--N", "2", "--n", "3", "--k", "1",
                       "--verbose", "--output", "json")
    assert code == 0
    assert calls == [(2, 3, 1)]
    report = json.loads(out)
    assert report["transition"] == transition_to_json_dict(jet_transition_matrix(2, 3, 1))


def test_sweep_expands_each_element_once_per_n(capsys, monkeypatch):
    calls = []
    expand = jetmap._substitution_images

    def counted(*args):
        calls.append(args[1])
        return expand(*args)

    monkeypatch.setattr(jetmap, "_substitution_images", counted)
    code, _, _ = run(capsys, "sweep", "--trials", "3")
    assert code == 0
    assert calls == [1] * 3 + [2] * 3 + [3] * 3


@pytest.fixture(params=["determinant", "corner"])
def faulty_later_draw(monkeypatch, request):
    # A fault in the integer draw that shows only on a later draw of a pass,
    # after the first draw's Gauss-Jordan comparison: a block E of
    # determinant 2 on draw 2, or B[0][0] + 1 in the cleared rows of draw 3.
    # It must surface as an internal error, not as failed trials.
    if request.param == "corner":
        cleared = parabolic.Draw.cleared_rows
        calls = []

        def faulty_rows(draw):
            rows = cleared(draw)
            calls.append(rows)
            if len(calls) != 4:
                return rows
            return ((rows[0][0] + 1, *rows[0][1:]), *rows[1:])

        monkeypatch.setattr(parabolic.Draw, "cleared_rows", faulty_rows)
        return request.param
    draw = parabolic._parabolic_from_rng
    count = [0]

    def faulty(*args):
        result = draw(*args)
        count[0] += 1
        if count[0] != 3:
            return result
        block = result.block
        return result._replace(block=(tuple(2 * x for x in block[0]),) + block[1:])

    monkeypatch.setattr(parabolic, "_parabolic_from_rng", faulty)
    monkeypatch.setattr(jetmap, "_parabolic_from_rng", faulty)
    return request.param


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--N", "2", "--n", "3", "--k", "1", "--trials", "5"],
        ["sweep", "--N", "2", "--n", "2", "3", "--trials", "5"],
    ],
    ids=["verify-theorem", "sweep"],
)
def test_a_fault_in_a_later_draw_is_an_internal_error(capsys, faulty_later_draw, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3, (out, err)
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: a drawn element")
    assert faulty_later_draw in err


def report_digest(capsys, *argv):
    # The SHA-256 of the bytes the CLI writes for the JSON report, less the
    # line of the elapsed time, the one field that varies between runs.
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 0
    lines = out.splitlines(keepends=True)
    steady = [line for line in lines if '"elapsed_ms"' not in line]
    assert len(lines) - len(steady) == 1
    return hashlib.sha256("".join(steady).encode()).hexdigest()


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["sweep", "--seed", "3"],
            "7db5a5f7c303d81bfa450b083e5e54b548568515f442e8812ec37349ab55602b",
        ),
        (
            ["verify-theorem", "--N", "3", "--n", "6", "--k", "3", "--seed", "3", "--verbose"],
            "bf92f4e27c2891ad3728d4fcda0198979de52187ff524150567f65beac077f15",
        ),
        (
            ["verify-corollary", "--N", "4", "--n", "7", "--k", "5", "--verbose"],
            "3dc12b3a514a924ddf9084408ca03528fdcdc37de4a3d652fff707a15a2b02a2",
        ),
        (
            ["splitting-type", "--N", "2", "--n", "2", "--k", "4"],
            "e2f2ecf8c7ed059275507525c36bc2404bac73bc9c9474ddb79f6684cd495869",
        ),
        (
            ["dims", "--N", "3", "--n", "8", "--k", "5"],
            "0bf508de2d6f4491802ee4b258407dd3baa6acf8bb2f551e0e51dd087f298537",
        ),
    ],
    ids=["sweep", "verify-theorem", "verify-corollary", "splitting-type", "dims"],
)
def test_default_reports_keep_their_golden_digest(capsys, argv, digest):
    # Pins every verdict, count and field of these reports: a change that
    # alters the trial verdicts, the cocycle, its splitting degrees, the
    # dimensions or the layout of the JSON changes the digest. A passing
    # report holds only counts, not the elements it drew; those are pinned
    # by test_the_golden_sweep_draws_its_pinned_elements.
    assert report_digest(capsys, *argv) == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["verify-theorem", "--N", "3", "--n", "6", "--k", "3", "--seed", "3"],
            "15efe7530bd121fe886e9c6746c91cd081781c904ca532a5b3b924e1d1f0c068",
        ),
        (
            ["verify-corollary", "--N", "4", "--n", "7", "--k", "5"],
            "a0027935c19bb4bf94744f75a6454346f90ab31df4c57cc0d7df265602c76267",
        ),
        (
            ["dims", "--N", "3", "--n", "8", "--k", "5"],
            "df6e30854b3fc5c654a03597b44399403119c0ca2ee9f2019edae8e0c3686a53",
        ),
        (
            ["splitting-type", "--N", "2", "--n", "2", "--k", "4"],
            "f6f0abfffb980c7188e70d13d66ffa42d1a1a3c0dc87a9a48d75ab0fc80e77b9",
        ),
        (
            ["sweep", "--seed", "3"],
            "4c38941b33a427218c8090b9f644effb8b658a2cf9c6b33dc783c4d7c692a2b7",
        ),
    ],
    ids=["verify-theorem", "verify-corollary", "dims", "splitting-type", "sweep"],
)
def test_default_text_reports_keep_their_golden_digest(capsys, argv, digest):
    # Pins the text layout byte for byte; only the time in the last line of
    # a sweep varies between runs, so it is masked.
    code, out, _ = run(capsys, *argv, "--output", "text")
    assert code == 0
    steady, masked = re.subn(r"triples, \d+ ms\)\n\Z", "triples, X ms)\n", out)
    assert masked == (argv[0] == "sweep")
    assert hashlib.sha256(steady.encode()).hexdigest() == digest


def test_export_transition_keeps_its_golden_digest(capsys):
    # Pins every entry of an exported cocycle and the layout of its JSON.
    code, out, _ = run(capsys, "export-transition", "--N", "3", "--n", "5", "--k", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "57afb4fb4e8129b6fc8440d587f0d48b50b4a26d342403fe04fce5dc9b50d2ac"


def test_the_golden_sweep_draws_its_pinned_elements():
    # The 300 elements of the golden sweep (seed 3, 100 trials, height 3,
    # N 1-3), as (a, B, c) each: a change to the draw changes the digest
    # even where every trial still passes.
    digest = hashlib.sha256()
    for N in (1, 2, 3):
        for a, b_rows, c in jetmap._trial_elements(N, 100, 3, 3):
            digest.update(repr((N, a.numerator, a.denominator, b_rows, c)).encode())
    assert digest.hexdigest() == "9b3d53f4a6a1dedf7eecf34ade10be9f159487b0775afe3bc9feddee70fe7eb9"
