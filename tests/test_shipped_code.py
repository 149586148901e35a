"""Every module-level function and class of `src/pplab`, and every method
written in a class body, is code the program runs: the commands of CI's
`python -O` verification step, run in process, and one splitting of a
gauged cocycle that is not uniform, which reaches column reduction and the
Bareiss determinant, enter each of them. Code that only tests enter belongs
in `tests/oracles.py`.
"""

import inspect
import sys

import pplab
from pplab import cli, jetmap, laurent, linalg, parabolic, splitting, symspace
from pplab.laurent import LaurentMatrix, LaurentPoly

MODULES = (pplab, cli, jetmap, laurent, linalg, parabolic, splitting, symspace)

# Entered outside the commands, and kept on purpose, each for its one user.
ALLOWED = {
    # The kernels workload of the benchmark calls it; no command does.
    "pplab.jetmap.verify_kernel",
    # perfbench/jobs.py builds its gauged cocycles with them.
    "pplab.laurent.LaurentMatrix.__matmul__",
    "pplab.laurent.LaurentMatrix.diagonal",
    "pplab.laurent.LaurentMatrix.identity",
    # perfbench/tracer.py reads the dense view of each reduced form.
    "pplab.linalg.RrefResult.matrix",
    # tests/oracles.py: the identity element, the group product, the dual
    # action's transpose, the cleared inverse and the transition check.
    "pplab.linalg.RationalMatrix.identity",
    "pplab.linalg.RationalMatrix.__matmul__",
    "pplab.linalg.RationalMatrix.transpose",
    "pplab.linalg.RationalMatrix.to_rows",
    "pplab.linalg.RationalMatrix.mat_vec",
    # tests/oracles.py evaluates the cocycle entrywise in the transition check.
    "pplab.laurent.LaurentMatrix.evaluate",
    "pplab.laurent.LaurentPoly.evaluate",
    # tests/test_linalg.py: the kernel of a zero matrix, and kernel vectors
    # checked against their matrix.
    "pplab.linalg.RationalMatrix.zero",
    "pplab.linalg.Subspace.basis",
}

# The commands of CI's `python -O` verification step, with the exit code
# each must give; {out} is a writable path. CI's `sweep --N 4 5 --n 5 6
# --trials 3` is left out: it enters what the smaller sweeps enter, and
# under the profiler it alone took 1.8 s of 2.3.
COMMANDS = [
    ("verify-corollary --N 3 --n 5 --k 3", 0),
    ("verify-corollary --N 4 --n 7 --k 5", 0),
    ("verify-corollary --N 4 --n 7 --k 5 --verbose", 0),
    ("export-transition --N 3 --n 5 --k 3", 0),
    ("verify-corollary --N 3 --n 9 --k 6", 0),
    ("sweep --N 1 2 --n 2 3 --trials 5", 0),
    ("sweep --N 1 2 3 --n 2 3 4 --trials 5 --height 9", 0),
    ("verify-theorem --N 4 --n 6 --k 4 --trials 5", 0),
    ("verify-theorem --N 3 --n 7 --k 4 --trials 3 --height 9", 0),
    ("dims --N 3 --n 8 --k 5", 0),
    ("splitting-type --N 2 --n 2 --k 4", 0),
    ("splitting-type --N 1 --n 1 --k 3", 0),
    ("splitting-type --N 3 --n 2 --k 5", 0),
    ("verify-corollary --N 1 --n 3 --k 3", 2),
    ("dims --N 2 --n 4 --k 2 --seed 1", 2),
    ("dims --N 3 --n 8 --k 5 --output json --out {out}", 0),
    ("sweep --out /", 2),
]


def code_objects(value):
    """The code a module-level definition runs: a function's own, behind
    any cache, or that of every method, property and generated method of a
    class."""
    if not inspect.isclass(value):
        return {inspect.unwrap(value).__code__}
    return set(members(value).values())


def members(cls):
    """{name: code} of the methods, properties and static methods of a
    class, including those a dataclass or NamedTuple generates."""
    codes = {}
    for name, member in vars(cls).items():
        for attr in ("__func__", "fget", "func"):
            member = getattr(member, attr, member)
        if inspect.isfunction(member):
            codes[name] = member.__code__
    return codes


def definitions():
    """{qualified name: code objects} of every function and class defined in
    a pplab module, and of every method written in a class body. A class
    with no code of its own, such as an exception type, has nothing to
    enter and is left out; the methods a dataclass or NamedTuple generates
    are not in the module's source file, and count only for their class."""
    found = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value) or callable(value):
                codes = code_objects(value)
                if codes:
                    found[f"{module.__name__}.{name}"] = codes
            if inspect.isclass(value):
                for method, code in members(value).items():
                    if code.co_filename == module.__file__:
                        found[f"{module.__name__}.{name}.{method}"] = {code}
    return found


def gauged_non_uniform():
    """diag(t^2, 1) gauged by [[1, t], [0, 1]] on the left and
    [[1, 0], [1/t, 1]] on the right: one block, with no row of one entry,
    of degrees (2, 0)."""
    t = LaurentPoly.t_pow
    return LaurentMatrix.from_rows([[LaurentPoly.from_dict({0: 1, 2: 1}), t(1)], [t(-1), t(0)]])


def test_every_definition_in_pplab_is_entered_by_the_program(capsys, tmp_path):
    found = definitions()
    assert ALLOWED <= set(found)
    for module in MODULES:
        for value in vars(module).values():
            # A cache warmed by an earlier test would hide its function.
            getattr(value, "cache_clear", lambda: None)()
    matrix = gauged_non_uniform()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for command, _ in COMMANDS:
            argv = command.format(out=tmp_path / "report.json").split()
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        degrees = splitting.splitting_type(splitting.TransitionData(2, matrix)).degrees
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    assert codes == [code for _, code in COMMANDS]
    assert degrees == (2, 0)
    never = sorted(name for name, codes in found.items() if not codes & entered)
    assert never == sorted(ALLOWED), "never entered: " + ", ".join(sorted(set(never) - ALLOWED))

