"""The exit-code contract of ``homlie`` under a fuzzer.

Hypothesis draws command lines over the grammar of every subcommand:
valid and broken windows, pair counts, ``--perturb`` specs, expressions
with junk tokens and ``HOMLIE_WINDOW`` values, and runs each through
``cli.main`` in this one process, so that the process-wide caches of
the families and contexts see every run.  The contract:

- the exit code is 0, 1 or 2, and nothing prints a traceback;
- exit 2 prints exactly one stderr line, starting ``error:`` or
  ``syntax error:``;
- an ``error:`` line shows the input as typed, never as a Python repr:
  it holds no quote character, and no drawn token holds one (a
  ``syntax error:`` line quotes the one character it stopped at);
- exit 1 happens only on a run with ``--perturb``;
- after a perturbed run, a clean ``verify witt --window 3`` still exits 0.

Windows and pair counts that execute are at most 3 (``table`` defaults
to 3); larger values are drawn only past ``cli.MAX_SIZE``, which is
refused before any sweep.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from homlie import cli

SMALL = ["1", "2", "3"]
SIZES = SMALL + ["0", "-2", str(cli.MAX_SIZE + 1), "99999999999", "abc", "2.5", "", "²"]
# (suite, spec) faults that the suite sees at every window from 1 to 3
FAULTS = [("witt", "witt:1,2"), ("witt", "witt:-2,2"), ("witt-forced", "witt-forced:2,-1"),
          ("inverse", "inverse:1,2"), ("sl2", "sl2:e,f"), ("sigma-sigma", "sigma-sigma:0,1"),
          ("virasoro", "virasoro:1")]
ENV_WINDOWS = [None, "1", "3", "0", "-1", "abc", "99999999999", "", "²"]
PERTURB_SPECS = [
    "witt:1,2", "witt:-2,2", "witt-forced:2,-1", "inverse:1,2", "sl2:e,f", "sigma-sigma:0,1",
    "virasoro:2", "witt:1", "witt:a,b", "witt:99,1", "virasoro:1,2", "diagram:1,2",
    "nosuch:1,2", "sl2:e,x", "witt:١,2", ":", "",
]
EXPRESSIONS = [
    "p*t", "q*t", "t^-1", "-t^2", "-t", "1", "0", "(p-q)*t", "1/(p-q)", "p^2 + q",
    "t^", "(", "1/0", "p**2", "t^-1 +", "@", "2*t*", "t^t", "1e999999", "",
    # a digit that is not decimal, and nesting past the recursion limit
    "2²", "t^²", "(" * 10000 + "p" + ")" * 10000, "0+" + "-" * 3000 + "p",
]
RATIONALS = ["1", "2", "2/3", "-1/2", "0", "1/0", "x", "1.5", ""]
JUNK = ["verify", "table", "--window", "3", "--perturb", "witt:1,2", "-a", "--kind",
        "--json", "witt", "all", "--nosuch", "-", "--", "x"]


def _flags(*pairs):
    """Any subset of the optional (flag, values) pairs, in any order."""
    options = [st.tuples(st.just(flag), values) for flag, values in pairs]
    return st.lists(st.one_of(*options), max_size=len(pairs)).map(
        lambda chosen: [token for flag, value in chosen for token in (flag, *value)])


def _one(values):
    return st.sampled_from(values).map(lambda v: (v,))


def _command(head, *pairs):
    return st.tuples(head, _flags(*pairs)).map(lambda hv: [*hv[0], *hv[1]])


ARGV = st.one_of(
    _command(st.sampled_from(cli.SUITES + ("all", "nosuch")).map(lambda s: ["verify", s]),
             ("--window", _one(SIZES)), ("--perturb", _one(PERTURB_SPECS))),
    st.tuples(st.sampled_from(FAULTS), st.sampled_from(SMALL)).map(
        lambda f: ["verify", f[0][0], "--window", f[1], "--perturb", f[0][1]]),
    _command(st.sampled_from(tuple(cli.FAMILIES) + ("virasoro", "nosuch")).map(
        lambda f: ["table", f]),
        ("--window", _one(SIZES)),
        ("--specialize", st.tuples(st.sampled_from(RATIONALS), st.sampled_from(RATIONALS)))),
    _command(st.tuples(*[st.sampled_from(EXPRESSIONS)] * 4).map(
        lambda e: ["bracket", "--tau", e[0], "--sigma", e[1], "-a", e[2], "-b", e[3]]),
        ("--kind", _one(["general", "forced-sigma", "forced-tau", "nosuch"])),
        ("--basis", _one(["d", "e"])), ("--gcd", _one(EXPRESSIONS))),
    st.tuples(st.sampled_from(EXPRESSIONS), st.sampled_from(RATIONALS),
              st.sampled_from(RATIONALS)).map(lambda e: ["specialize", *e]),
    _command(st.just(["diagram"]), ("--window", _one(SIZES))),
    st.sampled_from(SIZES).map(lambda n: ["catalogue", "--pairs", n]),
    st.lists(st.sampled_from(JUNK), max_size=6),
)


def run(argv, env_window=None):
    """Exit code, stdout and stderr of ``cli.main(argv)`` with
    HOMLIE_WINDOW set to ``env_window`` (unset for None)."""
    env = {k: v for k, v in os.environ.items() if k != "HOMLIE_WINDOW"}
    if env_window is not None:
        env["HOMLIE_WINDOW"] = env_window
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(ARGV, st.sampled_from(ENV_WINDOWS))
@settings(max_examples=150, deadline=None)
def test_exit_code_contract(argv, env_window):
    # a run without --window takes HOMLIE_WINDOW, and without that a
    # default window of up to 4
    assume("--window" in argv or env_window or argv[:1] not in (["verify"], ["diagram"]))
    code, out, err = run(argv, env_window)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(("error:", "syntax error:")), err
        if lines[0].startswith("error:"):
            assert not set("'\"") & set(lines[0]), err
    if code == 1:
        assert "--perturb" in argv
        clean = run(["verify", "witt", "--window", "3"])
        assert clean == (0, "[ok ] witt: 51/51 checks passed (ok)\n", "")
