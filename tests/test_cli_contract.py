"""Generated argv for every subcommand, and round trips the CLI checks on itself.

Every call either exits 0 with output, or exits 1 with empty stdout and one
``error:`` line, or leaves through argparse: SystemExit(2) with a usage line,
or SystemExit(0) after help or version. Nothing else may escape ``main``.
Family parameters, word lengths and ranges stay small, so that no example
allocates much or runs long; the one large value, 10**21, is over the largest
index and fails before anything is allocated.
"""

import contextlib
import io
import json
import os
import re

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bwtmorph import cli
from bwtmorph.cli import main
from helpers import SLOW

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "bwtmorph", "schemas")


def schema(command):
    with open(os.path.join(SCHEMA_DIR, f"{command}.schema.json"), encoding="utf-8") as handle:
        return json.load(handle)


# Paths in drawn argv start with this token; each test run puts its own
# directory in its place.
DIR = "{dir}"

# Tokens that once parsed differently in the subcommand parser and the full one.
EDGE_TOKENS = ("--", "-", "-1", "--vers", "-hx", "--json=1", "--=x")

small = st.integers(-1, 5).map(str)
words = st.one_of(st.text("ab", max_size=8), st.text("ab$c", max_size=8))
short_words = st.one_of(st.text("ab", max_size=4), st.text("abc", max_size=3))
alphabets = st.sampled_from(("ab", "ba", "$ab", "abc", "", "aab", "xy"))
# Valid texts over one to three source letters in any listing order.
valid_texts = st.lists(
    st.tuples(st.sampled_from("abc"), st.text("abc", min_size=1, max_size=4)),
    min_size=1,
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: ",".join(f"{letter}={image}" for letter, image in pairs))
binary_texts = st.builds("a={},b={}".format, st.text("ab", min_size=1, max_size=5), st.text("ab", min_size=1, max_size=5))
morphisms = st.one_of(
    st.sampled_from(("thue-morse", "fibonacci", "period-doubling")),
    st.integers(1, 5).map("rho:{}".format),
    st.builds("tm-like:{}:{}".format, st.integers(1, 3), st.integers(1, 3)),
    binary_texts,
    valid_texts,
    # Unknown names, and families with missing, bad or zero fields.
    st.builds(
        lambda name, fields: ":".join([name, *fields]),
        st.sampled_from(("rho", "tm-like", "no-such-name")),
        st.lists(st.one_of(small, st.sampled_from(("", "x", "0", "1.5", str(10**21)))), max_size=3),
    ),
    # Malformed texts: stray separators, whitespace, erasing images.
    st.text("ab=, c", max_size=10),
)
scopes = st.one_of(
    st.just("full"),
    st.builds("runs:{}:{}".format, st.one_of(small, st.sampled_from(("inf", "x", ""))), st.one_of(small, st.just("inf"))),
    st.sampled_from((f"file:{DIR}/scope.txt", "file:", "file:no/such/file", "runs:1", "none")),
)
# experiment builds one word per k, so ranges stay small. The large range
# has more elements than the largest index, so it fails before any word.
k_ranges = st.one_of(
    small,
    st.builds("{}..{}".format, st.integers(-1, 8), st.integers(-1, 8)),
    st.sampled_from(("x", "3..", "..4", f"0..{10**21}")),
)

# The tokens of each subcommand before the options every word command takes.
ARGS = {
    "bwt": st.tuples(words),
    "inverse-bwt": st.tuples(words, small),
    "apply": st.tuples(morphisms, words),
    "compose": st.tuples(morphisms, morphisms),
    "classify": st.tuples(morphisms),
    "mu-powers": st.tuples(morphisms),
    "sync": st.tuples(morphisms, st.just("--word"), short_words),
    "decide-delay": st.tuples(morphisms, st.just("--scope"), scopes),
    "sensitivity": st.builds(
        lambda m, low, high, flags: (m, "--n-from", low, "--n-to", high, *flags),
        morphisms,
        st.integers(1, 5).map(str),
        st.integers(1, 6).map(str),
        st.lists(st.sampled_from(("--table1", "--include-constants")), unique=True),
    ),
    "experiment": st.builds(
        lambda kind, p, k: (kind, *p, "--k", k),
        st.sampled_from(("rho", "fib-dollar", "sqrt")),
        st.one_of(st.just(()), small.map(lambda p: ("--p", p))),
        k_ranges,
    ),
    "reproduce": st.tuples(st.sampled_from(("table1", "figures-2-3", "table2"))),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(ARGS)))
    argv = [name, *draw(ARGS[name])]
    if cli._COMMANDS[name][3]:  # commands that read words take --json and --alphabet
        if draw(st.booleans()):
            argv.append("--json")
        if draw(st.integers(0, 2)) == 0:
            argv += ["--alphabet", draw(alphabets)]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--manifest", f"{DIR}/manifest.json"]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(EDGE_TOKENS)))
    return argv


def call(argv):
    """(exit code or ("exit", code), stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "scope.txt").write_text("aab\nabb\n", encoding="utf-8")
    return str(path)


def test_generators_cover_every_subcommand_and_schema():
    assert set(ARGS) == set(cli._COMMANDS)
    # Every command that takes --json has a schema, and no other has one.
    schemas = {name.removesuffix(".schema.json") for name in os.listdir(SCHEMA_DIR)}
    assert schemas == {name for name, row in cli._COMMANDS.items() if row[3]}


def check_answer(workdir, argv):
    argv = [token.replace(DIR, workdir) for token in argv]
    code, out, err = call(argv)
    if code == 0:
        assert out and not err
        args = cli._parse_args(argv)
        if getattr(args, "json", False):
            jsonschema.validate(json.loads(out), schema(args.command))
    elif code == 1:
        assert not out and re.fullmatch(r"error: [^\n]*\n", err)
    elif code == ("exit", 2):
        assert not out and err.startswith("usage: ")
    else:
        # --help and --version print to stdout and exit 0.
        assert code == ("exit", 0) and out and not err


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_answers_errs_or_shows_usage(workdir, argv):
    check_answer(workdir, argv)


# The same generator and property over 5 000 argvs (under a minute); CI runs
# it on one Python version.
@SLOW
@settings(max_examples=5000, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_answers_errs_or_shows_usage_at_scale(workdir, argv):
    check_answer(workdir, argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.text("ab$", min_size=1, max_size=40), st.sampled_from((None, "$ab", "b$a")))
def test_inverse_bwt_undoes_bwt_json(word, alphabet):
    declared = [] if alphabet is None else ["--alphabet", alphabet]
    code, out, _ = call(["bwt", word, "--json", *declared])
    assert code == 0
    payload = json.loads(out)
    code, out, _ = call(["inverse-bwt", payload["bwt"], str(payload["index"]), *declared])
    assert (code, out) == (0, word + "\n")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_texts, valid_texts, st.text("abc", max_size=6))
def test_composed_text_applies_as_nested_apply(outer, inner, word):
    code, composed, err = call(["compose", outer, inner])
    if code != 0:
        # Only an inner image letter that the outer morphism does not map fails.
        mapped = {pair.split("=")[0] for pair in outer.split(",")}
        assert not {c for pair in inner.split(",") for c in pair.split("=")[1]} <= mapped
        assert (composed, err.count("\n")) == ("", 1) and "not in alphabet" in err
        return
    nested = call(["apply", inner, word])
    if nested[0] == 0:
        nested = call(["apply", outer, nested[1].rstrip("\n")])
    assert call(["apply", composed.rstrip("\n"), word]) == nested
