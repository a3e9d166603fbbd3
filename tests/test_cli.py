import argparse
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from bwtmorph import __version__, cli
from bwtmorph.cli import main

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "bwtmorph", "schemas")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


def test_bwt_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "bwt", "abaababa")
    assert code == 0
    assert out.strip() == "bbbaaaaa (index=3, r=2)"
    code, out, _ = run_cli(capsys, "bwt", "abaababa", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "bwt.schema.json")
    assert payload["bwt"] == "bbbaaaaa"
    assert payload["r"] == 2
    assert payload["rle"] == [["b", 3], ["a", 5]]


def test_inverse_bwt(capsys):
    code, out, _ = run_cli(capsys, "bwt", "bcba", "--json")
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, "inverse-bwt", payload["bwt"], str(payload["index"]))
    assert code == 0
    assert out.strip() == "bcba"
    code, out, _ = run_cli(capsys, "inverse-bwt", payload["bwt"], str(payload["index"]), "--json")
    payload = json.loads(out)
    validate(payload, "inverse-bwt.schema.json")
    assert payload == {"bwt": "bcab", "index": 2, "word": "bcba"}


def test_inverse_bwt_rejects_a_text_that_is_no_transform(capsys):
    # bwt(bb) and bwt(aa) both have index 0, so index 1 inverts nothing.
    for text in ("ab", "aa"):
        code, out, err = run_cli(capsys, "inverse-bwt", text, "1")
        assert (code, out) == (1, "")
        assert err == "error: text is no transform: no word has it with primary index 1\n"


def test_apply_and_compose(capsys):
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "aaaab")
    assert (code, out.strip()) == (0, "ababababaa")
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "")
    assert (code, out.strip()) == (0, "")
    code, out, _ = run_cli(capsys, "compose", "period-doubling", "thue-morse")
    assert (code, out.strip()) == (0, "a=abaa,b=aaab")
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "aaaab", "--json")
    payload = json.loads(out)
    validate(payload, "apply.schema.json")
    assert payload == {"word": "aaaab", "image": "ababababaa"}
    # The text keeps the inner source order; JSON sorts the keys.
    code, out, _ = run_cli(capsys, "compose", "thue-morse", "b=ab,a=b")
    assert (code, out.strip()) == (0, "b=abba,a=ba")
    code, out, _ = run_cli(capsys, "compose", "thue-morse", "b=ab,a=b", "--json")
    assert out == '{"images": {"a": "ba", "b": "abba"}}\n'
    validate(json.loads(out), "compose.schema.json")


def test_compose_pairs_inner_images_with_outer_letters(capsys):
    # Outer source b, a: the inner image aab reads as ba ba ab.
    code, out, _ = run_cli(capsys, "compose", "b=ab,a=ba", "a=aab,b=abb")
    assert (code, out.strip()) == (0, "a=babaab,b=baabab")
    # A declared order (b < a) orders the target letters, not the pairing.
    code, out, _ = run_cli(capsys, "compose", "thue-morse", "fibonacci", "--alphabet", "ba")
    assert (code, out.strip()) == (0, "a=abba,b=ab")
    # An inner image letter that the outer morphism does not map is an error.
    code, out, err = run_cli(capsys, "compose", "c=ab,a=b", "thue-morse")
    assert (code, out, err) == (1, "", "error: letter 'b' not in alphabet 'ca'\n")


def test_dollar_alphabet(capsys):
    code, out, _ = run_cli(capsys, "bwt", "aba$", "--alphabet", "$ab")
    assert code == 0
    assert out.split()[0] == "ab$a"


def test_named_morphism_with_declared_alphabet(capsys):
    # A named morphism reads as its a=..,b=.. text under any letter order.
    for declared in ("$ab", "ba", "ab"):
        code, out, _ = run_cli(capsys, "apply", "thue-morse", "ab", "--alphabet", declared)
        assert (code, out.strip()) == (0, "abba")
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "ba", "--alphabet", "$ab")
    assert (code, out.strip()) == (0, "aaab")
    code, out, err = run_cli(capsys, "apply", "thue-morse", "ab", "--alphabet", "xy")
    assert (code, out) == (1, "") and err.startswith("error:")


def test_empty_declared_alphabet_is_an_error(capsys):
    for argv in (
        ("bwt", "ab", "--alphabet", ""),
        ("classify", "thue-morse", "--alphabet", ""),
        ("apply", "thue-morse", "ab", "--alphabet", ""),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: alphabet needs at least one letter\n"), argv


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "a=ba,b=ababaa", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "classify.schema.json")
    assert payload["primitivity_preserving"] is False
    assert payload["pp_witness"] == "aab"
    assert payload["power_case"] == "2a"
    assert payload["holub_form"]["case"] == 2
    code, out, _ = run_cli(capsys, "classify", "a=ababbba,b=ababbbaababbba", "--json")
    payload = json.loads(out)
    validate(payload, "classify.schema.json")
    assert payload["injective"] is False
    assert payload["cyclic"] == "ababbba"


def test_mu_powers_json(capsys):
    code, out, _ = run_cli(capsys, "mu-powers", "a=a,b=bab", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "mu-powers.schema.json")
    assert payload == {"case": "2a", "k": 2, "letters": [], "rotation_witness": "ab", "z": "ab"}


def test_sync_json(capsys):
    code, out, _ = run_cli(capsys, "sync", "thue-morse", "--word", "aab", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "sync.schema.json")
    assert payload["delay"] == 5
    assert payload["image"] == "ababba"


def test_decide_delay(capsys):
    code, out, _ = run_cli(capsys, "decide-delay", "thue-morse", "--scope", "runs:2:2", "--json")
    payload = json.loads(out)
    validate(payload, "decide-delay.schema.json")
    assert payload["synchronizing_with_finite_delay"] is True
    code, out, _ = run_cli(capsys, "decide-delay", "thue-morse", "--scope", "full")
    assert out.startswith("synchronizing with finite delay: no")
    code, out, _ = run_cli(capsys, "decide-delay", "thue-morse", "--scope", "runs:inf:inf", "--json")
    assert json.loads(out)["synchronizing_with_finite_delay"] is False


def test_decide_delay_rejects_bad_run_bounds(capsys):
    for scope in ("runs:-1:2", "runs:x:2", "runs:2:1.5", "runs:2", "runs::2"):
        code, out, err = run_cli(capsys, "decide-delay", "thue-morse", "--scope", scope)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "runs:<a>:<b>" in err
    # No non-empty word has no runs of either letter.
    code, out, err = run_cli(capsys, "decide-delay", "thue-morse", "--scope", "runs:0:0")
    assert (code, out) == (1, "") and err.startswith("error:") and "no non-empty word" in err
    code, out, _ = run_cli(capsys, "decide-delay", "thue-morse", "--scope", "runs:0:inf")
    assert code == 0 and out.startswith("synchronizing with finite delay: yes")


def test_decide_delay_file_scope(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("aab\nabb\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "decide-delay", "period-doubling", "--scope", f"file:{path}", "--json")
    assert code == 0
    assert json.loads(out)["synchronizing_with_finite_delay"] is True
    # Scope words are words over the morphism's source alphabet.
    path.write_text("aac\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "decide-delay", "a=ab,c=ba", "--scope", f"file:{path}")
    assert (code, out.strip()) == (0, "synchronizing with finite delay: yes (conjugate images but circular a-runs are bounded in the scope)")
    path.write_text("aab\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "decide-delay", "a=ab,c=ba", "--scope", f"file:{path}")
    assert (code, out) == (1, "") and err.startswith("error:") and "'b'" in err
    # A finite list bounds the runs of both letters, so a conjugate-image
    # verdict names a-runs even when every listed word is a b-run.
    path.write_text("bbbb\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "decide-delay", "a=baa,b=aba", "--scope", f"file:{path}")
    assert (code, out.strip()) == (0, "synchronizing with finite delay: yes (conjugate images but circular a-runs are bounded in the scope)")
    # A file that is not UTF-8 is named in the error.
    path.write_bytes(b"\xffab\n")
    code, out, err = run_cli(capsys, "decide-delay", "thue-morse", "--scope", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read scope file: {path}: 'utf-8' codec can't decode byte 0xff")


def test_sensitivity_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "sensitivity", "thue-morse", "--n-from", "2", "--n-to", "4")
    lines = out.strip().split("\n")
    assert lines[0] == "n,as,ms_num,ms_den,as_witness,ms_witness"
    assert lines[1] == "2,2,2,1,ab,ab"
    code, out, _ = run_cli(capsys, "sensitivity", "thue-morse", "--n-from", "2", "--n-to", "4", "--json")
    payload = json.loads(out)
    validate(payload, "sensitivity.schema.json")
    assert [row["as"] for row in payload] == [2, 2, 2]


def test_sensitivity_include_constants(capsys):
    # The constant word aaa has one run and its image (ab)**3 has two, more
    # than any non-constant word of length 3 gains; only the flag counts it.
    argv = ("sensitivity", "a=ab,b=abab", "--n-from", "3", "--n-to", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.strip().split("\n")[1]) == (0, "3,0,1,1,aab,aab")
    code, out, _ = run_cli(capsys, *argv, "--include-constants")
    assert (code, out.strip().split("\n")[1]) == (0, "3,1,2,1,aaa,aaa")


def test_sensitivity_table_mode(capsys):
    code, out, _ = run_cli(capsys, "sensitivity", "period-doubling", "--n-from", "5", "--n-to", "5", "--table1")
    lines = out.strip().split("\n")
    assert lines[0] == "aaaab baaaa 2 ababababaa babbbaaaaa 4"
    assert len(lines) == 7
    assert lines[-1].startswith("n=5 AS=2 MS=2/1")
    code, reproduced, _ = run_cli(capsys, "reproduce", "table1")
    assert code == 0 and lines[:6] == reproduced.split("\n")[:6]


def test_sensitivity_table_mode_has_no_json(capsys):
    argv = ("sensitivity", "period-doubling", "--n-from", "3", "--n-to", "3", "--table1", "--json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--table1" in err and "--json" in err


def test_experiments(capsys):
    code, out, _ = run_cli(capsys, "experiment", "rho", "--p", "2", "--k", "6..8")
    lines = out.strip().split("\n")
    assert lines[0] == "k,r_before,r_after,delta_plus,delta_times"
    assert len(lines) == 4
    code, out, _ = run_cli(capsys, "experiment", "fib-dollar", "--k", "2..5")
    lines = out.strip().split("\n")
    assert lines[0] == "k,r_even,r_odd,ratio"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "3", "4", "5"]


def test_experiment_rejects_bad_k(capsys):
    for argv in (
        ("rho", "--p", "2", "--k", "8..6"),
        ("fib-dollar", "--k", "5..4"),
        ("rho", "--p", "2", "--k", "3..x"),
        ("rho", "--p", "2", "--k", "3.."),
        ("fib-dollar", "--k", "x"),
    ):
        code, out, err = run_cli(capsys, "experiment", *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "--k" in err, argv
    code, out, err = run_cli(capsys, "experiment", "fib-dollar", "--k", "-1")
    assert (code, out) == (1, "") and err.startswith("error:")
    # --p belongs to rho; fib-dollar has no exponent to take.
    code, out, err = run_cli(capsys, "experiment", "fib-dollar", "--p", "3", "--k", "1")
    assert (code, out) == (1, "") and err.startswith("error:") and "--p" in err


def test_reproduce_targets(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "table1")
    assert code == 0
    assert "AS_pi(5)=2 MS_pi(5)=2" in out
    assert out.strip().endswith("fixture match: ok")
    code, out, _ = run_cli(capsys, "reproduce", "figures-2-3")
    assert code == 0
    assert "counts: (1, 2, 2)" in out
    code, out, _ = run_cli(capsys, "reproduce", "rho-sqrt")
    assert code == 0
    assert out.strip().endswith("bound check: ok")
    code, out, _ = run_cli(capsys, "reproduce", "fib-dollar")
    assert code == 0
    assert out.strip().endswith("ratio check: ok")


def test_manifest_round_trip(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    argv = ["bwt", "abaababa", "--json", "--manifest", str(manifest)]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    import hashlib

    assert recorded["output_digest"] == hashlib.sha256(first.rstrip("\n").encode()).hexdigest()
    assert recorded["argv"] == argv
    assert recorded["input_digests"] == {}


def test_manifest_digests_scope_file_contents(tmp_path, capsys):
    import hashlib

    scope = tmp_path / "words.txt"
    manifest = tmp_path / "run.json"
    argv = ["decide-delay", "period-doubling", "--scope", f"file:{scope}", "--manifest", str(manifest)]
    digests = []
    for text in ("aab\n", "aab\nabb\n"):
        scope.write_text(text, encoding="utf-8")
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        assert recorded["argv"] == argv
        assert recorded["input_digests"] == {str(scope): hashlib.sha256(text.encode()).hexdigest()}
        digests.append(recorded["input_digests"][str(scope)])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_unwritable_manifest_is_an_error(tmp_path, capsys, target):
    path = tmp_path / "missing" / "run.json" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "bwt", "ab", "--manifest", str(path))
    assert (code, out) == (1, "ba (index=0, r=2)\n")
    assert err.startswith("error: cannot write manifest: ") and err.count("\n") == 1


def test_closed_stdout_pipe_exits_quietly():
    # The output, about 220 kB, outgrows the pipe's buffer, so the write
    # is still blocked when the reader closes its end after one line.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["sensitivity", "period-doubling", "--n-from", "5", "--n-to", "14", "--table1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bwtmorph.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        assert proc.stdout.readline() == b"aaaab baaaa 2 ababababaa babbbaaaaa 4\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


def test_malformed_morphism_keywords(capsys):
    for key, form in (
        ("rho:2:junk", "rho:<p>"),
        ("rho:", "rho:<p>"),
        ("rho:x", "rho:<p>"),
        ("rho:0", "rho:<p>"),
        ("tm-like:1", "tm-like:<p>:<q>"),
        ("tm-like:1:2:3", "tm-like:<p>:<q>"),
        ("tm-like:1:x", "tm-like:<p>:<q>"),
    ):
        code, out, err = run_cli(capsys, "classify", key)
        assert (code, out) == (1, ""), key
        assert err.startswith("error:") and form in err and err.count("\n") == 1, key
    code, out, _ = run_cli(capsys, "classify", "tm-like:1:2")
    assert code == 0 and out.startswith("injective: yes")


def test_alphabet_over_256_letters_is_an_error(capsys):
    # A word is bytes, so an alphabet holds at most 256 letters, whether
    # it is read off the word or declared.
    letters = "".join(map(chr, range(0x100, 0x100 + 300)))
    for argv in (("bwt", letters), ("bwt", "ab", "--alphabet", letters), ("inverse-bwt", letters, "0")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: alphabet of 300 letters is over the 256 symbols a word can hold\n"


def test_oversized_parameters_are_one_error_line(capsys):
    # rho:p builds an image of p letters; 10**14 bytes fail to allocate at once.
    code, out, err = run_cli(capsys, "apply", "rho:99999999999999", "ab")
    assert (code, out, err) == (1, "", "error: out of memory\n")
    # A size over the largest index fails before anything is allocated.
    for argv in (("apply", f"rho:{10**21}", "ab"), ("experiment", "fib-dollar", "--k", f"0..{10**21}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, argv


def test_experiment_words_over_the_largest_size_are_one_error_line(capsys):
    # The word lengths are computed before the words are built, so these
    # end at once instead of growing until the process is killed.
    big = 10**21
    for argv in (("rho", "--p", "2", "--k", f"{big}..{big + 1}"), ("fib-dollar", "--k", f"{big}..{big}")):
        code, out, err = run_cli(capsys, "experiment", *argv)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, argv


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "bwt", "")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "classify", "a=ab")
    assert code == 1
    code, _, err = run_cli(capsys, "apply", "period-doubling", "xyz")
    assert code == 1
    for argv in (
        ("inverse-bwt", "ab", "5"),
        ("compose", "a=ab,b=ba", "a=abc,b=a"),
        ("apply", "a=ab,b=ba", "abc"),
        ("apply", "a=ab b=ba", "a"),
        ("apply", "a=a,b==", "ab"),
        ("classify", "a=ab, b=ba"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), argv
    # A range of more values than sys.maxsize is refused by name, not by
    # the interpreter's overflow message.
    huge = f"0..{10**21}"
    for argv in (("experiment", "fib-dollar", "--k", huge), ("experiment", "rho", "--p", "2", "--k", huge)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err == f"error: --k range {huge!r} has more than {sys.maxsize} values\n", argv
    with pytest.raises(SystemExit) as exc:
        main(["bwt"])
    assert exc.value.code == 2
    capsys.readouterr()


def reference_parser() -> argparse.ArgumentParser:
    """The parser as first written: one add_argument per shared option and
    subcommand, and every formatter asking the terminal for its width."""
    parser = argparse.ArgumentParser(prog="bwtmorph", description=cli.__doc__)
    parser.add_argument("--version", action="version", version=f"bwtmorph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *positionals: str, words: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for dest in positionals:
            p.add_argument(dest)
        if words:
            p.add_argument("--json", action="store_true")
            p.add_argument("--alphabet", help="explicit letter order, e.g. '$ab'")
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
        p.set_defaults(func=func)
        return p

    command("bwt", cli.cmd_bwt, "transform a word and count runs", "word")
    p = command("inverse-bwt", cli.cmd_inverse_bwt, "invert a transform", "word")
    p.add_argument("index", type=int)
    command("apply", cli.cmd_apply, "apply a morphism to a word", "morphism", "word")
    command("compose", cli.cmd_compose, "compose two morphisms (outer after inner)", "outer", "inner")
    command("classify", cli.cmd_classify, "full classification report for a binary morphism", "morphism")
    command("mu-powers", cli.cmd_mu_powers, "classify the primitive words mapped to powers", "morphism")

    p = command("sync", cli.cmd_sync, "factorizations, sync pairs, and delay for one word", "morphism")
    p.add_argument("--word", required=True)

    p = command("decide-delay", cli.cmd_decide_delay, "decide synchronization with finite delay on a scope", "morphism")
    p.add_argument("--scope", required=True, help="full, runs:<a>:<b> (counts or inf), or file:<path>")

    p = command("sensitivity", cli.cmd_sensitivity, "exact additive and multiplicative sensitivity", "morphism")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--table1", action="store_true", help="list per-word rows like the length-5 table")
    p.add_argument("--include-constants", action="store_true", help="maximize over constant words too")

    p = command("experiment", cli.cmd_experiment, "growth experiments as CSV", words=False)
    p.add_argument("kind", choices=("rho", "fib-dollar"))
    p.add_argument("--p", type=int)
    p.add_argument("--k", required=True, help="range like 6..12")

    p = command("reproduce", cli.cmd_reproduce, "regenerate a committed reference output and check it", words=False)
    p.add_argument("target", choices=cli._REPRODUCE)

    return parser


SUBCOMMANDS = (
    "bwt", "inverse-bwt", "apply", "compose", "classify", "mu-powers",
    "sync", "decide-delay", "sensitivity", "experiment", "reproduce",
)


def exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize(
    "argv",
    [("--help",)]
    + [(name, "--help") for name in SUBCOMMANDS]
    + [
        ("--version",),
        ("no-such-command",),
        ("--bogus",),
        ("classify", "thue-morse", "--bogus"),
        ("sync", "thue-morse"),
        ("reproduce", "table2"),
        ("experiment", "sqrt", "--k", "6..8"),
        (),
        ("classify",),
        ("classify", "thue-morse", "--version"),
        ("classify", "thue-morse", "extra"),
        ("classify", "thue-morse", "--=x"),
        ("sensitivity", "thue-morse", "--n-from", "x", "--n-to", "3"),
    ],
    ids=" ".join,
)
def test_help_and_usage_match_the_reference_parser(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    expected = exit_and_output(capsys, lambda a: reference_parser().parse_args(a), list(argv))
    assert exit_and_output(capsys, main, list(argv)) == expected
    assert expected[1] or expected[2]


# One valid argv per subcommand; some values spell another subcommand's name,
# which must not change which parser reads them.
VALID_ARGV = [
    ("bwt", "bwt"),
    ("bwt", "abaababa", "--json", "--alphabet", "ab"),
    ("inverse-bwt", "bbbaaaaa", "3", "--manifest", "m.json"),
    ("apply", "thue-morse", "apply"),
    ("compose", "sync", "classify"),
    ("classify", "a=ab,b=ba", "--json"),
    ("mu-powers", "thue-morse", "--alphabet", "ab"),
    ("sync", "thue-morse", "--word", "sync"),
    ("decide-delay", "period-doubling", "--scope", "runs:1:inf", "--json"),
    ("sensitivity", "thue-morse", "--n-from", "4", "--n-to", "6", "--table1", "--include-constants"),
    ("experiment", "rho", "--p", "2", "--k", "6..8"),
    ("reproduce", "table1", "--manifest", "reproduce"),
    ("experiment", "fib-dollar", "--k", "4"),
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_parses_match_the_reference_parser(argv):
    expected = reference_parser().parse_args(list(argv))
    # The handlers are the same functions, so func compares equal as well.
    assert cli._parse_args(list(argv)) == expected
    assert cli.build_parser().parse_args(list(argv)) == expected


def test_a_subcommand_call_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["classify", "a=ab,b=ba"]) == 0
    assert built == ["bwtmorph classify"]
    built.clear()
    # Top-level help lists every subcommand, so it builds all eleven.
    assert exit_and_output(capsys, main, ["--help"])[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS) == 12


def test_valid_argv_cover_every_subcommand():
    assert {argv[0] for argv in VALID_ARGV} == set(SUBCOMMANDS)
