import json
import os

import jsonschema
import pytest

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


def test_apply_and_compose(capsys):
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "aaaab")
    assert (code, out.strip()) == (0, "ababababaa")
    code, out, _ = run_cli(capsys, "apply", "period-doubling", "")
    assert (code, out.strip()) == (0, "")
    code, out, _ = run_cli(capsys, "compose", "period-doubling", "thue-morse")
    assert (code, out.strip()) == (0, "a=abaa,b=aaab")


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
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), argv
    with pytest.raises(SystemExit) as exc:
        main(["bwt"])
    assert exc.value.code == 2
    capsys.readouterr()
