"""Command line front end: every analysis as a subcommand, deterministic output.

Words are letter strings; the alphabet order defaults to the ASCII order of
the letters that appear and can be overridden with --alphabet (needed for
orders like ``$ < a < b``). Morphisms are named keywords or ``a=ab,b=ba``
text. Data streams carry no timestamps; run metadata goes to the optional
manifest file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

from . import __version__, fixtures
# run_count is unused here, but perfbench/test_perfbench.py checks that the
# tracer wraps this binding of it.
from .bwt import bwt, inverse_bwt, run_count  # noqa: F401
from .morphisms import (
    ParsedMorphism,
    abelian_order_class,
    bifix_status,
    compose,
    factor_through_tau,
    format_morphism,
    is_cyclic,
    is_injective_binary,
    is_sturmian,
    parse_morphism,
)
from .primitivity import (
    classify_holub_form,
    is_primitivity_preserving,
    is_recognizable,
    power_words,
)
from .sensitivity import (
    ExperimentTable,
    fibonacci_dollar_experiment,
    rho_experiment,
    sensitivity,
)
from .syncing import (
    FULL_BINARY,
    BoundedLetterRuns,
    FiniteList,
    circular_factorizations,
    decide_sync_finite_delay,
    find_sync_pairs,
    sync_delay_for_word,
)
from .words import Alphabet, Word, all_circular_factors, constant_words, necklaces, rle


class CliError(ValueError):
    """Domain error surfaced to the user with exit code 1."""


def _alphabet_for(texts: list[str], declared: str | None) -> Alphabet:
    if declared:
        return Alphabet(declared)
    letters = sorted({c for t in texts for c in t})
    if not letters:
        letters = ["a", "b"]
    return Alphabet("".join(letters))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(message)


def _rle_letters(alpha: Alphabet, w: Word) -> list[list]:
    return [[alpha.letters[s], count] for s, count in rle(w)]


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def cmd_bwt(args) -> str:
    alpha = _alphabet_for([args.word], args.alphabet)
    w = alpha.word(args.word)
    _require(len(w) > 0, "bwt needs a non-empty word")
    res = bwt(w)
    r = len(rle(res.transformed))
    if args.json:
        payload = {
            "input": args.word,
            "bwt": alpha.render(res.transformed),
            "index": res.primary_index,
            "r": r,
            "rle": _rle_letters(alpha, res.transformed),
        }
        return json.dumps(payload, sort_keys=True)
    return f"{alpha.render(res.transformed)} (index={res.primary_index}, r={r})"


def cmd_inverse_bwt(args) -> str:
    alpha = _alphabet_for([args.word], args.alphabet)
    w = alpha.word(args.word)
    original = inverse_bwt(w, args.index)
    if args.json:
        return json.dumps({"bwt": args.word, "index": args.index, "word": alpha.render(original)}, sort_keys=True)
    return alpha.render(original)


def cmd_apply(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    w = parsed.source.word(args.word)
    image = parsed.morphism.apply(w)
    rendered = parsed.target.render(image)
    if args.json:
        return json.dumps({"word": args.word, "image": rendered}, sort_keys=True)
    return rendered


def cmd_compose(args) -> str:
    outer = parse_morphism(args.outer, args.alphabet)
    inner = parse_morphism(args.inner, args.alphabet)
    result = compose(outer.morphism, inner.morphism)
    text = format_morphism(result, inner.source, outer.target)
    if args.json:
        pairs = dict(part.split("=", 1) for part in text.split(","))
        return json.dumps({"images": pairs}, sort_keys=True)
    return text


def _power_words(parsed: ParsedMorphism) -> dict:
    """The `mu-powers` payload; `classify` reports it under `power_`-prefixed keys."""
    m, source, target = parsed
    cls = power_words(m)
    return {
        "case": cls.case.value,
        "letters": [source.letters[c] for c in cls.letter_witnesses],
        "rotation_witness": source.render(cls.rotation_witness) if cls.rotation_witness else None,
        "z": target.render(cls.z) if cls.z else None,
        "k": cls.k,
    }


def _classification(parsed: ParsedMorphism) -> dict:
    m, source, target = parsed
    _require(m.is_binary(), "classification requires a binary source alphabet")
    out: dict = {"injective": is_injective_binary(m)}
    z = is_cyclic(m)
    out["cyclic"] = target.render(z) if z is not None else None
    if not out["injective"]:
        return out
    out["order_class"] = abelian_order_class(m).value
    out["bifix_status"] = bifix_status(m).value
    out["sturmian"] = is_sturmian(m)
    verdict = is_primitivity_preserving(m)
    out["primitivity_preserving"] = verdict.preserving
    out["pp_witness"] = source.render(verdict.witness) if verdict.witness else None
    out.update((f"power_{key}", value) for key, value in _power_words(parsed).items())
    form = classify_holub_form(m)
    if form is None:
        out["holub_form"] = None
    else:
        out["holub_form"] = {
            "case": form.case_index,
            "p": target.render(form.p),
            "q": target.render(form.q),
            "exponents": form.exponents,
        }
    rec = is_recognizable(m)
    out["recognizable"] = rec.recognizable
    out["recognizable_reason"] = rec.reason
    return out


def cmd_classify(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    data = _classification(parsed)
    if args.json:
        return json.dumps(data, sort_keys=True)
    lines = [f"injective: {'yes' if data['injective'] else 'no'}"]
    lines.append(f"cyclic: {'yes (z=' + data['cyclic'] + ')' if data['cyclic'] else 'no'}")
    if not data["injective"]:
        return "\n".join(lines)
    lines.append(f"order-class: {data['order_class']}")
    lines.append(f"bifix-status: {data['bifix_status']}")
    lines.append(f"sturmian: {'yes' if data['sturmian'] else 'no'}")
    witness = f" (witness={data['pp_witness']})" if data["pp_witness"] else ""
    lines.append(f"primitivity-preserving: {'yes' if data['primitivity_preserving'] else 'no'}{witness}")
    details = []
    if data["power_letters"]:
        details.append("letters=" + ",".join(data["power_letters"]))
    if data["power_rotation_witness"]:
        details.append(f"rotation-class={data['power_rotation_witness']}")
        details.append(f"z={data['power_z']}")
        details.append(f"k={data['power_k']}")
    suffix = f" ({'; '.join(details)})" if details else ""
    lines.append(f"power-words: case {data['power_case']}{suffix}")
    if data["holub_form"] is None:
        lines.append("holub-form: none")
    else:
        hf = data["holub_form"]
        exps = ", ".join(f"{k}={v}" for k, v in sorted(hf["exponents"].items()))
        lines.append(f"holub-form: case {hf['case']} (p={hf['p']}, q={hf['q']}, {exps})")
    lines.append(
        f"recognizable: {'yes' if data['recognizable'] else 'no'} ({data['recognizable_reason']})"
    )
    return "\n".join(lines)


def cmd_mu_powers(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    m = parsed.morphism
    _require(m.is_binary(), "power-word classification requires a binary source alphabet")
    _require(is_injective_binary(m), "power-word classification requires an injective morphism")
    payload = _power_words(parsed)
    if args.json:
        return json.dumps(payload, sort_keys=True)
    lines = [f"case: {payload['case']}"]
    lines.append("letters: " + (",".join(payload["letters"]) if payload["letters"] else "none"))
    if payload["rotation_witness"]:
        lines.append(f"rotation-class: {payload['rotation_witness']} (z={payload['z']}, k={payload['k']})")
    return "\n".join(lines)


def cmd_sync(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    m, source, target = parsed
    w = parsed.source.word(args.word)
    _require(len(w) > 0, "sync needs a non-empty word")
    image = m.apply(w)
    facts = circular_factorizations(image, m)
    delay = sync_delay_for_word(m, w)
    by_length: list[list[Word]] = [[] for _ in range(len(image) + 1)]
    for f in all_circular_factors(image):
        by_length[len(f)].append(f)
    # A factor at least as long as the delay has a pair by the delay's definition.
    walked = len(by_length) if delay is None else delay
    per_length = [
        (length, sum(1 for f in factors if length >= walked or find_sync_pairs(f, m, FULL_BINARY)), len(factors))
        for length, factors in enumerate(by_length)
    ]
    if args.json:
        payload = {
            "image": target.render(image),
            "factorizations": [
                {"offset": f.rotation_offset, "codewords": [source.letters[c] for c in f.codewords]}
                for f in facts
            ],
            "delay": delay,
            "factors_with_sync_pair": [
                {"length": length, "with_pair": got, "total": total} for length, got, total in per_length
            ],
        }
        return json.dumps(payload, sort_keys=True)
    lines = [f"image: {target.render(image)}"]
    lines.append(f"circular factorizations: {len(facts)}")
    for f in facts:
        lines.append(f"  offset {f.rotation_offset}: " + " ".join(source.letters[c] for c in f.codewords))
    for length, got, total in per_length:
        lines.append(f"length {length}: {got}/{total} circular factors admit a synchronization pair")
    lines.append(f"delay: {delay if delay is not None else 'none'}")
    return "\n".join(lines)


def _parse_scope(text: str, source: Alphabet, digests: dict[str, str]):
    if text == "full":
        return FULL_BINARY
    if text.startswith("runs:"):
        parts = text.split(":")
        if len(parts) != 3 or not all(p == "inf" or p.isdecimal() for p in parts[1:]):
            raise CliError(f"bad scope {text!r}: use runs:<a>:<b> with non-negative counts or inf")
        bounds = [None if p == "inf" else int(p) for p in parts[1:]]
        return BoundedLetterRuns(bounds[0], bounds[1])
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read scope file: {exc}") from None
        digests[path] = hashlib.sha256(data).hexdigest()
        lines = [line.strip() for line in data.decode("utf-8").splitlines() if line.strip()]
        if not lines:
            raise CliError("scope file contains no words")
        return FiniteList(tuple(source.word(line) for line in lines))
    raise CliError(f"unknown scope {text!r}: use full, runs:<a>:<b>, or file:<path>")


def cmd_decide_delay(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    scope = _parse_scope(args.scope, parsed.source, args.input_digests)
    verdict = decide_sync_finite_delay(parsed.morphism, scope)
    if args.json:
        return json.dumps(
            {"synchronizing_with_finite_delay": verdict.synchronizing, "reason": verdict.reason},
            sort_keys=True,
        )
    return f"synchronizing with finite delay: {'yes' if verdict.synchronizing else 'no'} ({verdict.reason})"


def _csv_string(headers, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _table1_rows(parsed: ParsedMorphism, n: int) -> list[tuple]:
    """Columns w, bwt(w), r(w), image, bwt(image), r(image) per non-constant necklace of length n."""
    m, source, target = parsed
    rows = []
    constant = constant_words(m.source_size, n)
    for w in necklaces(m.source_size, n):
        if w in constant:
            continue
        image = m.apply(w)
        transform = bwt(w).transformed
        image_transform = bwt(image).transformed
        rows.append(
            (
                source.render(w),
                source.render(transform),
                len(rle(transform)),
                target.render(image),
                target.render(image_transform),
                len(rle(image_transform)),
            )
        )
    return rows


def cmd_sensitivity(args) -> str:
    parsed = parse_morphism(args.morphism, args.alphabet)
    _require(args.n_from >= 2, "sensitivity starts at n=2")
    _require(args.n_to >= args.n_from, "--n-to must be at least --n-from")
    ns = range(args.n_from, args.n_to + 1)
    rows = [sensitivity(parsed.morphism, n, include_constant_words=args.include_constants) for n in ns]
    source = parsed.source
    if args.table1:
        lines = [" ".join(map(str, row)) for n in ns for row in _table1_rows(parsed, n)]
        for row in rows:
            lines.append(
                f"n={row.n} AS={row.as_value} MS={_fraction_str(row.ms_value)} "
                f"as_witness={source.render(row.as_witness)} ms_witness={source.render(row.ms_witness)}"
            )
        return "\n".join(lines)
    if args.json:
        payload = [
            {
                "n": row.n,
                "as": row.as_value,
                "ms_num": row.ms_value.numerator,
                "ms_den": row.ms_value.denominator,
                "as_witness": source.render(row.as_witness),
                "ms_witness": source.render(row.ms_witness),
            }
            for row in rows
        ]
        return json.dumps(payload, sort_keys=True)
    table = [
        (
            row.n,
            row.as_value,
            row.ms_value.numerator,
            row.ms_value.denominator,
            source.render(row.as_witness),
            source.render(row.ms_witness),
        )
        for row in rows
    ]
    return _csv_string(("n", "as", "ms_num", "ms_den", "as_witness", "ms_witness"), table)


def _parse_range(text: str) -> range:
    low, dots, high = text.partition("..")
    try:
        ks = range(int(low), int(high if dots else low) + 1)
    except ValueError:
        raise CliError(f"bad --k {text!r}: use <k> or <low>..<high> with integers") from None
    _require(len(ks) > 0, f"empty --k range {text!r}: the low end exceeds the high end")
    return ks


def _experiment_csv(table: ExperimentTable) -> str:
    rows = [
        tuple(_fraction_str(v) if isinstance(v, Fraction) else v for v in row)
        for row in table.rows
    ]
    return _csv_string(table.headers, rows)


def cmd_experiment(args) -> str:
    ks = _parse_range(args.k)
    if args.kind == "rho":
        _require(args.p is not None and args.p > 1, "rho experiment needs --p greater than 1")
        table = rho_experiment(args.p, ks)
    else:
        table = fibonacci_dollar_experiment(ks)
    return _experiment_csv(table)


def _reproduce_table1() -> str:
    parsed = parse_morphism("period-doubling")
    computed = _table1_rows(parsed, 5)
    if tuple(computed) != fixtures.TABLE1:
        raise CliError("recomputed table differs from the committed fixture")
    row5 = sensitivity(parsed.morphism, 5)
    summary = f"AS_pi(5)={row5.as_value} MS_pi(5)={_fraction_str(row5.ms_value).removesuffix('/1')}"
    if summary != fixtures.TABLE1_SUMMARY:
        raise CliError("recomputed sensitivity summary differs from the committed fixture")
    lines = [" ".join(map(str, row)) for row in computed]
    return "\n".join(lines + [summary, "fixture match: ok"])


def _reproduce_figures() -> str:
    lines = []
    counts = []
    for text, word, expected in fixtures.FIGURE_FACTORIZATIONS:
        parsed = parse_morphism(text)
        w = parsed.source.word(word)
        facts = circular_factorizations(w, parsed.morphism)
        counts.append(len(facts))
        rec = is_recognizable(parsed.morphism)
        tau_split = factor_through_tau(parsed.morphism)
        psi = format_morphism(tau_split, parsed.source, parsed.target) if tau_split else "none"
        lines.append(
            f"{text} on {word}: factorizations={len(facts)} (expected {expected}) "
            f"recognizable={'yes' if rec.recognizable else 'no'} tau-factor={psi}"
        )
        if len(facts) != expected:
            raise CliError(f"factorization count for {word} differs from the committed fixture")
    lines.append(f"counts: {tuple(counts)}")
    lines.append("fixture match: ok")
    return "\n".join(lines)


def _reproduce_rho_sqrt() -> str:
    table = rho_experiment(2, range(6, 13))
    deltas = [row[3] for row in table.rows]
    for (k, _, _, delta, _) in table.rows:
        if delta < 2 * (k - 2):
            raise CliError(f"additive delta at k={k} fell below 2(k-2)")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise CliError("additive delta is not strictly increasing in k")
    return _experiment_csv(table) + "\nbound check: ok"


def _reproduce_fib_dollar() -> str:
    table = fibonacci_dollar_experiment([4, 6, 8, 10])
    ratios = [row[3] for row in table.rows]
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise CliError("run-count ratio is not strictly increasing in k")
    return _experiment_csv(table) + "\nratio check: ok"


_REPRODUCE = {
    "table1": _reproduce_table1,
    "rho-sqrt": _reproduce_rho_sqrt,
    "fib-dollar": _reproduce_fib_dollar,
    "figures-2-3": _reproduce_figures,
}


def cmd_reproduce(args) -> str:
    return _REPRODUCE[args.target]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bwtmorph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bwtmorph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *positionals: str, words: bool = True) -> argparse.ArgumentParser:
        """A subcommand with --manifest, and --json and --alphabet when it reads words."""
        p = sub.add_parser(name, help=summary)
        for dest in positionals:
            p.add_argument(dest)
        if words:
            p.add_argument("--json", action="store_true")
            p.add_argument("--alphabet", help="explicit letter order, e.g. '$ab'")
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
        p.set_defaults(func=func)
        return p

    command("bwt", cmd_bwt, "transform a word and count runs", "word")
    p = command("inverse-bwt", cmd_inverse_bwt, "invert a transform", "word")
    p.add_argument("index", type=int)
    command("apply", cmd_apply, "apply a morphism to a word", "morphism", "word")
    command("compose", cmd_compose, "compose two morphisms (outer after inner)", "outer", "inner")
    command("classify", cmd_classify, "full classification report for a binary morphism", "morphism")
    command("mu-powers", cmd_mu_powers, "classify the primitive words mapped to powers", "morphism")

    p = command("sync", cmd_sync, "factorizations, sync pairs, and delay for one word", "morphism")
    p.add_argument("--word", required=True)

    p = command("decide-delay", cmd_decide_delay, "decide synchronization with finite delay on a scope", "morphism")
    p.add_argument("--scope", required=True, help="full, runs:<a>:<b> (counts or inf), or file:<path>")

    p = command("sensitivity", cmd_sensitivity, "exact additive and multiplicative sensitivity", "morphism")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--table1", action="store_true", help="list per-word rows like the length-5 table")
    p.add_argument("--include-constants", action="store_true", help="maximize over constant words too")

    p = command("experiment", cmd_experiment, "growth experiments as CSV", words=False)
    p.add_argument("kind", choices=("rho", "fib-dollar"))
    p.add_argument("--p", type=int)
    p.add_argument("--k", required=True, help="range like 6..12")

    p = command("reproduce", cmd_reproduce, "regenerate a committed reference output and check it", words=False)
    p.add_argument("target", choices=_REPRODUCE)

    return parser


def _write_manifest(path: str, argv: list[str], alphabet: str | None, inputs: dict[str, str], output: str) -> None:
    manifest = {
        "argv": argv,
        "version": __version__,
        "alphabet": alphabet,
        "input_digests": inputs,
        "output_digest": hashlib.sha256(output.encode("utf-8")).hexdigest(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.input_digests = {}  # path -> sha256 of each input file the command reads
    try:
        output = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        _write_manifest(manifest_path, argv, getattr(args, "alphabet", None), args.input_digests, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
