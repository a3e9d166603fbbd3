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
import functools
import hashlib
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from typing import Any, Callable

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
    PowerWordClassification,
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
    if declared is not None:
        return Alphabet(declared)
    letters = sorted({c for t in texts for c in t})
    if not letters:
        letters = ["a", "b"]
    return Alphabet("".join(letters))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(message)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# What each cmd_* handler returns: its payload, the value that --json prints,
# and the function that renders the payload as text; main picks the format.
Result = tuple[Any, Callable[[Any], str]]


def cmd_bwt(args) -> Result:
    alpha = _alphabet_for([args.word], args.alphabet)
    w = alpha.word(args.word)
    _require(len(w) > 0, "bwt needs a non-empty word")
    res = bwt(w)
    runs = [[alpha.letters[s], count] for s, count in rle(res.transformed)]
    payload = {
        "input": args.word,
        "bwt": alpha.render(res.transformed),
        "index": res.primary_index,
        "r": len(runs),
        "rle": runs,
    }
    return payload, lambda p: f"{p['bwt']} (index={p['index']}, r={p['r']})"


def cmd_inverse_bwt(args) -> Result:
    alpha = _alphabet_for([args.word], args.alphabet)
    original = inverse_bwt(alpha.word(args.word), args.index)
    return {"bwt": args.word, "index": args.index, "word": alpha.render(original)}, lambda p: p["word"]


def cmd_apply(args) -> Result:
    parsed = parse_morphism(args.morphism, args.alphabet)
    image = parsed.morphism.apply(parsed.source.word(args.word))
    return {"word": args.word, "image": parsed.target.render(image)}, lambda p: p["image"]


def cmd_compose(args) -> Result:
    outer = parse_morphism(args.outer, args.alphabet)
    # The inner images are words over the outer source letters, so that
    # compose pairs them letter by letter.
    inner = parse_morphism(args.inner, outer.source.letters)
    result = compose(outer.morphism, inner.morphism)
    # Source order of the inner morphism; JSON sorts the keys, the text does not.
    images = {letter: outer.target.render(img) for letter, img in zip(inner.source.letters, result.images)}
    return {"images": images}, lambda p: ",".join(f"{a}={img}" for a, img in p["images"].items())


def _power_words(cls: PowerWordClassification, parsed: ParsedMorphism) -> dict:
    """The `mu-powers` payload of `power_words(m)`; `classify` reports it under `power_`-prefixed keys."""
    _, source, target = parsed
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
    # Binary images commute iff they share one primitive root.
    z = is_cyclic(m)
    out: dict = {"injective": z is None, "cyclic": target.render(z) if z is not None else None}
    if z is not None:
        return out
    out["order_class"] = abelian_order_class(m).value
    out["bifix_status"] = bifix_status(m).value
    out["sturmian"] = is_sturmian(m)
    cls = power_words(m)
    verdict = is_primitivity_preserving(cls)
    out["primitivity_preserving"] = verdict.preserving
    out["pp_witness"] = source.render(verdict.witness) if verdict.witness else None
    out.update((f"power_{key}", value) for key, value in _power_words(cls, parsed).items())
    form = classify_holub_form(cls)
    if form is None:
        out["holub_form"] = None
    else:
        out["holub_form"] = {
            "case": form.case_index,
            "p": target.render(form.p),
            "q": target.render(form.q),
            "exponents": form.exponents,
        }
    rec = is_recognizable(cls)
    out["recognizable"] = rec.recognizable
    out["recognizable_reason"] = rec.reason
    return out


def _classification_text(data: dict) -> str:
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


def cmd_classify(args) -> Result:
    return _classification(parse_morphism(args.morphism, args.alphabet)), _classification_text


def _power_words_text(payload: dict) -> str:
    lines = [f"case: {payload['case']}"]
    lines.append("letters: " + (",".join(payload["letters"]) if payload["letters"] else "none"))
    if payload["rotation_witness"]:
        lines.append(f"rotation-class: {payload['rotation_witness']} (z={payload['z']}, k={payload['k']})")
    return "\n".join(lines)


def cmd_mu_powers(args) -> Result:
    parsed = parse_morphism(args.morphism, args.alphabet)
    m = parsed.morphism
    _require(m.is_binary(), "power-word classification requires a binary source alphabet")
    _require(is_injective_binary(m), "power-word classification requires an injective morphism")
    return _power_words(power_words(m), parsed), _power_words_text


def _sync_text(payload: dict) -> str:
    facts = payload["factorizations"]
    lines = [f"image: {payload['image']}", f"circular factorizations: {len(facts)}"]
    lines.extend(f"  offset {f['offset']}: " + " ".join(f["codewords"]) for f in facts)
    lines.extend(
        f"length {row['length']}: {row['with_pair']}/{row['total']} circular factors admit a synchronization pair"
        for row in payload["factors_with_sync_pair"]
    )
    delay = payload["delay"]
    lines.append(f"delay: {delay if delay is not None else 'none'}")
    return "\n".join(lines)


def cmd_sync(args) -> Result:
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
    payload = {
        "image": target.render(image),
        "factorizations": [
            {"offset": f.rotation_offset, "codewords": [source.letters[c] for c in f.codewords]} for f in facts
        ],
        "delay": delay,
        "factors_with_sync_pair": [
            {
                "length": length,
                "with_pair": sum(1 for f in factors if length >= walked or find_sync_pairs(f, m)),
                "total": len(factors),
            }
            for length, factors in enumerate(by_length)
        ],
    }
    return payload, _sync_text


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
        try:
            lines = [line.strip() for line in data.decode("utf-8").splitlines() if line.strip()]
        except UnicodeDecodeError as exc:
            raise CliError(f"cannot read scope file: {path}: {exc}") from None
        if not lines:
            raise CliError("scope file contains no words")
        return FiniteList(tuple(source.word(line) for line in lines))
    raise CliError(f"unknown scope {text!r}: use full, runs:<a>:<b>, or file:<path>")


def cmd_decide_delay(args) -> Result:
    parsed = parse_morphism(args.morphism, args.alphabet)
    scope = _parse_scope(args.scope, parsed.source, args.input_digests)
    verdict = decide_sync_finite_delay(parsed.morphism, scope)
    payload = {"synchronizing_with_finite_delay": verdict.synchronizing, "reason": verdict.reason}
    return payload, lambda p: (
        f"synchronizing with finite delay: {'yes' if p['synchronizing_with_finite_delay'] else 'no'} ({p['reason']})"
    )


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


def _sensitivity_summary(row: dict) -> str:
    return (
        f"n={row['n']} AS={row['as']} MS={row['ms_num']}/{row['ms_den']} "
        f"as_witness={row['as_witness']} ms_witness={row['ms_witness']}"
    )


def cmd_sensitivity(args) -> Result:
    _require(not (args.table1 and args.json), "--table1 and --json cannot be combined")
    parsed = parse_morphism(args.morphism, args.alphabet)
    _require(args.n_from >= 2, "sensitivity starts at n=2")
    _require(args.n_to >= args.n_from, "--n-to must be at least --n-from")
    ns = range(args.n_from, args.n_to + 1)
    render = parsed.source.render
    rows = [
        {
            "n": row.n,
            "as": row.as_value,
            "ms_num": row.ms_value.numerator,
            "ms_den": row.ms_value.denominator,
            "as_witness": render(row.as_witness),
            "ms_witness": render(row.ms_witness),
        }
        for row in (sensitivity(parsed.morphism, n, include_constant_words=args.include_constants) for n in ns)
    ]
    if args.table1:
        table = [" ".join(map(str, row)) for n in ns for row in _table1_rows(parsed, n)]
        return rows, lambda payload: "\n".join(table + [_sensitivity_summary(row) for row in payload])
    # The CSV columns are the keys of a row, in their order.
    return rows, lambda payload: _csv_string(payload[0], (row.values() for row in payload))


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


def cmd_experiment(args) -> Result:
    ks = _parse_range(args.k)
    if args.kind == "rho":
        _require(args.p is not None and args.p > 1, "rho experiment needs --p greater than 1")
        table = rho_experiment(args.p, ks)
    else:
        _require(args.p is None, "fib-dollar experiment takes no --p")
        table = fibonacci_dollar_experiment(ks)
    return table, _experiment_csv


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
        rec = is_recognizable(power_words(parsed.morphism))
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


def cmd_reproduce(args) -> Result:
    return _REPRODUCE[args.target](), str


# Each subcommand by name: handler, summary, positionals, whether it reads
# words (and so takes --json and --alphabet), and its further arguments as
# (flags, keywords) pairs.
_COMMANDS = {
    "bwt": (cmd_bwt, "transform a word and count runs", ("word",), True, ()),
    "inverse-bwt": (cmd_inverse_bwt, "invert a transform", ("word",), True, ((("index",), {"type": int}),)),
    "apply": (cmd_apply, "apply a morphism to a word", ("morphism", "word"), True, ()),
    "compose": (cmd_compose, "compose two morphisms (outer after inner)", ("outer", "inner"), True, ()),
    "classify": (cmd_classify, "full classification report for a binary morphism", ("morphism",), True, ()),
    "mu-powers": (cmd_mu_powers, "classify the primitive words mapped to powers", ("morphism",), True, ()),
    "sync": (
        cmd_sync, "factorizations, sync pairs, and delay for one word", ("morphism",), True,
        ((("--word",), {"required": True}),),
    ),
    "decide-delay": (
        cmd_decide_delay, "decide synchronization with finite delay on a scope", ("morphism",), True,
        ((("--scope",), {"required": True, "help": "full, runs:<a>:<b> (counts or inf), or file:<path>"}),),
    ),
    "sensitivity": (
        cmd_sensitivity, "exact additive and multiplicative sensitivity", ("morphism",), True,
        (
            (("--n-from",), {"type": int, "required": True}),
            (("--n-to",), {"type": int, "required": True}),
            (("--table1",), {"action": "store_true", "help": "list per-word rows like the length-5 table"}),
            (("--include-constants",), {"action": "store_true", "help": "maximize over constant words too"}),
        ),
    ),
    "experiment": (
        cmd_experiment, "growth experiments as CSV", (), False,
        (
            (("kind",), {"choices": ("rho", "fib-dollar")}),
            (("--p",), {"type": int}),
            (("--k",), {"required": True, "help": "range like 6..12"}),
        ),
    ),
    "reproduce": (
        cmd_reproduce, "regenerate a committed reference output and check it", (), False,
        ((("target",), {"choices": _REPRODUCE}),),
    ),
}


def _fill_subcommand(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add the arguments of subcommand `name`, from its `_COMMANDS` row, to its parser `p`."""
    func, _, positionals, words, extras = _COMMANDS[name]
    if words:
        p.add_argument("--json", action="store_true")
        p.add_argument("--alphabet", help="explicit letter order, e.g. '$ab'")
    p.add_argument("--manifest", help="write a reproducibility manifest to this path")
    for dest in positionals:
        p.add_argument(dest)
    for flags, keywords in extras:
        p.add_argument(*flags, **keywords)
    p.set_defaults(func=func)
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, or given a subcommand name, that subcommand's parser alone.

    The subcommand's parser is the one the full parser dispatches to: the
    full parser takes no positional before the subcommand, so its subparsers
    are named ``bwtmorph <name>``.
    """
    # Every add_argument and every usage or help text builds a formatter,
    # which by default asks the terminal for its width each time; read it
    # once and subtract the 2 columns HelpFormatter itself takes off.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    if command is not None:
        return _fill_subcommand(argparse.ArgumentParser(prog=f"bwtmorph {command}", formatter_class=formatter), command)
    parser = argparse.ArgumentParser(prog="bwtmorph", description=__doc__, formatter_class=formatter)
    parser.add_argument("--version", action="version", version=f"bwtmorph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, *_) in _COMMANDS.items():
        _fill_subcommand(sub.add_parser(name, help=summary, formatter_class=formatter), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the full parser would, building only the subcommand's parser when argv[0] names one.

    This is what the full parser's subparser action does: the subcommand's
    parser parses the tokens after the name into a namespace that holds the
    name. The full parser parses anything else, and argv again when tokens are
    left over, so that argparse reports them with the top-level usage. It
    also parses argv with a token that starts with ``--=``, which it rejects
    before dispatching, as an abbreviation of both --help and --version.
    """
    if argv and argv[0] in _COMMANDS and not any(token.startswith("--=") for token in argv):
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


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
    args = _parse_args(argv)
    args.input_digests = {}  # path -> sha256 of each input file the command reads
    try:
        payload, render = args.func(args)
        output = json.dumps(payload, sort_keys=True) if getattr(args, "json", False) else render(payload)
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for a size, such as rho:10**21.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    try:
        print(output)
        # Flush inside the try, so a reader that closed the pipe early
        # raises here rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe of the signal module's docs: Python flushes stdout again
        # on exit, so point it at devnull to keep that flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        try:
            _write_manifest(manifest_path, argv, getattr(args, "alphabet", None), args.input_digests, output)
        except OSError as exc:
            print(f"error: cannot write manifest: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
