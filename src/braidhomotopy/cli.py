"""Command-line front door.

Subcommands: ``pres`` emits presentations, ``verify`` runs the oracle
suites, ``reduce`` normalizes single words, ``tc`` enumerates cosets,
``h1`` computes abelianizations.  Exit codes: 0 success or pass, 1
verification failure, 2 usage error, 3 resource overflow (a fixed cap,
or memory or recursion depth running out).  Output is deterministic
byte-for-byte.  ``--output FILE`` gets stdout instead, written only on
exit 0 or 1, and ``tc --table-out FILE`` only on exit 0, so a failed
command leaves FILE as it was.  ``reduce --step-cap`` must be >= 0 for
every oracle; only ``dehornoy`` reads it.

A flag a command does not read is a usage error.  ``pres``, ``tc``, ``h1``
and ``verify purity`` read ``--family F -n N`` and F's flags below, all
required but the bracketed ones, or ``--input`` alone (``h1``, ``purity``).
Every ``verify`` check also reads ``--inject-fault`` and ``--format``.

    surface                -g
    quotient               -g --lh-bound
    goldsmith              --lh-bound [-g 0]
    symmetric              (none)
    pure                   -g --closed|--punctured --lh-bound
    homotopy               -g --closed|--punctured --lh-bound [--with-auxiliary, pres only]
    verify eq31|transport  -n [-g, default 1]
    verify eq32            -n [-g, default 1] [--lh-bound, default 3]
    verify a-expansion     -n -g
"""

from __future__ import annotations

import argparse
import io
import sys

from braidhomotopy.words import ResourceLimitError, format_word, parse_word

# Each command imports the layers it runs, inside the command, so a launch
# loads only those.  A flag whose default is a layer's constant parses as
# None, and the command reads the constant.

# family -> (flags it needs beyond -n, in checking order; other flags it takes;
# constructor of the parsed flags and the ``presentations`` module)
FAMILIES = {
    "surface": (("g",), (), lambda a, pres: pres.surface_braid_presentation(a.n, a.g)),
    "homotopy": (("g", "closed", "lh_bound"), ("with_auxiliary",),
                 lambda a, pres: pres.homotopy_generalized_presentation(
                     a.n, a.g, a.closed, a.lh_bound, bool(getattr(a, "with_auxiliary", None)))),
    "goldsmith": (("lh_bound",), ("g",),
                  lambda a, pres: pres.goldsmith_presentation(a.n, a.lh_bound)),
    "pure": (("g", "closed", "lh_bound"), (),
             lambda a, pres: pres.pure_homotopy_presentation(a.n, a.g, a.closed, a.lh_bound)),
    "symmetric": ((), (), lambda a, pres: pres.symmetric_presentation(a.n)),
    "quotient": (("g", "lh_bound"), (), lambda a, pres: pres.homotopy_quotient(
        pres.surface_braid_presentation(a.n, a.g), a.lh_bound)),
}
_NEEDS = {"g": "-g", "closed": "--closed or --punctured", "lh_bound": "an explicit --lh-bound"}
_FLAGS = dict(_NEEDS, lh_bound="--lh-bound", with_auxiliary="--with-auxiliary")


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):  # -h/--help: the help is the command's stdout
        raise _HelpRequested(self.format_help())


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="braidhomotopy", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p, required=True):
        p.add_argument("--family", required=required, choices=FAMILIES)
        p.add_argument("-n", type=int, required=required, help="number of strands")
        p.add_argument("-g", type=int, default=None, help="genus of the surface")
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--closed", dest="closed", action="store_true", default=None)
        grp.add_argument("--punctured", dest="closed", action="store_false")
        p.add_argument("--lh-bound", type=int, default=None,
                       help="shortlex truncation of the conjugator h (mandatory "
                            "for families with self-commutation relators)")

    p = sub.add_parser("pres", help="construct and print a presentation")
    add_family_flags(p)
    p.add_argument("--with-auxiliary", action="store_true", default=None,
                   help="include redundant generators with their defining relations")
    p.add_argument("--format", choices=["text", "json"], default="text")

    verify_parser = sub.add_parser("verify", help="run a verification suite")
    checks = verify_parser.add_subparsers(dest="check", required=True)
    p = checks.add_parser("purity")
    add_family_flags(p, required=False)
    p.add_argument("--input", default=None, help="verify a serialized presentation (JSON)")
    for check in ("eq31", "eq32", "transport", "a-expansion"):
        p = checks.add_parser(check)
        p.add_argument("-n", type=int, required=True, help="number of strands")
        p.add_argument("-g", type=int, default=1, required=check == "a-expansion")
        if check == "eq32":
            p.add_argument("--lh-bound", type=int, default=None)
    for p in checks.choices.values():
        p.add_argument("--inject-fault", action="store_true",
                       help="corrupt one site on purpose; the suite must fail")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("reduce", help="reduce words / decide triviality")
    p.add_argument("words", nargs="*", help="words in the token grammar; without words "
                                             "or --input, stdin is read, one per line")
    p.add_argument("--oracle", choices=["free", "dehornoy", "magnus"], default="free")
    p.add_argument("--compare", action="store_true",
                   help="compare two crossing words in the left order")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-g", type=int, default=None)
    p.add_argument("--step-cap", type=int, default=None)
    p.add_argument("--input", default=None, help="read words from a file, one per line")

    p = sub.add_parser(
        "tc", help="Todd-Coxeter coset enumeration",
        description="Enumerate cosets of a finitely generated subgroup. Only "
                    "finite-index configurations can close; an infinite-index "
                    "run overflows by design and exits with code 3.")
    add_family_flags(p)
    p.add_argument("--subgroup", choices=["trivial", "pure"], default="trivial",
                   help="'pure' uses the loop/band generating set")
    p.add_argument("--subgroup-word", action="append", default=[],
                   help="extra subgroup generator (token grammar); repeatable")
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--table-out", default=None, help="dump the coset table as CSV")

    p = sub.add_parser("h1", help="abelianization via Smith normal form")
    add_family_flags(p, required=False)
    p.add_argument("--input", default=None, help="presentation JSON instead of flags")
    p.add_argument("--expect", default=None,
                   help="fail (exit 1) unless the result equals this, e.g. 'Z^2 + Z/2'")

    for p in (*sub.choices.values(), *checks.choices.values()):
        if p is not verify_parser:
            p.add_argument("--output", default=None)
    return parser


_PARSER = _build_parser()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _UsageError(message)


def _build_presentation(args):
    from braidhomotopy import presentations

    needs, takes, build = FAMILIES[args.family]
    _require(args.family != "goldsmith" or args.g in (None, 0),
             "goldsmith is the disk case; drop -g")
    for name, flag in _FLAGS.items():
        _require(name in needs + takes or getattr(args, name, None) is None,
                 f"{args.family} takes no {flag}")
    for name in needs:
        _require(getattr(args, name) is not None, f"{args.family} needs {_NEEDS[name]}")
    return build(args, presentations)


def _cmd_pres(args, out, err) -> int:
    from braidhomotopy.presentations import presentation_to_json, presentation_to_text

    p = _build_presentation(args)
    if args.format == "json":
        out.write(presentation_to_json(p))
    else:
        out.write(presentation_to_text(p))
    return 0


def _load_or_build(args):
    if args.input:
        from braidhomotopy.presentations import presentation_from_json

        for name, flag in {"family": "--family", "n": "-n", **_FLAGS}.items():
            _require(getattr(args, name, None) is None, f"--input takes no {flag}")
        with open(args.input, "r", encoding="utf-8") as fh:
            return presentation_from_json(fh.read())
    _require(args.family is not None, "need --family or --input")
    _require(args.n is not None, "need -n")
    return _build_presentation(args)


def _cmd_verify(args, out, err) -> int:
    from braidhomotopy import verify

    if args.check == "purity":
        p = _load_or_build(args)
        report = verify.purity_report(verify.plant_purity_fault(p) if args.inject_fault else p)
    elif args.check == "a-expansion":
        report = verify.loop_expansion_comparison(args.n, args.g, fault=args.inject_fault)
    else:  # only eq32 has --lh-bound
        kind = "lh_free_identity" if args.check == "transport" else args.check
        report = verify.identity_check(kind, args.n, args.g, getattr(args, "lh_bound", None),
                                       args.inject_fault)
    out.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.passed else 1


def _cmd_reduce(args, out, err) -> int:
    from braidhomotopy import handles

    step_cap = handles.DEFAULT_STEP_CAP if args.step_cap is None else args.step_cap
    handles.check_step_cap(step_cap)
    _require(args.n is None or args.n >= 1, f"reduce needs -n >= 1, got {args.n}")
    _require(args.g is None or args.n is not None, "reduce reads -g only with -n")
    _require(args.g is None or args.g >= 0, f"reduce needs -g >= 0, got {args.g}")
    texts = list(args.words)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            texts += [line for line in fh.read().splitlines() if line.strip()]
    elif not texts:
        data = args.stdin if isinstance(args.stdin, bytes) else args.stdin.read()
        texts = [line for line in data.decode("utf-8").splitlines() if line.strip()]
    _require(bool(texts), "no input words")
    words = [parse_word(t, args.n, args.g) for t in texts]
    if args.compare:
        _require(args.oracle == "dehornoy", "--compare needs --oracle dehornoy")
        _require(len(words) == 2, "--compare needs exactly two words")
        verdict = handles.braid_compare(words[0], words[1], step_cap)
        out.write(verdict.value + "\n")
        return 0
    if args.oracle == "magnus":
        from braidhomotopy.magnus import is_rf_trivial
    for w in words:
        if args.oracle == "free":
            out.write(format_word(w) + "\n")
        elif args.oracle == "dehornoy":
            out.write(handles.braid_verdict(w, step_cap) + "\n")
        else:
            verdict = "trivial" if is_rf_trivial(w) else "nontrivial"
            out.write(verdict + "\n")
    return 0


def _cmd_tc(args, out, err) -> int:
    from braidhomotopy.extension import DEFAULT_MAX_COSETS, todd_coxeter
    from braidhomotopy.presentations import expand_gen, pure_generators

    max_cosets = DEFAULT_MAX_COSETS if args.max_cosets is None else args.max_cosets
    p = _build_presentation(args)
    subgroup = []
    if args.subgroup == "pure":
        _require(args.family not in ("symmetric", "pure"),
                 "--subgroup pure is spelled in crossings, which symmetric and pure lack")
        subgroup += [expand_gen(gen, p.n, p.g) for gen in pure_generators(p.n, p.g)]
    subgroup += [parse_word(t, p.n, p.g) for t in args.subgroup_word]
    table = todd_coxeter(p, subgroup, max_cosets)
    if table.status == "overflow":
        err.write(f"overflow after {max_cosets} cosets ({table.coset_count} live)\n")
        return 3
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table.to_csv())
    out.write(f"{table.coset_count}\n")
    return 0


def _cmd_h1(args, out, err) -> int:
    from braidhomotopy import verify

    expected = None if args.expect is None else verify.parse_invariants(args.expect)
    p = _load_or_build(args)
    invariants = verify.h1(p)
    out.write(str(invariants) + "\n")
    if expected is not None and invariants != expected:
        err.write(f"expected {expected}, computed {invariants}\n")
        return 1
    return 0


def run_command(argv: list[str],
                stdin: bytes | io.BufferedIOBase = b"") -> tuple[int, bytes, bytes]:
    """Run one CLI invocation; returns (exit code, stdout, stderr).

    ``stdin`` is the input bytes or a binary stream; a stream is read only
    by ``reduce`` with neither words nor ``--input``.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        args = _PARSER.parse_args(argv, argparse.Namespace(stdin=stdin))
        command = {"pres": _cmd_pres, "verify": _cmd_verify, "reduce": _cmd_reduce,
                   "tc": _cmd_tc, "h1": _cmd_h1}[args.command]
        code = command(args, out, err)
    except _HelpRequested as exc:
        return 0, str(exc).encode("utf-8"), b""
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        code = 2
    except (ResourceLimitError, MemoryError, RecursionError) as exc:
        err.write(f"resource limit: {str(exc) or type(exc).__name__}\n")
        code = 3
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        code = 2
    except OSError as exc:
        err.write(f"i/o error: {exc}\n")
        code = 2
    text = out.getvalue()
    # exits 0 and 1 come only from a parsed command; 2 and 3 leave --output as it was
    if code in (0, 1) and args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            text = ""
        except OSError as exc:
            err.write(f"i/o error: {exc}\n")
            code = 2
    return code, text.encode("utf-8"), err.getvalue().encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        stdin = b"" if sys.stdin is None or sys.stdin.isatty() else sys.stdin.buffer
    except (OSError, ValueError):
        stdin = b""
    code, out, err = run_command(argv, stdin)
    sys.stdout.buffer.write(out)
    sys.stderr.buffer.write(err)
    sys.stdout.flush()
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
