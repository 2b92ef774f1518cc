"""Command-line front door.

Subcommands: ``pres`` emits presentations, ``verify`` runs the oracle
suites, ``reduce`` normalizes single words, ``tc`` enumerates cosets,
``h1`` computes abelianizations.  Exit codes: 0 success or pass, 1
verification failure, 2 usage error, 3 resource overflow (a fixed cap,
or memory or recursion depth running out).  Output is deterministic
byte-for-byte.  ``--output FILE`` gets stdout instead, written only on
exit 0 or 1, so a failed command leaves FILE as it was.  Families with
self-commutation relator streams need an explicit ``--lh-bound``; only
``verify eq32`` reads it without a family, defaulting to 3.  ``reduce
--step-cap`` must be >= 0 for every oracle; only ``dehornoy`` reads it.
"""

from __future__ import annotations

import argparse
import sys
from typing import BinaryIO

from braidhomotopy import extension as ext
from braidhomotopy import handles, magnus, presentations as pres, verify
from braidhomotopy.words import ResourceLimitError, format_word, parse_word


# family -> (the arguments it needs beyond -n, checked in this order; constructor)
FAMILIES = {
    "surface": (("g",), lambda a: pres.surface_braid_presentation(a.n, a.g)),
    "homotopy": (("g", "closed", "lh_bound"), lambda a: pres.homotopy_generalized_presentation(
        a.n, a.g, a.closed, a.lh_bound, with_auxiliary=getattr(a, "with_auxiliary", False))),
    "goldsmith": (("lh_bound",), lambda a: pres.goldsmith_presentation(a.n, a.lh_bound)),
    "pure": (("g", "closed", "lh_bound"),
             lambda a: pres.pure_homotopy_presentation(a.n, a.g, a.closed, a.lh_bound)),
    "symmetric": ((), lambda a: pres.symmetric_presentation(a.n)),
    "quotient": (("g", "lh_bound"), lambda a: pres.homotopy_quotient(
        pres.surface_braid_presentation(a.n, a.g), a.lh_bound)),
}
_NEEDS = {"g": "-g", "closed": "--closed or --punctured", "lh_bound": "an explicit --lh-bound"}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="braidhomotopy", description=__doc__)
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
    p.add_argument("--with-auxiliary", action="store_true",
                   help="include redundant generators with their defining relations")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("check", choices=["purity", "eq31", "eq32", "transport", "a-expansion"])
    add_family_flags(p, required=False)
    p.add_argument("--input", default=None, help="verify a serialized presentation (JSON)")
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
    p.add_argument("--step-cap", type=int, default=handles.DEFAULT_STEP_CAP)
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
    p.add_argument("--max-cosets", type=int, default=ext.DEFAULT_MAX_COSETS)
    p.add_argument("--table-out", default=None, help="dump the coset table as CSV")

    p = sub.add_parser("h1", help="abelianization via Smith normal form")
    add_family_flags(p, required=False)
    p.add_argument("--input", default=None, help="presentation JSON instead of flags")
    p.add_argument("--expect", default=None,
                   help="fail (exit 1) unless the result equals this, e.g. 'Z^2 + Z/2'")

    for p in sub.choices.values():
        p.add_argument("--output", default=None)
    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _UsageError(message)


def _build_presentation(args) -> pres.Presentation:
    needs, build = FAMILIES[args.family]
    _require(args.family != "goldsmith" or args.g in (None, 0),
             "goldsmith is the disk case; drop -g")
    for name in needs:
        _require(getattr(args, name) is not None, f"{args.family} needs {_NEEDS[name]}")
    return build(args)


def _cmd_pres(args, out, err) -> int:
    p = _build_presentation(args)
    if args.format == "json":
        out.write(pres.presentation_to_json(p))
    else:
        out.write(pres.presentation_to_text(p))
    return 0


def _load_or_build(args) -> pres.Presentation:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return pres.presentation_from_json(fh.read())
    _require(args.family is not None, "need --family or --input")
    _require(args.n is not None, "need -n")
    return _build_presentation(args)


def _cmd_verify(args, out, err) -> int:
    if args.check == "purity":
        p = _load_or_build(args)
        if args.inject_fault:
            crossing = next((gen for gen in p.generators if gen.kind == "s"), None)
            _require(crossing is not None,
                     "purity fault injection needs a crossing generator")
            fault = pres.Word(((crossing, 1),), (p.n, p.g))
            p = p.with_relator("FAULT", fault)
        report = verify.purity_report(p)
    elif args.check == "a-expansion":
        _require(args.n is not None and args.g is not None, "a-expansion needs -n and -g")
        report = verify.loop_expansion_comparison(args.n, args.g, fault=args.inject_fault)
    else:
        _require(args.n is not None, "identity checks need -n")
        kind = {"eq31": "eq31", "eq32": "eq32", "transport": "lh_free_identity"}[args.check]
        bound = verify.DEFAULT_IDENTITY_BOUND if args.lh_bound is None else args.lh_bound
        report = verify.identity_check(kind, args.n, 1 if args.g is None else args.g, bound,
                                       fault=args.inject_fault)
    out.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.passed else 1


def _cmd_reduce(args, out, err) -> int:
    handles.check_step_cap(args.step_cap)
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
        verdict = handles.braid_compare(words[0], words[1], args.step_cap)
        out.write(verdict.value + "\n")
        return 0
    for w in words:
        if args.oracle == "free":
            out.write(format_word(w) + "\n")
        elif args.oracle == "dehornoy":
            out.write(handles.braid_verdict(w, args.step_cap) + "\n")
        else:
            verdict = "trivial" if magnus.is_rf_trivial(w) else "nontrivial"
            out.write(verdict + "\n")
    return 0


def _cmd_tc(args, out, err) -> int:
    p = _build_presentation(args)
    subgroup = []
    if args.subgroup == "pure":
        _require(p.g is not None and p.g >= 1, "--subgroup pure needs a surface family")
        n, g = p.n, p.g
        subgroup += [pres.expand_a(i, r, n, g) for i in range(1, n + 1)
                     for r in range(1, 2 * g + 1)]
        subgroup += [pres.expand_t(i, j, n, g) for i in range(1, n)
                     for j in range(i + 1, n + 1)]
    subgroup += [parse_word(t, p.n, p.g) for t in args.subgroup_word]
    table = ext.todd_coxeter(p, subgroup, args.max_cosets)
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table.to_csv())
    if table.status == "overflow":
        err.write(f"overflow after {args.max_cosets} cosets ({table.coset_count} live)\n")
        return 3
    out.write(f"{table.coset_count}\n")
    return 0


def _cmd_h1(args, out, err) -> int:
    expected = None if args.expect is None else verify.parse_invariants(args.expect)
    p = _load_or_build(args)
    invariants = verify.h1(p)
    out.write(str(invariants) + "\n")
    if expected is not None and invariants != expected:
        err.write(f"expected {expected}, computed {invariants}\n")
        return 1
    return 0


def run_command(argv: list[str], stdin: bytes | BinaryIO = b"") -> tuple[int, bytes, bytes]:
    """Run one CLI invocation; returns (exit code, stdout, stderr).

    ``stdin`` is the input bytes or a binary stream; a stream is read only
    by ``reduce`` with neither words nor ``--input``.
    """
    import io

    out, err = io.StringIO(), io.StringIO()
    parser = _build_parser()
    code = 0
    try:
        args = parser.parse_args(argv, argparse.Namespace(stdin=stdin))
        command = {"pres": _cmd_pres, "verify": _cmd_verify, "reduce": _cmd_reduce,
                   "tc": _cmd_tc, "h1": _cmd_h1}[args.command]
        code = command(args, out, err)
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
