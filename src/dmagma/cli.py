"""Command-line interface.

Exit codes are a stable scripting contract: 0 when the run succeeds or the
queried property holds, 1 when a property fails or a counterexample is found,
2 on usage or input errors. Any other failure also exits 2 with a one-line
message, so exit 1 always means a verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .constructions import commutator_double, ring_commutator_double, word_double
from .errors import BudgetExceededError, ParseError, SpecError
from .groups import (
    derived_series,
    derived_subgroup,
    has_exponent_2,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
    parse_group_spec,
)
from .magmas import (
    eckmann_hilton_audit,
    find_identity,
    find_zero,
    is_associative,
    is_commutative,
    is_proper,
    render_csv,
    render_structured,
    render_text,
    satisfies_interchange,
    structured_double,
    superscript_names,
)
from .rings import RING_LAWS, check_ring_law, parse_ring_spec
from .suite import CorpusConfig, run_corpus
from .tables import DEFAULT_EVAL_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED, check_sampling
from .words import BUILTIN_LAWS, builtin_law, check_law_exhaustive, check_law_sampled, parse_law

USAGE_ERROR = 2
PROPERTY_FAILS = 1
OK = 0


def _bool(v: bool) -> str:
    return "true" if v else "false"


def cmd_group(args) -> int:
    g = parse_group_spec(args.spec)
    ds = derived_series(g)
    lcs = lower_central_series(g)
    cls = nilpotency_class(g)
    gprime = derived_subgroup(g)
    try:
        three_m = _bool(check_law_exhaustive(g, builtin_law("3M_I"), args.budget).holds)
    except BudgetExceededError:
        three_m = "unknown (budget exceeded)"
    print(f"spec: {args.spec}")
    print(f"order: {g.order}")
    print(f"abelian: {_bool(g.is_abelian())}")
    print(f"metabelian: {_bool(is_metabelian(g))}")
    print(f"3-metabelian: {three_m}")
    print(f"nilpotency class: {cls if cls is not None else 'not nilpotent'}")
    print(f"derived series sizes: {', '.join(str(len(t)) for t in ds)}")
    print(f"lower central series sizes: {', '.join(str(len(t)) for t in lcs)}")
    print(f"derived subgroup of exponent 2: {_bool(has_exponent_2(gprime))}")
    return OK


def cmd_law(args) -> int:
    if args.sampled:  # refuse the sampling arguments before building the group
        check_sampling(args.samples, args.seed)
    g = parse_group_spec(args.spec)
    if "=" in args.law:
        law = parse_law(args.law)
    else:
        law = builtin_law(args.law)
    if args.sampled:
        verdict = check_law_sampled(g, law, args.samples, args.seed)
    else:
        verdict = check_law_exhaustive(g, law, args.budget)
    print(f"group: {args.spec} (order {g.order})")
    print(f"law: {law}")
    print(f"verdict: {verdict.describe()}")
    return OK if verdict.holds else PROPERTY_FAILS


def _build_double(args):
    sel = args.construction
    if sel == "commutator":
        return commutator_double(parse_group_spec(args.spec))
    if sel.startswith("word:"):
        return word_double(parse_group_spec(args.spec), sel[len("word:"):])
    if sel == "ring-commutator":
        return ring_commutator_double(parse_ring_spec(args.spec))
    raise SpecError(
        f"unknown construction {sel!r} (expected commutator, word:<term>, or ring-commutator)"
    )


def cmd_magma(args) -> int:
    dm = _build_double(args)
    side = dm.star if args.op == "star" else dm.bullet
    if args.check is None:
        if args.format == "text":
            print(render_text(side, superscripts=args.superscripts))
        elif args.format == "csv":
            sys.stdout.write(render_csv(side, superscripts=args.superscripts))
        else:
            doc = structured_double(dm)
            if args.superscripts:
                doc["names"] = superscript_names(doc["names"])
            sys.stdout.write(render_structured(doc))
        return OK

    if args.check == "interchange":
        verdict = satisfies_interchange(dm, args.budget)
        print(f"interchange: {verdict.describe()}")
        return OK if verdict.holds else PROPERTY_FAILS
    if args.check == "proper":
        proper, cell = is_proper(dm)
        if proper:
            x, y = cell
            print(f"proper: operations differ at ({dm.names[x]}, {dm.names[y]})")
            return OK
        print("improper: the two operation tables coincide")
        return PROPERTY_FAILS
    if args.check in ("commutative", "associative"):
        verdict = (is_commutative if args.check == "commutative" else is_associative)(side)
        print(f"{args.op} {args.check}: {verdict.describe()}")
        return OK if verdict.holds else PROPERTY_FAILS
    if args.check in ("identity", "zero"):
        e = (find_identity if args.check == "identity" else find_zero)(side)
        print(f"{args.op} {args.check}: {dm.names[e] if e is not None else 'none'}")
        return OK if e is not None else PROPERTY_FAILS
    # eh-audit
    report = eckmann_hilton_audit(dm, args.budget)
    print(report.summary())
    return OK if report.consistent else PROPERTY_FAILS


def cmd_ring(args) -> int:
    check_sampling(args.samples, args.seed)  # before building the ring
    r = parse_ring_spec(args.spec)
    verdict = check_ring_law(r, args.law, args.budget, args.samples, args.seed)
    print(f"ring: {args.spec} (order {r.order})")
    print(f"law: {args.law}")
    if args.law == "PROPER_WITNESS":
        if verdict.holds:
            scope = "every pair" if verdict.seed is None else "every sampled pair; not a proof"
            print(f"witness: none (2<x,y> = 0 for {scope})")
            return PROPERTY_FAILS
        pair = ", ".join(f"{k}={v}" for k, v in verdict.witness.items())
        print(f"witness: {pair}")
        return OK
    print(f"verdict: {verdict.describe()}")
    return OK if verdict.holds else PROPERTY_FAILS


def cmd_suite(args) -> int:
    if args.config is not None:
        config = CorpusConfig.from_file(args.config)
    else:
        config = CorpusConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(CorpusConfig)
                 if getattr(args, f.name, None) is not None}
    config = dataclasses.replace(config, **overrides)  # validates the overrides too
    start = time.perf_counter()
    report = run_corpus(config)
    elapsed = time.perf_counter() - start
    text = report.to_text(elapsed)
    with open(args.text, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(args.json, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    sys.stdout.write(text)
    print(f"reports written to {args.text} and {args.json}")
    return OK if report.passed else PROPERTY_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmagma",
        description="Construct double magmas from finite groups and rings via "
        "commutation operations and decide their structural laws by brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="inspect a group given by its spec string")
    p.add_argument("spec", help="e.g. dihedral:8, heisenberg:3, perm:(1 2),(1 2 3 4)")
    p.add_argument("--budget", type=int, default=DEFAULT_EVAL_BUDGET)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("law", help="check an equational law on a group")
    p.add_argument("spec")
    p.add_argument(
        "law",
        help=f"a law like '[x,y;x,z]=1' or a registry name ({', '.join(sorted(BUILTIN_LAWS))})",
    )
    p.add_argument("--sampled", action="store_true", help="sample instead of exhausting")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_EVAL_BUDGET)
    p.set_defaults(fn=cmd_law)

    p = sub.add_parser("magma", help="build a double magma; print a table or run a check")
    p.add_argument("spec", help="group spec (or ring spec with ring-commutator)")
    p.add_argument(
        "--construction",
        default="commutator",
        help="commutator | word:<term in a,b> | ring-commutator",
    )
    p.add_argument("--op", choices=("star", "bullet"), default="star")
    p.add_argument("--format", choices=("text", "csv", "structured"), default="text")
    p.add_argument("--superscripts", action="store_true",
                   help="render names like a6 as a⁶")
    p.add_argument(
        "--check",
        choices=("interchange", "proper", "commutative", "associative",
                 "identity", "zero", "eh-audit"),
        help="run a predicate instead of printing the table",
    )
    p.add_argument("--budget", type=int, default=DEFAULT_EVAL_BUDGET)
    p.set_defaults(fn=cmd_magma)

    p = sub.add_parser("ring", help="check a bracket law on a ring")
    p.add_argument("spec", help="zmod:n | matrix:k,n | uppertri:k,n")
    p.add_argument("--law", required=True, choices=RING_LAWS)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_EVAL_BUDGET)
    p.set_defaults(fn=cmd_ring)

    p = sub.add_parser("suite", help="run the verification suite over a corpus")
    p.add_argument("config", nargs="?", help="JSON corpus config (defaults built in)")
    p.add_argument("--checks", type=lambda s: tuple(c.strip() for c in s.split(",")),
                   help="comma-separated check ids to run")
    p.add_argument("--budget", type=int)
    p.add_argument("--samples", type=int, dest="sample_count", metavar="SAMPLES")
    p.add_argument("--seed", type=int)
    p.add_argument("--text", default="dmagma-report.txt", help="human-readable report path")
    p.add_argument("--json", default="dmagma-report.json", help="machine-readable report path")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "suite" and args.budget < 1:  # a suite's config checks its own
            raise ValueError(f"--budget must be at least 1, got {args.budget}")
        return args.fn(args)
    except (ParseError, SpecError, BudgetExceededError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # never let a crash read as exit 1, "property fails"
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
