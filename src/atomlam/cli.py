"""Batch command-line front end.

Subcommands: check, reduce, translate, nf, weight, simulate, diagram.
Input is one inline term or a --file; the environment comes from repeated
--env "x:A" flags or an --env-file with one binding per line. Output is
human-readable text or a structured JSON document (--format json); traces
in either format replay step by step, which --verify re-checks before
emitting.

Exit codes: 0 ok, 1 type error (including an environment formula outside
the command's system), 2 parse or usage error (including a step limit that
is not positive), 3 step cap reached, 4 internal invariant violation,
5 input nested too deeply for the interpreter's recursion limit, 6 input
outside a command's domain (a term or formula that is not IPC, a rule the
command does not cover, or no redex of the requested rule).
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (atomic_nf, simulate_step, weight)
from .diagram import build_diagram
from .errors import (AtomlamError, InternalInvariantViolation, NotARedex,
                     NotInSystem, NotIPCFormula, NotIPCTerm, ParseError,
                     RuleNotApplicable, StepLimitExceeded, TypingError)
from .rewriting import ReductionTrace, find_redexes, normalize, replay
from .rules import RuleId, rules_of_system
from .surface import parse_formula, parse_term, print_formula, print_term
from .translate import at_term, rp_term
from .typecheck import Env, SystemId, formula_in_system, typecheck

(EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_CAP, EXIT_INTERNAL, EXIT_DEEP,
 EXIT_DOMAIN) = range(7)


def _env_to_json(env):
    return [[name, print_formula(f)] for name, f in env.items()]


def trace_to_json(command, source, trace: ReductionTrace, truncated=False):
    steps = []
    for i, s in enumerate(trace.steps):
        entry = {"index": i, "rule": s.rule.value, "position": list(s.position),
                 "env": _env_to_json(s.local_env), "term": print_term(s.result)}
        if s.admin:
            entry["admin"] = True
        steps.append(entry)
    return {"command": command, "input": source, "steps": steps,
            "result": print_term(trace.final),
            "fine": all(s.fine for s in trace.steps),
            "truncated": truncated}


def _emit_trace(args, command, source, trace, truncated=False):
    if args.verify and not replay(trace):
        print("internal error: trace does not replay", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(trace_to_json(command, source, trace, truncated), indent=2))
    else:
        print(f"initial: {print_term(trace.initial)}")
        for i, s in enumerate(trace.steps):
            tag = " (administrative)" if s.admin else ""
            print(f"  step {i}: {s.rule.value} at {list(s.position)}{tag}")
            print(f"    -> {print_term(s.result)}")
        print(f"result: {print_term(trace.final)} [{len(trace.steps)} steps]"
              + (" [truncated]" if truncated else ""))
    return EXIT_CAP if truncated else EXIT_OK


def _load_env(args, sys_id):
    """The environment from --env and --env-file; every formula must belong
    to `sys_id`, the system the command reads its input in."""
    pairs = []
    for binding in args.env or []:
        name, _, text = binding.partition(":")
        if not _:
            raise ParseError(f"environment binding needs 'name : formula': {binding!r}")
        pairs.append((name.strip(), parse_formula(text)))
    if getattr(args, "env_file", None):
        with open(args.env_file, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name, _, text = line.partition(":")
                pairs.append((name.strip(), parse_formula(text)))
    for name, formula in pairs:
        if not formula_in_system(formula, sys_id):
            raise NotInSystem(f"environment formula of {name!r} is not in "
                              f"{sys_id.value}: {print_formula(formula)}")
    return Env(pairs)


def _load_term(args):
    sources = [s for s in (args.term, args.file) if s]
    if len(sources) != 1:
        raise ParseError("provide exactly one input: an inline term or --file")
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.term
    return parse_term(text), text.strip()


def _parse_rules(text, sys_id):
    rules = frozenset(RuleId(name.strip()) for name in text.split(","))
    bad = rules - rules_of_system(sys_id)
    if bad:
        raise ParseError("rules not valid for the system: "
                         + ", ".join(sorted(r.value for r in bad)))
    return rules


def _pick_redex(sys_id, env, term, rule, pos):
    candidates = [r for r in find_redexes(sys_id, env, term, {rule})]
    if pos is not None:
        wanted = tuple(int(x) for x in pos.split(",")) if pos else ()
        candidates = [r for r in candidates if r.position == wanted]
    if not candidates:
        raise NotARedex(f"no {rule.value} redex found")
    return min(candidates, key=lambda r: r.position)


def cmd_check(args):
    sys_id = SystemId.parse(args.sys)
    env = _load_env(args, sys_id)
    term, source = _load_term(args)
    formula = typecheck(sys_id, env, term)
    if args.format == "json":
        print(json.dumps({"command": "check", "input": source,
                          "system": sys_id.value,
                          "formula": print_formula(formula)}, indent=2))
    else:
        print(print_formula(formula))
    return EXIT_OK


def cmd_reduce(args):
    sys_id = SystemId.parse(args.sys)
    env = _load_env(args, sys_id)
    term, source = _load_term(args)
    rules = _parse_rules(args.rules, sys_id)
    try:
        trace = normalize(sys_id, env, term, rules, strategy=args.strategy,
                          max_steps=args.max_steps, seed=args.seed)
    except StepLimitExceeded as e:
        return _emit_trace(args, "reduce", source, e.trace, truncated=True)
    return _emit_trace(args, "reduce", source, trace)


def cmd_translate(args):
    term, source = _load_term(args)
    out = rp_term(term) if args.target == "rp" else at_term(term)
    if args.format == "json":
        print(json.dumps({"command": "translate", "input": source,
                          "target": args.target, "result": print_term(out)},
                         indent=2))
    else:
        print(print_term(out))
    return EXIT_OK


def cmd_nf(args):
    env = _load_env(args, SystemId.F)
    term, source = _load_term(args)
    _, trace = atomic_nf(env, term, strategy=args.strategy, seed=args.seed)
    return _emit_trace(args, "nf", source, trace)


def cmd_weight(args):
    env = _load_env(args, SystemId.F)
    term, source = _load_term(args)
    report = weight(env, term)
    if args.format == "json":
        print(json.dumps({
            "command": "weight", "input": source, "total": report.total,
            "contributions": [{"position": list(p), "env": _env_to_json(e),
                               "weight": w}
                              for p, e, w in report.per_pre_redex]}, indent=2))
    else:
        print(f"total weight: {report.total}")
        for p, _, w in report.per_pre_redex:
            print(f"  pre-redex at {list(p)}: {w}")
    return EXIT_OK


def cmd_simulate(args):
    env = _load_env(args, SystemId.IPC)
    term, source = _load_term(args)
    redex = _pick_redex(SystemId.IPC, env, term, RuleId(args.rule), args.pos)
    trace = simulate_step(env, term, redex)
    return _emit_trace(args, "simulate", source, trace)


def cmd_diagram(args):
    env = _load_env(args, SystemId.IPC)
    term, source = _load_term(args)
    redex = _pick_redex(SystemId.IPC, env, term, RuleId(args.rule), args.pos)
    diagram = build_diagram(env, term, redex)
    problems = diagram.verify()
    doc = {
        "command": "diagram", "input": source, "rule": diagram.rule.value,
        "position": list(diagram.position),
        "corners": {name: print_term(diagram.corner(name))
                    for name in ("m_rp", "n_rp", "m_at", "n_at", "q1", "q2")},
        "legs": {name: trace_to_json("leg", name, leg)
                 for name, leg in diagram.legs.items()},
        "notes": diagram.notes,
        "verified": not problems,
        "problems": problems,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"rule {doc['rule']} at {doc['position']}")
        for name in ("m_rp", "n_rp", "m_at", "n_at", "q1", "q2"):
            print(f"  {name}: {doc['corners'][name]}")
        for name, leg in diagram.legs.items():
            kinds = ", ".join(sorted({s.rule.value for s in leg.steps})) or "empty"
            print(f"  leg {name}: {len(leg.steps)} steps ({kinds})")
        for note in diagram.notes:
            print(f"  note: {note}")
        print("verified" if not problems else "PROBLEMS: " + "; ".join(problems))
    return EXIT_OK if not problems else EXIT_INTERNAL


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(p, with_system=True):
    p.add_argument("term", nargs="?", help="inline term")
    p.add_argument("--file", help="read the term from a file")
    p.add_argument("--env", action="append", metavar="x:A",
                   help="environment binding (repeatable)")
    p.add_argument("--env-file", help="file with one binding per line")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verify", action="store_true",
                   help="replay the trace before emitting it")
    if with_system:
        p.add_argument("--sys", choices=("ipc", "f", "fat"), default="ipc")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="atomlam",
        description="proof-term toolkit for IPC, System F and System Fat")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="typecheck a term")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("reduce", help="normalize under a rule set")
    _add_common(p)
    p.add_argument("--rules", required=True,
                   help="comma-separated rule ids (e.g. beta_imp,rho_abort)")
    p.add_argument("--strategy", default="leftmost-outermost",
                   choices=("leftmost-outermost", "leftmost-innermost",
                            "random", "lo", "li"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_positive_int, default=10000)
    p.set_defaults(fn=cmd_reduce)

    p = subs.add_parser("translate", help="translate an IPC term")
    _add_common(p, with_system=False)
    p.add_argument("--target", choices=("rp", "at"), required=True)
    p.set_defaults(fn=cmd_translate)

    p = subs.add_parser("nf", help="atomic normal form of an F term")
    _add_common(p, with_system=False)
    p.add_argument("--strategy", default="leftmost-outermost",
                   choices=("leftmost-outermost", "leftmost-innermost",
                            "random", "lo", "li"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_nf)

    p = subs.add_parser("weight", help="termination weight of an F term")
    _add_common(p, with_system=False)
    p.set_defaults(fn=cmd_weight)

    p = subs.add_parser("simulate",
                        help="translate one IPC step into the F reduction")
    _add_common(p, with_system=False)
    p.add_argument("--rule", required=True)
    p.add_argument("--pos", help="comma-separated redex position (default: first)")
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser("diagram",
                        help="comparison diagram for one IPC step")
    _add_common(p, with_system=False)
    p.add_argument("--rule", required=True)
    p.add_argument("--pos", help="comma-separated redex position (default: first)")
    p.set_defaults(fn=cmd_diagram)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TypingError as e:
        pos = list(getattr(e, "position", ()) or ())
        print(f"type error at {pos}: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_TYPE
    except StepLimitExceeded as e:
        print(f"step limit: {e}", file=sys.stderr)
        return EXIT_CAP
    except InternalInvariantViolation as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NotIPCTerm, NotIPCFormula, RuleNotApplicable, NotARedex) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except AtomlamError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_TYPE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_DEEP


if __name__ == "__main__":
    sys.exit(main())
