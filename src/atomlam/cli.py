"""Batch command-line front end: one loader, the subcommands, one renderer.

Subcommands: check, reduce, translate, nf, weight, simulate, diagram. The
loader reads the environment, in the system the subcommand declares, from
repeated --env "x:A" flags and an --env-file with one binding per line (a
name, which is an identifier and not a keyword, a colon and a formula),
and then one inline term or a --file. The renderer prints the result as
text or as a JSON document (--format json) that opens with the command and
its input; traces in either format replay step by step, which --verify
re-checks before emitting.

Exit codes: 0 ok, 1 type error (including an environment formula outside
the command's system and a name bound twice), 2 parse or usage error
(including a malformed binding, a step limit that is not positive and a
--file or --env-file that cannot be read), 3 step cap reached, 4 internal
invariant violation, 5 input nested too deeply for the interpreter's
recursion limit, 6 input outside a command's domain (a term or formula
that is not IPC, a rule the command does not cover, or no redex of the
requested rule).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import (atomic_nf, simulate_step, weight)
from .diagram import build_diagram
from .errors import (AtomlamError, InternalInvariantViolation, NotARedex,
                     NotInSystem, NotIPCFormula, NotIPCTerm, ParseError,
                     RuleNotApplicable, StepLimitExceeded, TypingError)
from .rewriting import (STRATEGIES, _STRATEGY_ALIASES, ReductionTrace,
                        find_redexes, normalize, replay)
from .rules import RuleId
from .surface import _lex, parse_formula, parse_term, print_formula, print_term
from .translate import at_term, rp_term
from .typecheck import Env, SystemId, formula_in_system, typecheck

(EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_CAP, EXIT_INTERNAL, EXIT_DEEP,
 EXIT_DOMAIN) = range(7)

def _env_to_json(env):
    return [[name, print_formula(f)] for name, f in env.items()]


def trace_to_json(trace: ReductionTrace, truncated=False):
    """A trace's JSON fields: its steps, result, fineness and truncation."""
    steps = []
    for i, s in enumerate(trace.steps):
        entry = {"index": i, "rule": s.rule.value, "position": list(s.position),
                 "env": _env_to_json(s.local_env), "term": print_term(s.result)}
        if s.admin:
            entry["admin"] = True
        steps.append(entry)
    return {"steps": steps, "result": print_term(trace.final),
            "fine": all(s.fine for s in trace.steps), "truncated": truncated}


def _trace_lines(trace, truncated):
    yield f"initial: {print_term(trace.initial)}"
    for i, s in enumerate(trace.steps):
        tag = " (administrative)" if s.admin else ""
        yield f"  step {i}: {s.rule.value} at {list(s.position)}{tag}"
        yield f"    -> {print_term(s.result)}"
    yield (f"result: {print_term(trace.final)} [{len(trace.steps)} steps]"
           + (" [truncated]" if truncated else ""))


class _Unreadable(Exception):
    """An input file that cannot be read (a usage error)."""


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Unreadable(f"cannot read {path!r}: {e.strerror or e}") from e


def _binding(text):
    """(name, formula) of `name : formula`, whose name the lexer reads as
    one identifier that is not a keyword; a usage error otherwise."""
    name, colon, formula = text.partition(":")
    try:
        kinds = [kind for kind, _, _ in _lex(name)]
    except ParseError:
        kinds = []
    if not colon or kinds != ["ident", "eof"]:
        raise ParseError(f"environment binding needs 'name : formula': {text!r}")
    return name.strip(), parse_formula(formula)


def _load(args):
    """(environment, term, source text). The environment, from --env and
    then --env-file, is read first, in the system the subcommand declares
    (none for translate); every formula must belong to it."""
    env = None
    if args.system is not None:
        pairs = [_binding(b) for b in args.env or []]
        if args.env_file:
            lines = (line.strip() for line in _read(args.env_file).splitlines())
            pairs += [_binding(line) for line in lines
                      if line and not line.startswith("#")]
        sys_id = SystemId(args.system)
        for name, formula in pairs:
            if not formula_in_system(formula, sys_id):
                raise NotInSystem(f"environment formula of {name!r} is not in "
                                  f"{sys_id.value}: {print_formula(formula)}")
        env = Env(pairs)
    sources = [s for s in (args.term, args.file) if s]
    if len(sources) != 1:
        raise ParseError("provide exactly one input: an inline term or --file")
    text = _read(args.file) if args.file else args.term
    return env, parse_term(text), text.strip()


def _render(args, source, result):
    """Print a command's result and return its exit code. A trace comes as
    (trace, whether the step cap cut it short) and is replayed first under
    --verify; any other result as (JSON fields, text lines, exit code)."""
    if isinstance(result[0], ReductionTrace):
        trace, truncated = result
        if args.verify and not replay(trace):
            print("internal error: trace does not replay", file=sys.stderr)
            return EXIT_INTERNAL
        result = (trace_to_json(trace, truncated) if args.format == "json"
                  else None, _trace_lines(trace, truncated),
                  EXIT_CAP if truncated else EXIT_OK)
    fields, lines, code = result
    print(_json({"command": args.command, "input": source, **fields})
          if args.format == "json" else "\n".join(lines))
    return code


def _json(value, indent=""):
    """json.dumps(value, indent=2) for the dicts, lists and scalars a
    command prints, each scalar through json.dumps. json.dumps with an
    indent runs the pure-Python encoder, whose closures refer to each
    other and leave a reference cycle per document."""
    if not value or value.__class__ not in (dict, list, tuple):
        return json.dumps(value)
    inner = indent + "  "
    if value.__class__ is dict:
        items = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        items = [_json(v, inner) for v in value]
        opening, closing = "[", "]"
    body = f",\n{inner}".join(items)
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def _pick_redex(args, env, term):
    rule = RuleId(args.rule)
    candidates = find_redexes(SystemId.IPC, env, term, {rule})
    if args.pos is not None:
        wanted = tuple(int(x) for x in args.pos.split(",")) if args.pos else ()
        candidates = [r for r in candidates if r.position == wanted]
    if not candidates:
        raise NotARedex(f"no {rule.value} redex found")
    return min(candidates, key=lambda r: r.position)


def cmd_check(args, env, term):
    formula = print_formula(typecheck(SystemId(args.system), env, term))
    return {"system": args.system, "formula": formula}, [formula], EXIT_OK


def cmd_reduce(args, env, term):
    # normalize checks that the rules belong to the system
    rules = [name.strip() for name in args.rules.split(",")]
    try:
        return normalize(SystemId(args.system), env, term, rules,
                         strategy=args.strategy, max_steps=args.max_steps,
                         seed=args.seed), False
    except StepLimitExceeded as e:
        return e.trace, True


def cmd_translate(args, env, term):
    out = print_term(rp_term(term) if args.target == "rp" else at_term(term))
    return {"target": args.target, "result": out}, [out], EXIT_OK


def cmd_nf(args, env, term):
    return atomic_nf(env, term, strategy=args.strategy, seed=args.seed)[1], False


def cmd_weight(args, env, term):
    report = weight(env, term)
    fields = {"total": report.total,
              "contributions": [{"position": list(p), "env": _env_to_json(e),
                                 "weight": w}
                                for p, e, w in report.per_pre_redex]}
    lines = [f"total weight: {report.total}"] + [
        f"  pre-redex at {list(p)}: {w}" for p, _, w in report.per_pre_redex]
    return fields, lines, EXIT_OK


def cmd_simulate(args, env, term):
    return simulate_step(env, term, _pick_redex(args, env, term)), False


def cmd_diagram(args, env, term):
    diagram = build_diagram(env, term, _pick_redex(args, env, term))
    problems = diagram.verify()
    corners = {name: print_term(diagram.corner(name))
               for name in ("m_rp", "n_rp", "m_at", "n_at", "q1", "q2")}
    fields = {
        "rule": diagram.rule.value, "position": list(diagram.position),
        "corners": corners,
        "legs": {name: {"command": "leg", "input": name, **trace_to_json(leg)}
                 for name, leg in diagram.legs.items()},
        "notes": diagram.notes, "verified": not problems, "problems": problems}
    lines = [f"rule {fields['rule']} at {fields['position']}"]
    lines += [f"  {name}: {corner}" for name, corner in corners.items()]
    for name, leg in diagram.legs.items():
        kinds = ", ".join(sorted({s.rule.value for s in leg.steps})) or "empty"
        lines.append(f"  leg {name}: {len(leg.steps)} steps ({kinds})")
    lines += [f"  note: {note}" for note in diagram.notes]
    lines.append("verified" if not problems else "PROBLEMS: " + "; ".join(problems))
    return fields, lines, EXIT_INTERNAL if problems else EXIT_OK


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_strategy(p):
    p.add_argument("--strategy", default="leftmost-outermost",
                   choices=STRATEGIES + tuple(_STRATEGY_ALIASES))
    p.add_argument("--seed", type=int, default=0)


def _add_redex(p):
    p.add_argument("--rule", required=True)
    p.add_argument("--pos", help="comma-separated redex position (default: first)")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every later
    call: parsing keeps its results in a fresh namespace and changes no
    state of the parser."""
    parser = argparse.ArgumentParser(
        prog="atomlam",
        description="proof-term toolkit for IPC, System F and System Fat")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, system):
        """A subcommand reading its environment in `system`: "ipc" or "f",
        "--sys" for the flag's choice, or None for no environment."""
        p = subs.add_parser(name, help=summary)
        p.add_argument("term", nargs="?", help="inline term")
        p.add_argument("--file", help="read the term from a file")
        p.add_argument("--env", action="append", metavar="x:A",
                       help="environment binding (repeatable)")
        p.add_argument("--env-file", help="file with one binding per line")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--verify", action="store_true",
                       help="replay the trace before emitting it")
        if system == "--sys":
            p.add_argument("--sys", dest="system", choices=("ipc", "f", "fat"),
                           default="ipc")
        else:
            p.set_defaults(system=system)
        p.set_defaults(fn=fn)
        return p

    command("check", cmd_check, "typecheck a term", "--sys")
    p = command("reduce", cmd_reduce, "normalize under a rule set", "--sys")
    p.add_argument("--rules", required=True,
                   help="comma-separated rule ids (e.g. beta_imp,rho_abort)")
    _add_strategy(p)
    p.add_argument("--max-steps", type=_positive_int, default=10000)
    p = command("translate", cmd_translate, "translate an IPC term", None)
    p.add_argument("--target", choices=("rp", "at"), required=True)
    _add_strategy(command("nf", cmd_nf, "atomic normal form of an F term", "f"))
    command("weight", cmd_weight, "termination weight of an F term", "f")
    _add_redex(command("simulate", cmd_simulate,
                       "translate one IPC step into the F reduction", "ipc"))
    _add_redex(command("diagram", cmd_diagram,
                       "comparison diagram for one IPC step", "ipc"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        env, term, source = _load(args)
        return _render(args, source, args.fn(args, env, term))
    except (ParseError, ValueError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _Unreadable as e:
        print(f"error: {e}", file=sys.stderr)
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
