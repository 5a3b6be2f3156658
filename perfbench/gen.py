"""Seeded input generators for the benchmark workloads.

Everything the workloads feed to atomlam is built here from a seed, with
no use of the test-suite corpora, so that editing a test cannot shift a
workload. Each generator returns plain data (environments, terms, argv
lists and the answers to check them against); nothing here is timed.
"""

from __future__ import annotations

import random

from atomlam import (Abort, And, App, Case, Env, FVar, Imp, Inj, Lam, Or,
                     Pair, Proj, RuleId, SystemId, Var, at_term, find_redexes,
                     fresh_name, print_formula, print_term, rp_env, rp_term,
                     step, typecheck)
from atomlam.diagram import OR_BOT_RULES
from atomlam.rules import rules_of_system
from atomlam.syntax import Bot

X, Y = FVar("X"), FVar("Y")

# ------------------------------------------------------- the case^d/k ladder
#
# case^d/k, pinned here:
#
#   c_0 = P                      c_k = P -> (c_{k-1} & P)
#   t_0 = x1                     t_k = fun z_k:P => <t_{k-1}, z_k>
#   case^0/k = t_k
#   case^d/k = case s of { x_d:P => case^{d-1}/k ; y_d:Q => abort[c_k] u } : c_k
#
# in the environment s:P|Q, r:Q|P, u:bot. A seed picks the atom names P, Q
# and, per level, whether the level is mirrored: a mirrored level scrutinises
# r:Q|P and swaps its branches. Neither choice changes the work, so every
# variant of a rung takes the same number of fine steps: 6 / 16 / 18 / 30 /
# 42 / 64 for the rungs below, whose atomic normal forms have
# 46 / 103 / 130 / 180 / 298 / 391 nodes.

RUNGS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
_ATOM_PAIRS = (("X", "Y"), ("Y", "X"), ("P", "Q"), ("A", "B"))


def result_formula(k, p):
    return p if k == 0 else Imp(p, And(result_formula(k - 1, p), p))


def _ladder_base(k, p):
    if k == 0:
        return Var("x1")
    z = f"z{k}"
    return Lam(z, p, Pair(_ladder_base(k - 1, p), Var(z)))


def ladder_item(rng, d, k):
    """One seeded variant of case^d/k: (env, term, result formula)."""
    pn, qn = rng.choice(_ATOM_PAIRS)
    p, q = FVar(pn), FVar(qn)
    env = Env([("s", Or(p, q)), ("r", Or(q, p)), ("u", Bot())])
    c = result_formula(k, p)
    m = _ladder_base(k, p)
    for level in range(1, d + 1):
        x, y = f"x{level}", f"y{level}"
        if rng.random() < 0.5:
            m = Case(Var("s"), x, p, m, y, q, Abort(Var("u"), c), c)
        else:
            m = Case(Var("r"), y, q, Abort(Var("u"), c), x, p, m, c)
    return env, m, c


def ladder_round(rng, index):
    """One item per rung, in seeded order: list of dicts."""
    out = []
    for d, k in RUNGS:
        env, m, c = ladder_item(rng, d, k)
        out.append({"rung": f"{d}/{k}", "env": env, "term": m,
                    "expect_nf": at_term(m)})
    rng.shuffle(out)
    return out


# ------------------------------------------------------ random IPC terms

IPC_ENV = Env([("a", X), ("b", Y), ("u", Bot()), ("s", Or(X, Y)),
               ("f", Imp(X, Y)), ("p", And(X, Y))])
_SMALL = (X, Y, Imp(X, Y), And(X, Y))


def _var_of(env, target):
    for name, f in env.items():
        if f == target:
            return name
    return None


def _binder(rng, env, hint):
    return fresh_name(hint + rng.choice("uvwxyz"), set(env.names()))


def canonical(rng, env, target):
    """Smallest-effort inhabitant; IPC_ENV inhabits X, Y and bot."""
    name = _var_of(env, target)
    if name is not None:
        return Var(name)
    if isinstance(target, Imp):
        x = _binder(rng, env, "x")
        return Lam(x, target.left,
                   canonical(rng, env.extend(x, target.left), target.right))
    if isinstance(target, And):
        return Pair(canonical(rng, env, target.left),
                    canonical(rng, env, target.right))
    if isinstance(target, Or):
        return Inj(1, canonical(rng, env, target.left), target.left, target.right)
    if isinstance(target, Bot):
        return Var(_var_of(env, Bot()))
    raise ValueError(f"cannot inhabit {target!r}")


def ipc_term(rng, env, target, fuel):
    """Random IPC term of type `target`; fuel bounds elimination nesting."""
    options = []
    if _var_of(env, target) is not None:
        options += ["var", "var"]
    if isinstance(target, (Imp, And, Or)):
        options += ["intro"] * 3
    if fuel > 0:
        options += ["app", "proj", "case", "abort"]
    if not options:
        return canonical(rng, env, target)
    pick = rng.choice(options)
    if pick == "var":
        return Var(_var_of(env, target))
    if pick == "intro":
        if isinstance(target, Imp):
            x = _binder(rng, env, "x")
            return Lam(x, target.left, ipc_term(rng, env.extend(x, target.left),
                                                target.right, fuel - 1))
        if isinstance(target, And):
            return Pair(ipc_term(rng, env, target.left, fuel - 1),
                        ipc_term(rng, env, target.right, fuel - 1))
        i = rng.choice((1, 2))
        part = target.left if i == 1 else target.right
        return Inj(i, ipc_term(rng, env, part, fuel - 1), target.left, target.right)
    if pick == "app":
        arg = rng.choice((X, Y))
        return App(ipc_term(rng, env, Imp(arg, target), fuel - 1),
                   ipc_term(rng, env, arg, fuel - 1))
    if pick == "proj":
        other = rng.choice((X, Y))
        if rng.random() < 0.5:
            return Proj(1, ipc_term(rng, env, And(target, other), fuel - 1))
        return Proj(2, ipc_term(rng, env, And(other, target), fuel - 1))
    if pick == "case":
        return _case(rng, env, ipc_term(rng, env, Or(X, Y), fuel - 1),
                     X, Y, target, fuel - 1)
    return Abort(ipc_term(rng, env, Bot(), fuel - 1), target)


def _case(rng, env, scrut, left, right, target, fuel, sub=ipc_term):
    x = _binder(rng, env, "x")
    y = _binder(rng, env.extend(x, left), "y")
    return Case(scrut, x, left, sub(rng, env.extend(x, left), target, fuel),
                y, right, sub(rng, env.extend(y, right), target, fuel),
                target)


# Outermost forms of case branches in the diagram corpus. The branches of a
# case at a conjunctive result formula are copied by the atomic translation,
# and their form sets most of a diagram's cost, so rounds cycle through
# every pair of forms instead of drawing them.
BRANCH_FORMS = ("var", "intro", "abort")
BRANCH_PAIRS = tuple((l, r) for l in BRANCH_FORMS for r in BRANCH_FORMS)


def normal_term(rng, env, target, fuel, first=None):
    """Random normal IPC term of type `target` with no case analysis:
    introductions over variables, projections of p, f applied, abort of u.
    `first` picks the outermost form when the type admits it."""
    options = []
    if _var_of(env, target) is not None:
        options += ["var", "var"]
    if isinstance(target, (Imp, And, Or)):
        options += ["intro"] * 3
    if fuel > 0 and target in (X, Y):
        options += ["elim"]
    if fuel > 0 and not isinstance(target, Bot):
        options += ["abort"]
    if not options:
        return canonical(rng, env, target)
    pick = first if first in options else rng.choice(options)
    if pick == "var":
        return Var(_var_of(env, target))
    if pick == "intro":
        if isinstance(target, Imp):
            x = _binder(rng, env, "x")
            return Lam(x, target.left, normal_term(
                rng, env.extend(x, target.left), target.right, fuel - 1))
        if isinstance(target, And):
            return Pair(normal_term(rng, env, target.left, fuel - 1),
                        normal_term(rng, env, target.right, fuel - 1))
        i = rng.choice((1, 2))
        part = target.left if i == 1 else target.right
        return Inj(i, normal_term(rng, env, part, fuel - 1),
                   target.left, target.right)
    if pick == "elim":
        if target == X or rng.random() < 0.5:
            return Proj(1 if target == X else 2, Var("p"))
        return App(Var("f"), normal_term(rng, env, X, fuel - 1))
    return Abort(Var("u"), target)


def redex_core(rng, rule, target, forms, fuel):
    """A typable IPC term whose root is a `rule` redex (disjunction and
    absurdity rules only), over the hypotheses s and u, with normal,
    case-free subterms; `forms` gives the outermost forms of the branches
    of its case analyses."""
    env, s, u = IPC_ENV, Var("s"), Var("u")
    sub = lambda t: normal_term(rng, env, t, fuel)
    shapes = iter(forms * 2)
    branch = lambda rng, env, t, fuel: normal_term(rng, env, t, fuel, next(shapes))
    case = lambda scrut, left, right, t: _case(rng, env, scrut, left, right,
                                               t, fuel, branch)
    if rule is RuleId.beta_or:
        i = rng.choice((1, 2))
        return case(Inj(i, sub(X if i == 1 else Y), X, Y), X, Y, target)
    if rule is RuleId.eta_or:
        return Case(s, "x", X, Inj(1, Var("x"), X, Y),
                    "y", Y, Inj(2, Var("y"), X, Y), Or(X, Y))
    if rule is RuleId.pi_imp:
        c = rng.choice((X, Y))
        return App(case(s, X, Y, Imp(c, target)), sub(c))
    if rule is RuleId.pi_and:
        c = And(rng.choice(_SMALL[:2]), rng.choice(_SMALL[:3]))
        return Proj(rng.choice((1, 2)), case(s, X, Y, c))
    if rule is RuleId.pi_or:
        left, right = X, And(X, Y)
        return case(case(s, X, Y, Or(left, right)), left, right, target)
    if rule is RuleId.pi_bot:
        return Abort(case(s, X, Y, Bot()), target)
    if rule is RuleId.varpi_imp:
        c = rng.choice((X, Y))
        return App(Abort(u, Imp(c, target)), sub(c))
    if rule is RuleId.varpi_and:
        c = And(rng.choice(_SMALL[:2]), rng.choice(_SMALL[:3]))
        return Proj(rng.choice((1, 2)), Abort(u, c))
    if rule is RuleId.varpi_or:
        return case(Abort(u, Or(X, Y)), X, Y, target)
    if rule is RuleId.varpi_bot:
        return Abort(Abort(u, Bot()), target)
    raise ValueError(f"no redex shape for {rule}")


EMBEDDINGS = ("none", "lambda", "pair", "case")


def embed(rng, env, core, how):
    """Wrap `core` in a small context: (term, position of core)."""
    if how == "none":
        return core, ()
    if how == "lambda":
        return Lam(_binder(rng, env, "e"), X, core), (0,)
    if how == "pair":
        return Pair(core, Var("a")), (0,)
    target = typecheck(SystemId.IPC, env, core)
    x = _binder(rng, env, "e")
    y = _binder(rng, env.extend(x, X), "e")
    return Case(Var("s"), x, X, core, y, Y, canonical(rng, env, target),
                target), (1,)


_IPC_RULES = rules_of_system(SystemId.IPC)


def redex_item(rng, rule, target, how, forms=None, fuel=1):
    """(env, term, redex): a term whose only IPC redex is a `rule` redex.

    Terms with further redexes are redrawn: each independent redex
    multiplies the breadth-first search behind a diagram's q1->q2 leg,
    and one such term can take a minute, longer than a whole run.
    """
    while True:
        term, pos = embed(rng, IPC_ENV,
                          redex_core(rng, rule, target, forms or (None, None), fuel),
                          how)
        found = find_redexes(SystemId.IPC, IPC_ENV, term, _IPC_RULES)
        if len(found) == 1 and found[0].position == pos and found[0].rule is rule:
            return IPC_ENV, term, found[0]


# ------------------------------------------------------- diagram corpus

DIAGRAM_RULES = tuple(sorted(OR_BOT_RULES, key=lambda r: r.value))


def diagram_round(rng, index):
    """One redex per disjunction/absurdity rule, result formula and
    embedding, in seeded order, each with the translations of its source
    and contracted term as the answer. Every round holds each of these
    classes once, and round `index` gives its case branches the forms
    BRANCH_PAIRS[index % 9], so a seed changes the subterms but not the mix."""
    out = []
    forms = BRANCH_PAIRS[index % len(BRANCH_PAIRS)]
    for rule in DIAGRAM_RULES:
        for target in _SMALL:
            for how in EMBEDDINGS:
                env, m, r = redex_item(rng, rule, target, how, forms)
                n = step(SystemId.IPC, env, m, r)
                out.append({"rule": rule.value, "env": env, "term": m, "redex": r,
                            "corners": {"m_rp": rp_term(m), "n_rp": rp_term(n),
                                        "m_at": at_term(m), "n_at": at_term(n)}})
    rng.shuffle(out)
    return out


# ------------------------------------------------------------- CLI mix

CLI_KINDS = ("check", "translate-rp", "translate-at", "reduce", "simulate",
             "weight", "nf")


def _env_flags(env):
    flags = []
    for name, f in env.items():
        flags += ["--env", f"{name}:{print_formula(f)}"]
    return flags


_CLI_TARGETS = _SMALL + (Or(X, Y),)


def cli_item(rng, kind, index):
    """argv for one `atomlam` call, with what its output must show. Round
    `index` fixes the term's formula and size, or the simulated rule."""
    item = {"kind": kind}
    if kind == "simulate":
        rule = DIAGRAM_RULES[index % len(DIAGRAM_RULES)]
        env, m, r = redex_item(rng, rule, rng.choice(_SMALL),
                               rng.choice(EMBEDDINGS))
        item["argv"] = (["simulate", "--rule", rule.value,
                         "--pos", ",".join(map(str, r.position))]
                        + _env_flags(env) + ["--format", "json", "--verify",
                                             print_term(m)])
        item["expect_term"] = rp_term(step(SystemId.IPC, env, m, r))
        return item
    target = _CLI_TARGETS[index % len(_CLI_TARGETS)]
    m = ipc_term(rng, IPC_ENV, target, 1 + index // len(_CLI_TARGETS) % 2)
    text = print_term(m)
    ipc_flags = _env_flags(IPC_ENV)
    if kind == "check":
        item["argv"] = ["check", "--sys", "ipc"] + ipc_flags + [text]
        item["expect_stdout"] = print_formula(target) + "\n"
    elif kind in ("translate-rp", "translate-at"):
        item["argv"] = ["translate", "--target", kind[-2:], text]
    elif kind == "reduce":
        rules = ",".join(sorted(r.value for r in _IPC_RULES))
        item["argv"] = (["reduce", "--sys", "ipc", "--rules", rules]
                        + ipc_flags + ["--format", "json", "--verify", text])
        item["env"], item["expect_type"] = IPC_ENV, target
    elif kind == "weight":
        item["argv"] = (["weight"] + _env_flags(rp_env(IPC_ENV))
                        + ["--format", "json", print_term(rp_term(m))])
    elif kind == "nf":
        item["argv"] = (["nf"] + _env_flags(rp_env(IPC_ENV))
                        + ["--format", "json", "--verify",
                           print_term(rp_term(m))])
        item["expect_term"] = at_term(m)
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return item


def cli_round(rng, index):
    """One call of each kind, in seeded order."""
    out = [cli_item(rng, kind, index) for kind in CLI_KINDS]
    rng.shuffle(out)
    return out


ROUND_MAKERS = {"atomize": ladder_round, "diagram": diagram_round,
                  "cli-mix": cli_round}


def make_rounds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [ROUND_MAKERS[workload](rng, i) for i in range(count)]
