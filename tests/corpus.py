"""Seeded generators of typable terms and targeted redex instances."""

import dataclasses
import random

from atomlam import (Abort, And, App, Bot, Case, Env, Forall, FVar, Imp, Inj,
                     Lam, Or, Pair, Proj, RuleId, SystemId, TyApp, TyLam, Var,
                     encode_bot, encode_or, find_redexes, free_vars,
                     fresh_name, mk_case, replace_at, subst_type, subterm_at,
                     typecheck)
from atomlam.syntax import term_children

X, Y = FVar("X"), FVar("Y")

IPC_BASE = Env([("a", X), ("b", Y), ("u", Bot()), ("s", Or(X, Y)),
                ("f", Imp(X, Y)), ("p", And(X, Y))])
IPC_POOL = [X, Y, Bot(), Imp(X, Y), And(X, Y), Or(X, Y), Imp(Y, X)]

F_BASE = Env([("a", X), ("b", Y), ("u", encode_bot()), ("s", encode_or(X, Y)),
              ("f", Imp(X, Y)), ("g", Forall("Z", Imp(FVar("Z"), FVar("Z"))))])
F_POOL = [X, Y, Imp(X, Y), And(X, Y), Imp(X, X), And(Imp(X, X), Y),
          Forall("Z", Imp(FVar("Z"), FVar("Z"))), Imp(Imp(X, Y), Y)]
FAT_POOL = [X, Y, Imp(X, Y), And(X, Y), Imp(X, X),
            Forall("Z", Imp(FVar("Z"), FVar("Z")))]


class CanonFail(Exception):
    pass


def _var_of(env, target):
    for name, f in env.items():
        if f == target:
            return name
    return None


def _fresh_binder(rng, env, hint="x"):
    return fresh_name(hint + rng.choice("vwxyz"), set(env.names()))


def canon_ipc(rng, env, target):
    name = _var_of(env, target)
    if name is not None:
        return Var(name)
    if isinstance(target, Imp):
        x = _fresh_binder(rng, env)
        return Lam(x, target.left,
                   canon_ipc(rng, env.extend(x, target.left), target.right))
    if isinstance(target, And):
        return Pair(canon_ipc(rng, env, target.left),
                    canon_ipc(rng, env, target.right))
    if isinstance(target, Or):
        for idx, side in ((1, target.left), (2, target.right)):
            try:
                return Inj(idx, canon_ipc(rng, env, side),
                           target.left, target.right)
            except CanonFail:
                continue
    raise CanonFail(target)


def gen_ipc(rng, env, target, fuel):
    """Random typable IPC term of the given type."""
    options = []
    if _var_of(env, target) is not None:
        options += ["var"] * 2
    if isinstance(target, (Imp, And, Or)):
        options += ["intro"] * 3
    if fuel > 0:
        options += ["app", "case"] + ["proj", "abort"]
    if not options:
        return canon_ipc(rng, env, target)
    try:
        pick = rng.choice(options)
        if pick == "var":
            return Var(_var_of(env, target))
        if pick == "intro":
            if isinstance(target, Imp):
                x = _fresh_binder(rng, env)
                return Lam(x, target.left,
                           gen_ipc(rng, env.extend(x, target.left),
                                   target.right, fuel - 1))
            if isinstance(target, And):
                return Pair(gen_ipc(rng, env, target.left, fuel - 1),
                            gen_ipc(rng, env, target.right, fuel - 1))
            side = rng.choice((1, 2))
            comp = target.left if side == 1 else target.right
            return Inj(side, gen_ipc(rng, env, comp, fuel - 1),
                       target.left, target.right)
        if pick == "app":
            arg_t = rng.choice(IPC_POOL[:5])
            return App(gen_ipc(rng, env, Imp(arg_t, target), fuel - 1),
                       gen_ipc(rng, env, arg_t, fuel - 1))
        if pick == "proj":
            other = rng.choice(IPC_POOL[:4])
            if rng.random() < 0.5:
                return Proj(1, gen_ipc(rng, env, And(target, other), fuel - 1))
            return Proj(2, gen_ipc(rng, env, And(other, target), fuel - 1))
        if pick == "case":
            l, r = rng.choice([(X, Y), (X, X), (Y, Imp(X, Y))])
            scrut = gen_ipc(rng, env, Or(l, r), fuel - 1)
            xv = _fresh_binder(rng, env)
            yv = _fresh_binder(rng, env.extend(xv, l))
            return Case(scrut,
                        xv, l, gen_ipc(rng, env.extend(xv, l), target, fuel - 1),
                        yv, r, gen_ipc(rng, env.extend(yv, r), target, fuel - 1),
                        target)
        return Abort(gen_ipc(rng, env, Bot(), fuel - 1), target)
    except CanonFail:
        return canon_ipc(rng, env, target)


def canon_f(rng, env, target, fat=False):
    name = _var_of(env, target)
    if name is not None:
        return Var(name)
    if isinstance(target, Imp):
        x = _fresh_binder(rng, env)
        return Lam(x, target.left,
                   canon_f(rng, env.extend(x, target.left), target.right, fat))
    if isinstance(target, And):
        return Pair(canon_f(rng, env, target.left, fat),
                    canon_f(rng, env, target.right, fat))
    if isinstance(target, Forall):
        v = fresh_name(target.var, env.free_type_vars())
        body = subst_type(FVar(v), target.var, target.body)
        return TyLam(v, canon_f(rng, env, body, fat))
    bot = _var_of(env, encode_bot())
    if bot is not None:
        if isinstance(target, FVar):
            return TyApp(Var(bot), target)
        if not fat:
            return TyApp(Var(bot), target)
    raise CanonFail(target)


def gen_f(rng, env, target, fuel, fat=False):
    """Random typable F (or Fat) term; empty/sum hypotheses give the term
    atomization and commuting redexes organically."""
    options = []
    if _var_of(env, target) is not None:
        options += ["var"] * 2
    if isinstance(target, (Imp, And, Forall)):
        options += ["intro"] * 3
    if fuel > 0:
        options += ["app", "proj", "spine", "bot"]
    if not options:
        return canon_f(rng, env, target, fat)
    try:
        pick = rng.choice(options)
        if pick == "var":
            return Var(_var_of(env, target))
        if pick == "intro":
            if isinstance(target, Imp):
                x = _fresh_binder(rng, env)
                return Lam(x, target.left,
                           gen_f(rng, env.extend(x, target.left),
                                 target.right, fuel - 1, fat))
            if isinstance(target, And):
                return Pair(gen_f(rng, env, target.left, fuel - 1, fat),
                            gen_f(rng, env, target.right, fuel - 1, fat))
            v = fresh_name(target.var, env.free_type_vars())
            body = subst_type(FVar(v), target.var, target.body)
            return TyLam(v, gen_f(rng, env, body, fuel - 1, fat))
        if pick == "app":
            pool = FAT_POOL if fat else F_POOL
            arg_t = rng.choice(pool[:5])
            return App(gen_f(rng, env, Imp(arg_t, target), fuel - 1, fat),
                       gen_f(rng, env, arg_t, fuel - 1, fat))
        if pick == "proj":
            other = rng.choice((X, Y, Imp(X, X)))
            if rng.random() < 0.5:
                return Proj(1, gen_f(rng, env, And(target, other), fuel - 1, fat))
            return Proj(2, gen_f(rng, env, And(other, target), fuel - 1, fat))
        if pick == "spine":
            s = _var_of(env, encode_or(X, Y))
            if s is None:
                raise CanonFail(target)
            if fat:
                from atomlam import mk_case_at
                xv = _fresh_binder(rng, env)
                yv = _fresh_binder(rng, env.extend(xv, X))
                return mk_case_at(Var(s),
                                  xv, X, gen_f(rng, env.extend(xv, X), target,
                                               fuel - 1, fat),
                                  yv, Y, gen_f(rng, env.extend(yv, Y), target,
                                               fuel - 1, fat),
                                  target)
            xv = _fresh_binder(rng, env)
            yv = _fresh_binder(rng, env.extend(xv, X))
            return mk_case(Var(s),
                           xv, X, gen_f(rng, env.extend(xv, X), target,
                                        fuel - 1, fat),
                           yv, Y, gen_f(rng, env.extend(yv, Y), target,
                                        fuel - 1, fat),
                           target)
        bot = _var_of(env, encode_bot())
        if bot is None:
            raise CanonFail(target)
        if fat:
            from atomlam import mk_abort_at
            return mk_abort_at(Var(bot), target)
        return TyApp(Var(bot), target)
    except CanonFail:
        return canon_f(rng, env, target, fat)


# ------------------------------------------------- targeted IPC redexes

def _two_branches(rng, env, l, r, target, fuel):
    xv = _fresh_binder(rng, env)
    yv = _fresh_binder(rng, env.extend(xv, l))
    return (xv, l, gen_ipc(rng, env.extend(xv, l), target, fuel),
            yv, r, gen_ipc(rng, env.extend(yv, r), target, fuel))


def make_ipc_redex(rng, rule, env=IPC_BASE, fuel=2):
    """A typable IPC term whose root is a redex of `rule`."""
    rule = RuleId(rule)
    if rule == RuleId.beta_imp:
        arg_t = rng.choice(IPC_POOL[:4])
        x = _fresh_binder(rng, env)
        body = gen_ipc(rng, env.extend(x, arg_t), rng.choice(IPC_POOL[:4]), fuel)
        return App(Lam(x, arg_t, body), gen_ipc(rng, env, arg_t, fuel))
    if rule == RuleId.beta_and:
        return Proj(rng.choice((1, 2)),
                    Pair(gen_ipc(rng, env, X, fuel), gen_ipc(rng, env, Y, fuel)))
    if rule == RuleId.beta_or:
        l, r = X, Y
        side = rng.choice((1, 2))
        inj = Inj(side, gen_ipc(rng, env, l if side == 1 else r, fuel), l, r)
        target = rng.choice(IPC_POOL[:4])
        xv, l, lb, yv, r, rb = _two_branches(rng, env, l, r, target, fuel)
        return Case(inj, xv, l, lb, yv, r, rb, target)
    if rule == RuleId.eta_imp:
        fun = gen_ipc(rng, env, Imp(X, Y), fuel)
        x = fresh_name("x", free_vars(fun) | set(env.names()))
        return Lam(x, X, App(fun, Var(x)))
    if rule == RuleId.eta_and:
        body = gen_ipc(rng, env, And(X, Y), fuel)
        return Pair(Proj(1, body), Proj(2, body))
    if rule == RuleId.eta_or:
        scrut = gen_ipc(rng, env, Or(X, Y), fuel)
        return Case(scrut, "x", X, Inj(1, Var("x"), X, Y),
                    "y", Y, Inj(2, Var("y"), X, Y), Or(X, Y))
    if rule == RuleId.pi_imp:
        c, d = rng.choice(IPC_POOL[:3]), rng.choice(IPC_POOL[:4])
        scrut = gen_ipc(rng, env, Or(X, Y), fuel)
        xv, l, lb, yv, r, rb = _two_branches(rng, env, X, Y, Imp(c, d), fuel)
        return App(Case(scrut, xv, l, lb, yv, r, rb, Imp(c, d)),
                   gen_ipc(rng, env, c, fuel))
    if rule == RuleId.pi_and:
        c1, c2 = rng.choice(IPC_POOL[:3]), rng.choice(IPC_POOL[:3])
        scrut = gen_ipc(rng, env, Or(X, Y), fuel)
        xv, l, lb, yv, r, rb = _two_branches(rng, env, X, Y, And(c1, c2), fuel)
        return Proj(rng.choice((1, 2)),
                    Case(scrut, xv, l, lb, yv, r, rb, And(c1, c2)))
    if rule == RuleId.pi_or:
        target = rng.choice(IPC_POOL[:4])
        scrut = gen_ipc(rng, env, Or(X, Y), fuel)
        b1, b2 = X, And(X, Y)
        xv, l, lb, yv, r, rb = _two_branches(rng, env, X, Y, Or(b1, b2), fuel)
        inner = Case(scrut, xv, l, lb, yv, r, rb, Or(b1, b2))
        y1, bl, q1, y2, br, q2 = _two_branches(rng, env, b1, b2, target, fuel)
        return Case(inner, y1, bl, q1, y2, br, q2, target)
    if rule == RuleId.pi_bot:
        scrut = gen_ipc(rng, env, Or(X, Y), fuel)
        xv, l, lb, yv, r, rb = _two_branches(rng, env, X, Y, Bot(), fuel)
        return Abort(Case(scrut, xv, l, lb, yv, r, rb, Bot()),
                     rng.choice(IPC_POOL[:5]))
    if rule == RuleId.varpi_imp:
        c, d = rng.choice(IPC_POOL[:3]), rng.choice(IPC_POOL[:4])
        return App(Abort(gen_ipc(rng, env, Bot(), fuel), Imp(c, d)),
                   gen_ipc(rng, env, c, fuel))
    if rule == RuleId.varpi_and:
        c1, c2 = rng.choice(IPC_POOL[:3]), rng.choice(IPC_POOL[:3])
        return Proj(rng.choice((1, 2)),
                    Abort(gen_ipc(rng, env, Bot(), fuel), And(c1, c2)))
    if rule == RuleId.varpi_or:
        target = rng.choice(IPC_POOL[:4])
        ab = Abort(gen_ipc(rng, env, Bot(), fuel), Or(X, Y))
        xv, l, lb, yv, r, rb = _two_branches(rng, env, X, Y, target, fuel)
        return Case(ab, xv, l, lb, yv, r, rb, target)
    if rule == RuleId.varpi_bot:
        return Abort(Abort(gen_ipc(rng, env, Bot(), fuel), Bot()),
                     rng.choice(IPC_POOL[:5]))
    raise ValueError(f"no targeted builder for {rule}")


def embed_ipc(rng, env, term, target):
    """Wrap a typable term in a small context; the environment is unchanged."""
    pick = rng.randrange(4)
    if pick == 0:
        return term
    if pick == 1:
        z = _fresh_binder(rng, env)
        return Lam(z, X, term)
    if pick == 2:
        return Pair(term, Var("a"))
    other = canon_ipc(rng, env, target)
    xv = _fresh_binder(rng, env)
    yv = _fresh_binder(rng, env.extend(xv, X))
    return Case(Var("s"), xv, X, term, yv, Y, other, target)


def ipc_corpus(seed, count, fuel=4):
    """Deterministic list of (env, term) pairs, all typable in IPC."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        target = rng.choice(IPC_POOL)
        try:
            t = gen_ipc(rng, IPC_BASE, target, rng.randrange(1, fuel + 1))
        except CanonFail:
            continue
        out.append((IPC_BASE, t))
    return out


def ipc_redex_corpus(seed, count, rules=None):
    """(env, term, redex) triples covering every IPC rule, embedded in
    small contexts."""
    from atomlam import rules_of_system
    rng = random.Random(seed)
    rules = sorted(rules or rules_of_system(SystemId.IPC), key=lambda r: r.value)
    out = []
    while len(out) < count:
        rule = rules[len(out) % len(rules)]
        try:
            core = make_ipc_redex(rng, rule)
            target = typecheck(SystemId.IPC, IPC_BASE, core)
            t = embed_ipc(rng, IPC_BASE, core, target)
            typecheck(SystemId.IPC, IPC_BASE, t)
        except CanonFail:
            continue
        for r in find_redexes(SystemId.IPC, IPC_BASE, t, {rule}):
            out.append((IPC_BASE, t, r))
            break
    return out


def f_corpus(seed, count, fuel=4, fat=False):
    rng = random.Random(seed)
    pool = FAT_POOL if fat else F_POOL
    out = []
    while len(out) < count:
        target = rng.choice(pool)
        try:
            t = gen_f(rng, F_BASE, target, rng.randrange(1, fuel + 1), fat)
            typecheck(SystemId.FAT if fat else SystemId.F, F_BASE, t)
        except CanonFail:
            continue
        out.append((F_BASE, t))
    return out


def make_f_redex(rng, rule, env=F_BASE, fuel=2, fat=False):
    """A typable F (or Fat) term whose root is a fine redex of `rule`."""
    rule = RuleId(rule)
    s, u = Var("s"), Var("u")
    nonatomic = [Imp(X, Y), And(X, Y), Forall("Z", Imp(FVar("Z"), FVar("Z"))),
                 Imp(X, X), And(Imp(X, X), Y)]
    if rule == RuleId.beta_imp:
        arg_t = rng.choice((X, Y, Imp(X, Y)))
        x = _fresh_binder(rng, env)
        body = gen_f(rng, env.extend(x, arg_t), rng.choice((X, Y)), fuel, fat)
        return App(Lam(x, arg_t, body), gen_f(rng, env, arg_t, fuel, fat))
    if rule == RuleId.beta_and:
        return Proj(rng.choice((1, 2)),
                    Pair(gen_f(rng, env, X, fuel, fat),
                         gen_f(rng, env, Y, fuel, fat)))
    if rule == RuleId.beta_all:
        arg = rng.choice((X, Y)) if fat else rng.choice((X, Imp(X, Y)))
        return TyApp(TyLam("Z", Lam("w", FVar("Z"), Var("w"))), arg)
    if rule == RuleId.eta_imp:
        fun = gen_f(rng, env, Imp(X, Y), fuel, fat)
        x = fresh_name("x", free_vars(fun) | set(env.names()))
        return Lam(x, X, App(fun, Var(x)))
    if rule == RuleId.eta_and:
        body = gen_f(rng, env, And(X, Y), fuel, fat)
        return Pair(Proj(1, body), Proj(2, body))
    if rule == RuleId.eta_all:
        return TyLam("V", TyApp(Var("g"), FVar("V")))
    if rule == RuleId.rho_abort:
        return TyApp(u, rng.choice(nonatomic))
    if rule == RuleId.rho_case:
        c = rng.choice(nonatomic)
        xv, yv = "x", "y"
        return mk_case(s, xv, X, gen_f(rng, env.extend(xv, X), c, fuel),
                       yv, Y, gen_f(rng, env.extend(yv, Y), c, fuel), c)
    if rule == RuleId.delta:
        kind = rng.choice(("imp", "and", "forall"))
        if kind == "imp":
            c = Imp(X, Y)
            mk = lambda e: Lam("z", X, gen_f(rng, e.extend("z", X), Y, fuel))
        elif kind == "and":
            c = And(X, Y)
            mk = lambda e: Pair(gen_f(rng, e, X, fuel), gen_f(rng, e, Y, fuel))
        else:
            c = Forall("Z", Imp(FVar("Z"), FVar("Z")))
            mk = lambda e: TyLam("Z", Lam("w", FVar("Z"), Var("w")))
        return mk_case(s, "x", X, mk(env.extend("x", X)),
                       "y", Y, mk(env.extend("y", Y)), c)
    if rule == RuleId.eps_case:
        kind = rng.choice(("imp", "and", "forall"))
        if kind == "imp":
            spine = make_f_redex(rng, RuleId.rho_case, env, fuel)
            c = spine.fun.arg
            while not isinstance(c, Imp):
                spine = make_f_redex(rng, RuleId.rho_case, env, fuel)
                c = spine.fun.arg
            return App(spine, gen_f(rng, env, c.left, fuel))
        if kind == "and":
            c = And(X, Y)
            spine = mk_case(s, "x", X, gen_f(rng, env.extend("x", X), c, fuel),
                            "y", Y, gen_f(rng, env.extend("y", Y), c, fuel), c)
            return Proj(rng.choice((1, 2)), spine)
        c = Forall("Z", Imp(FVar("Z"), FVar("Z")))
        branch = TyLam("Z", Lam("w", FVar("Z"), Var("w")))
        spine = mk_case(s, "x", X, branch, "y", Y, branch, c)
        return TyApp(spine, rng.choice((X, Y, Imp(X, Y))))
    if rule == RuleId.eps_abort:
        kind = rng.choice(("imp", "and", "forall"))
        if kind == "imp":
            c = rng.choice((Imp(X, Y), Imp(X, X)))
            return App(TyApp(u, c), gen_f(rng, env, c.left, fuel))
        if kind == "and":
            return Proj(rng.choice((1, 2)), TyApp(u, And(X, Y)))
        c0 = Forall("Z", Imp(FVar("Z"), FVar("Z")))
        return TyApp(TyApp(u, c0), rng.choice((X, Y, Imp(X, Y))))
    raise ValueError(f"no targeted builder for {rule}")


def embed_f(rng, env, term):
    pick = rng.randrange(3)
    if pick == 0:
        return term
    if pick == 1:
        z = _fresh_binder(rng, env)
        return Lam(z, rng.choice((X, Y)), term)
    return Pair(term, Var("a"))


def f_redex_corpus(seed, count, rules, fat=False):
    rng = random.Random(seed)
    rules = sorted(RuleId(r) for r in rules)
    sys_id = SystemId.FAT if fat else SystemId.F
    out = []
    while len(out) < count:
        rule = rules[len(out) % len(rules)]
        try:
            t = embed_f(rng, F_BASE, make_f_redex(rng, rule, fat=fat))
            typecheck(sys_id, F_BASE, t)
        except CanonFail:
            continue
        for r in find_redexes(sys_id, F_BASE, t, {rule}):
            if r.fine:
                out.append((F_BASE, t, r))
                break
    return out


# ------------------------------------------------- ill-typed mutants

MUTANT_POOL = [X, Y, Bot(), Imp(X, Y), And(X, Y), Or(X, Y),
               Forall("Z", Imp(FVar("Z"), FVar("Z"))), Forall("X", X)]
_ANNOTATIONS = {Lam: ("ann",), Inj: ("left", "right"),
                Case: ("lann", "rann", "ann"), Abort: ("ann",), TyApp: ("arg",)}


def positions(t, pos=()):
    """Every position of t, pre-order."""
    yield pos
    for i, c in enumerate(term_children(t)):
        yield from positions(c, pos + (i,))


def mutant(rng, t):
    """One seeded edit of t at a random position, which usually makes it
    ill-typed: a wrong annotation or instantiation formula (atomic or
    not, in or out of each system), an unbound variable, a subterm copied
    from elsewhere, an injection, abort or case wrapped around the
    subterm, or a type binder X, Y or Z around it (the corpora's
    environments mention X and Y, so most of these capture)."""
    ps = list(positions(t))
    p = rng.choice(ps)
    sub = subterm_at(t, p)
    a, b = rng.choice(MUTANT_POOL), rng.choice(MUTANT_POOL)
    kind = rng.randrange(6)
    if kind == 0 and type(sub) in _ANNOTATIONS:
        new = dataclasses.replace(sub, **{rng.choice(_ANNOTATIONS[type(sub)]): a})
    elif kind == 1:
        new = Var("nope")
    elif kind == 2:
        new = subterm_at(t, rng.choice(ps))
    elif kind == 3:
        new = rng.choice([Inj(1, sub, a, b), Abort(sub, a),
                          Case(sub, "l", a, Var("l"), "r", b, Var("l"), a)])
    elif kind == 4:
        new = TyLam(rng.choice("XYZ"), sub)
    else:
        new = TyApp(sub, a)
    return replace_at(t, p, new)
