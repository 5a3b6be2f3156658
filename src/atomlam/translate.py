"""Proof translations from IPC into the polymorphic systems.

`rp_formula`/`rp_term` give the sum/empty-encoding translation into F
(disjunction becomes its universal encoding, absurdity becomes forall X. X);
`at_term` gives the translation into Fat whose case/abort constructors
recurse on the result formula so that every universal instantiation is
atomic. The two term translations share one homomorphic traversal and
differ only in the constructors for case and abort.
"""

from __future__ import annotations

from .errors import NotIPCFormula, NotIPCTerm
from .syntax import (_SHAPES, Abort, And, App, Bot, Case, Forall, Formula,
                     FVar, Imp, Inj, Lam, Or, Pair, Proj, Term, TyApp, TyLam,
                     Var, encode_bot, encode_or, free_type_vars, free_vars,
                     fresh_name, subst_type)
from .typecheck import Env


def rp_formula(a: Formula) -> Formula:
    """Homomorphic image with Or -> encode_or and Bot -> encode_bot."""
    if isinstance(a, FVar):
        return a
    if isinstance(a, Bot):
        return encode_bot()
    if isinstance(a, Imp):
        return Imp(rp_formula(a.left), rp_formula(a.right))
    if isinstance(a, And):
        return And(rp_formula(a.left), rp_formula(a.right))
    if isinstance(a, Or):
        return encode_or(rp_formula(a.left), rp_formula(a.right))
    raise NotIPCFormula(f"not an IPC formula: {a!r}")


def rp_env(env):
    return Env([(x, rp_formula(f)) for x, f in env.items()])


def mk_in(i: int, m: Term, a: Formula, b: Formula) -> Term:
    """tfun X => fun w:(a->X)&(b->X) => (w.i) m, with X fresh for m, a, b."""
    x = fresh_name("X", free_type_vars(a) | free_type_vars(b)
                   | free_type_vars(m))
    w = fresh_name("w", free_vars(m))
    v = FVar(x)
    return TyLam(x, Lam(w, And(Imp(a, v), Imp(b, v)),
                        App(Proj(i, Var(w)), m)))


def mk_case(m: Term, x: str, a: Formula, p: Term,
            y: str, b: Formula, q: Term, c: Formula) -> Term:
    """m c <fun x:a => p, fun y:b => q>."""
    return App(TyApp(m, c), Pair(Lam(x, a, p), Lam(y, b, q)))


def mk_abort(m: Term, a: Formula) -> Term:
    """m a."""
    return TyApp(m, a)


def mk_case_at(m: Term, x: str, a: Formula, p: Term,
               y: str, b: Formula, q: Term, c: Formula) -> Term:
    """Atomic-instantiation case: recursion on the result formula c."""
    if isinstance(c, FVar):
        return mk_case(m, x, a, p, y, b, q, c)
    if isinstance(c, And):
        return Pair(mk_case_at(m, x, a, Proj(1, p), y, b, Proj(1, q), c.left),
                    mk_case_at(m, x, a, Proj(2, p), y, b, Proj(2, q), c.right))
    if isinstance(c, Imp):
        z = fresh_name("z", free_vars(m) | free_vars(p) | free_vars(q) | {x, y})
        return Lam(z, c.left,
                   mk_case_at(m, x, a, App(p, Var(z)), y, b, App(q, Var(z)),
                              c.right))
    if isinstance(c, Forall):
        avoid = (free_type_vars(m) | free_type_vars(p)
                 | free_type_vars(q) | free_type_vars(a)
                 | free_type_vars(b) | free_type_vars(c))
        v = fresh_name(c.var, avoid)
        body = subst_type(FVar(v), c.var, c.body)
        return TyLam(v, mk_case_at(m, x, a, TyApp(p, FVar(v)),
                                   y, b, TyApp(q, FVar(v)), body))
    raise NotIPCFormula(f"no case constructor for result formula {c!r}")


def mk_abort_at(m: Term, a: Formula) -> Term:
    """Atomic-instantiation abort: recursion on the result formula a."""
    if isinstance(a, FVar):
        return TyApp(m, a)
    if isinstance(a, And):
        return Pair(mk_abort_at(m, a.left), mk_abort_at(m, a.right))
    if isinstance(a, Imp):
        z = fresh_name("z", free_vars(m))
        return Lam(z, a.left, mk_abort_at(m, a.right))
    if isinstance(a, Forall):
        avoid = free_type_vars(m) | free_type_vars(a)
        v = fresh_name(a.var, avoid)
        return TyLam(v, mk_abort_at(m, subst_type(FVar(v), a.var, a.body)))
    raise NotIPCFormula(f"no abort constructor for result formula {a!r}")


# Where rp_term puts the image of child i of a node of each IPC class,
# relative to the node's image: RP_CHILD[type(m)][i]. at_term agrees except
# under a case or abort at a non-atomic result formula, whose unfolding
# copies its children once per level.
RP_CHILD = {
    Var: (),
    Lam: ((0,),),
    App: ((0,), (1,)),
    Pair: ((0,), (1,)),
    Proj: ((0,),),
    Inj: ((0, 0, 1),),
    Case: ((0, 0), (1, 0, 0), (1, 1, 0)),
    Abort: ((0,),),
}


# per IPC class, its fields' getter and the fields its image translates, as
# (index, is a term) in field order, which is its builder's parameter order
_FIELDS = {cls: (shape.values,
                 tuple((j, j in shape.kids) for j, _, _ in shape.walk))
           for cls, shape in _SHAPES.items()
           if cls in (Lam, App, Pair, Proj, Inj, Case, Abort)}


def _translate(m: Term, case_fn, abort_fn) -> Term:
    builders = {Lam: Lam, App: App, Pair: Pair, Proj: Proj, Inj: mk_in,
                Case: case_fn, Abort: abort_fn}

    def go(t):
        cls = t.__class__
        if cls is Var:  # a variable is its own image
            return t
        build = builders.get(cls)
        if build is None:
            raise NotIPCTerm(f"not an IPC term: {t!r}")
        values, steps = _FIELDS[cls]
        args = list(values(t))
        for j, is_term in steps:
            args[j] = go(args[j]) if is_term else rp_formula(args[j])
        return build(*args)

    return go(m)


def rp_term(m: Term) -> Term:
    """Translation into F with full universal instantiation."""
    return _translate(m, mk_case, mk_abort)


def at_term(m: Term) -> Term:
    """Translation into Fat: every universal instantiation is atomic."""
    return _translate(m, mk_case_at, mk_abort_at)
