"""Proof translations from IPC into the polymorphic systems.

`rp_formula`/`rp_term` give the sum/empty-encoding translation into F
(disjunction becomes its universal encoding, absurdity becomes forall X. X);
`at_term` gives the translation into Fat whose case/abort constructors
recurse on the result formula so that every universal instantiation is
atomic: they iterate the atomization rules rho_case and rho_abort, which
is claim (3), atomic_nf(rp m) == at m, at one node. The two term
translations share one homomorphic traversal and differ only in the
constructors for case and abort.
"""

from __future__ import annotations

from .errors import NotIPCFormula, NotIPCTerm
from .rules import CONNECTIVES, expansion, mk_case
from .syntax import (_SHAPES, Abort, And, App, Bot, Case, Formula, FVar, Imp,
                     Inj, Lam, Or, Pair, Proj, Term, TyApp, TyLam, Var,
                     encode_bot, encode_or, fill, free_type_vars, free_vars,
                     fresh_name, hole_result)
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
    x = fresh_name("X", free_type_vars(a, b, m))
    w = fresh_name("w", free_vars(m))
    v = FVar(x)
    return TyLam(x, Lam(w, And(Imp(a, v), Imp(b, v)),
                        App(Proj(i, Var(w)), m)))


def mk_abort(m: Term, a: Formula) -> Term:
    """m a."""
    return TyApp(m, a)


def mk_case_at(m: Term, x: str, a: Formula, p: Term,
               y: str, b: Formula, q: Term, c: Formula) -> Term:
    """Atomic-instantiation case: rho_case iterated to atomic formulas. At
    a non-atomic c it is c's eta expansion at its main connective, with a
    case at each component over the branches under that component's
    elimination."""
    if c.__class__ is FVar:
        return mk_case(m, x, a, p, y, b, q, c)
    if c.__class__ not in CONNECTIVES:
        raise NotIPCFormula(f"no case constructor for result formula {c!r}")
    row, z, elims = expansion(c, "z", (m, p, q), (a, b, c), (x, y))
    return row.intro(c, z, *[
        mk_case_at(m, x, a, fill(e, p), y, b, fill(e, q), hole_result(e, c))
        for e in elims])


def mk_abort_at(m: Term, a: Formula) -> Term:
    """Atomic-instantiation abort: rho_abort iterated to atomic formulas.
    At a non-atomic a it is a's eta expansion at its main connective, with
    an abort at each component."""
    if a.__class__ is FVar:
        return TyApp(m, a)
    if a.__class__ not in CONNECTIVES:
        raise NotIPCFormula(f"no abort constructor for result formula {a!r}")
    row, z, elims = expansion(a, "z", (m,), (a,))
    return row.intro(a, z, *[mk_abort_at(m, hole_result(e, a)) for e in elims])


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


# each translation's image builder per IPC class
_RP_BUILDERS = {Lam: Lam, App: App, Pair: Pair, Proj: Proj, Inj: mk_in,
                Case: mk_case, Abort: mk_abort}
_AT_BUILDERS = {**_RP_BUILDERS, Case: mk_case_at, Abort: mk_abort_at}


def _translate(t: Term, builders) -> Term:
    """The image of t. The recursion takes the builders as an argument: a
    closure over itself would leave a reference cycle per call."""
    cls = t.__class__
    if cls is Var:  # a variable is its own image
        return t
    build = builders.get(cls)
    if build is None:
        raise NotIPCTerm(f"not an IPC term: {t!r}")
    values, steps = _FIELDS[cls]
    args = list(values(t))
    for j, is_term in steps:
        args[j] = _translate(args[j], builders) if is_term else rp_formula(args[j])
    return build(*args)


def rp_term(m: Term) -> Term:
    """Translation into F with full universal instantiation."""
    return _translate(m, _RP_BUILDERS)


def at_term(m: Term) -> Term:
    """Translation into Fat: every universal instantiation is atomic."""
    return _translate(m, _AT_BUILDERS)
