"""Formulas and proof terms for IPC, System F and System Fat.

Values are immutable; `==` on formulas and terms is alpha-equivalence
(binders compared by position, not by name), which is the equality used
everywhere in the toolkit. User-chosen names are kept for printing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import AtomlamError, NotTypable


class _Node:
    """Shared alpha-aware equality/hash for formulas and terms."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return _key(self) == _key(other)

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        args = ", ".join(repr(getattr(self, f.name)) for f in fields(self))
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------- formulas

@dataclass(frozen=True, eq=False, repr=False)
class Formula(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class FVar(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Formula):
    var: str
    body: Formula


# ---------------------------------------------------------------- terms

@dataclass(frozen=True, eq=False, repr=False)
class Term(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Lam(Term):
    var: str
    ann: Formula
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True, eq=False, repr=False)
class Proj(Term):
    index: int  # 1 or 2
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class Inj(Term):
    """Injection into a sum, carrying both component formulas."""

    index: int  # 1 or 2
    body: Term
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Case(Term):
    """Sum elimination; carries the result formula annotation `ann`."""

    scrut: Term
    lvar: str
    lann: Formula
    lbody: Term
    rvar: str
    rann: Formula
    rbody: Term
    ann: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Abort(Term):
    """Empty-type elimination; carries the result formula annotation."""

    body: Term
    ann: Formula


@dataclass(frozen=True, eq=False, repr=False)
class TyLam(Term):
    var: str
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class TyApp(Term):
    fun: Term
    arg: Formula


# ------------------------------------------------------- canonical keys
#
# A canonical key replaces every bound name (term and type) by its binder's
# index in traversal order, so structural equality of keys is exactly
# alpha-equivalence. Free names stay as themselves.

def _fkey(f, tmap, counter):
    if isinstance(f, FVar):
        return ("X", tmap.get(f.name, f.name))
    if isinstance(f, Bot):
        return ("bot",)
    if isinstance(f, Imp):
        return ("imp", _fkey(f.left, tmap, counter), _fkey(f.right, tmap, counter))
    if isinstance(f, And):
        return ("and", _fkey(f.left, tmap, counter), _fkey(f.right, tmap, counter))
    if isinstance(f, Or):
        return ("or", _fkey(f.left, tmap, counter), _fkey(f.right, tmap, counter))
    if isinstance(f, Forall):
        idx = counter[0]
        counter[0] += 1
        inner = dict(tmap)
        inner[f.var] = idx
        return ("all", _fkey(f.body, inner, counter))
    raise AtomlamError(f"unknown formula node {f!r}")


def _tkey(t, vmap, tmap, counter):
    if isinstance(t, Var):
        return ("v", vmap.get(t.name, t.name))
    if isinstance(t, Lam):
        ann = _fkey(t.ann, tmap, counter)
        idx = counter[0]
        counter[0] += 1
        inner = dict(vmap)
        inner[t.var] = idx
        return ("lam", ann, _tkey(t.body, inner, tmap, counter))
    if isinstance(t, App):
        return ("app", _tkey(t.fun, vmap, tmap, counter), _tkey(t.arg, vmap, tmap, counter))
    if isinstance(t, Pair):
        return ("pair", _tkey(t.fst, vmap, tmap, counter), _tkey(t.snd, vmap, tmap, counter))
    if isinstance(t, Proj):
        return ("proj", t.index, _tkey(t.body, vmap, tmap, counter))
    if isinstance(t, Inj):
        return ("inj", t.index, _tkey(t.body, vmap, tmap, counter),
                _fkey(t.left, tmap, counter), _fkey(t.right, tmap, counter))
    if isinstance(t, Case):
        skey = _tkey(t.scrut, vmap, tmap, counter)
        lann = _fkey(t.lann, tmap, counter)
        li = counter[0]
        counter[0] += 1
        lmap = dict(vmap)
        lmap[t.lvar] = li
        lkey = _tkey(t.lbody, lmap, tmap, counter)
        rann = _fkey(t.rann, tmap, counter)
        ri = counter[0]
        counter[0] += 1
        rmap = dict(vmap)
        rmap[t.rvar] = ri
        rkey = _tkey(t.rbody, rmap, tmap, counter)
        return ("case", skey, lann, lkey, rann, rkey, _fkey(t.ann, tmap, counter))
    if isinstance(t, Abort):
        return ("abort", _tkey(t.body, vmap, tmap, counter), _fkey(t.ann, tmap, counter))
    if isinstance(t, TyLam):
        idx = counter[0]
        counter[0] += 1
        inner = dict(tmap)
        inner[t.var] = idx
        return ("tlam", _tkey(t.body, vmap, inner, counter))
    if isinstance(t, TyApp):
        return ("tapp", _tkey(t.fun, vmap, tmap, counter), _fkey(t.arg, tmap, counter))
    raise AtomlamError(f"unknown term node {t!r}")


def _key(node):
    counter = [0]
    if isinstance(node, Formula):
        return ("F", _fkey(node, {}, counter))
    return ("T", _tkey(node, {}, {}, counter))


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence of two terms (or two formulas)."""
    return a == b


def canonical_key(node):
    """Hashable key equal exactly on alpha-equivalent nodes."""
    return _key(node)


# ---------------------------------------------------------- free variables

def free_type_vars(f: Formula) -> frozenset:
    if isinstance(f, FVar):
        return frozenset((f.name,))
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, (Imp, And, Or)):
        return free_type_vars(f.left) | free_type_vars(f.right)
    if isinstance(f, Forall):
        return free_type_vars(f.body) - {f.var}
    raise AtomlamError(f"unknown formula node {f!r}")


def free_vars(t: Term) -> frozenset:
    """Free term variables of t."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    if isinstance(t, Pair):
        return free_vars(t.fst) | free_vars(t.snd)
    if isinstance(t, (Proj, Inj, Abort, TyLam)):
        return free_vars(t.body)
    if isinstance(t, Case):
        return (free_vars(t.scrut)
                | (free_vars(t.lbody) - {t.lvar})
                | (free_vars(t.rbody) - {t.rvar}))
    if isinstance(t, TyApp):
        return free_vars(t.fun)
    raise AtomlamError(f"unknown term node {t!r}")


def free_type_vars_term(t: Term) -> frozenset:
    """Free type variables of t (annotations and instantiation arguments)."""
    if isinstance(t, Var):
        return frozenset()
    if isinstance(t, Lam):
        return free_type_vars(t.ann) | free_type_vars_term(t.body)
    if isinstance(t, App):
        return free_type_vars_term(t.fun) | free_type_vars_term(t.arg)
    if isinstance(t, Pair):
        return free_type_vars_term(t.fst) | free_type_vars_term(t.snd)
    if isinstance(t, Proj):
        return free_type_vars_term(t.body)
    if isinstance(t, Inj):
        return (free_type_vars_term(t.body)
                | free_type_vars(t.left) | free_type_vars(t.right))
    if isinstance(t, Case):
        return (free_type_vars_term(t.scrut)
                | free_type_vars(t.lann) | free_type_vars_term(t.lbody)
                | free_type_vars(t.rann) | free_type_vars_term(t.rbody)
                | free_type_vars(t.ann))
    if isinstance(t, Abort):
        return free_type_vars_term(t.body) | free_type_vars(t.ann)
    if isinstance(t, TyLam):
        return free_type_vars_term(t.body) - {t.var}
    if isinstance(t, TyApp):
        return free_type_vars_term(t.fun) | free_type_vars(t.arg)
    raise AtomlamError(f"unknown term node {t!r}")


def fresh_name(base: str, avoid) -> str:
    """Smallest primed variant of `base` not in `avoid`."""
    name = base
    while name in avoid:
        name += "'"
    return name


# ------------------------------------------------------------ substitution

def subst_term(n: Term, x: str, m: Term) -> Term:
    """Capture-avoiding [n/x]m."""
    fv_n = free_vars(n)

    def go(t):
        if isinstance(t, Var):
            return n if t.name == x else t
        if isinstance(t, Lam):
            if t.var == x:
                return t
            if t.var in fv_n and x in free_vars(t.body):
                new = fresh_name(t.var, fv_n | free_vars(t.body) | {x})
                body = subst_term(Var(new), t.var, t.body)
                return Lam(new, t.ann, go(body))
            return Lam(t.var, t.ann, go(t.body))
        if isinstance(t, App):
            return App(go(t.fun), go(t.arg))
        if isinstance(t, Pair):
            return Pair(go(t.fst), go(t.snd))
        if isinstance(t, Proj):
            return Proj(t.index, go(t.body))
        if isinstance(t, Inj):
            return Inj(t.index, go(t.body), t.left, t.right)
        if isinstance(t, Case):
            scrut = go(t.scrut)
            lvar, lbody = t.lvar, t.lbody
            if lvar != x:
                if lvar in fv_n and x in free_vars(lbody):
                    new = fresh_name(lvar, fv_n | free_vars(lbody) | {x})
                    lbody = subst_term(Var(new), lvar, lbody)
                    lvar = new
                lbody = go(lbody)
            rvar, rbody = t.rvar, t.rbody
            if rvar != x:
                if rvar in fv_n and x in free_vars(rbody):
                    new = fresh_name(rvar, fv_n | free_vars(rbody) | {x})
                    rbody = subst_term(Var(new), rvar, rbody)
                    rvar = new
                rbody = go(rbody)
            return Case(scrut, lvar, t.lann, lbody, rvar, t.rann, rbody, t.ann)
        if isinstance(t, Abort):
            return Abort(go(t.body), t.ann)
        if isinstance(t, TyLam):
            return TyLam(t.var, go(t.body))
        if isinstance(t, TyApp):
            return TyApp(go(t.fun), t.arg)
        raise AtomlamError(f"unknown term node {t!r}")

    return go(m)


def subst_type_in_formula(b: Formula, x: str, a: Formula) -> Formula:
    """Capture-avoiding [b/x]a over Forall binders."""
    ftv_b = free_type_vars(b)

    def go(f):
        if isinstance(f, FVar):
            return b if f.name == x else f
        if isinstance(f, Bot):
            return f
        if isinstance(f, Imp):
            return Imp(go(f.left), go(f.right))
        if isinstance(f, And):
            return And(go(f.left), go(f.right))
        if isinstance(f, Or):
            return Or(go(f.left), go(f.right))
        if isinstance(f, Forall):
            if f.var == x:
                return f
            if f.var in ftv_b and x in free_type_vars(f.body):
                new = fresh_name(f.var, ftv_b | free_type_vars(f.body) | {x})
                body = subst_type_in_formula(FVar(new), f.var, f.body)
                return Forall(new, go(body))
            return Forall(f.var, go(f.body))
        raise AtomlamError(f"unknown formula node {f!r}")

    return go(a)


def subst_type_in_term(b: Formula, x: str, m: Term) -> Term:
    """Capture-avoiding [b/x]m over annotations and instantiation arguments."""
    ftv_b = free_type_vars(b)

    def gof(f):
        return subst_type_in_formula(b, x, f)

    def go(t):
        if isinstance(t, Var):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, gof(t.ann), go(t.body))
        if isinstance(t, App):
            return App(go(t.fun), go(t.arg))
        if isinstance(t, Pair):
            return Pair(go(t.fst), go(t.snd))
        if isinstance(t, Proj):
            return Proj(t.index, go(t.body))
        if isinstance(t, Inj):
            return Inj(t.index, go(t.body), gof(t.left), gof(t.right))
        if isinstance(t, Case):
            return Case(go(t.scrut), t.lvar, gof(t.lann), go(t.lbody),
                        t.rvar, gof(t.rann), go(t.rbody), gof(t.ann))
        if isinstance(t, Abort):
            return Abort(go(t.body), gof(t.ann))
        if isinstance(t, TyLam):
            if t.var == x:
                return t
            if t.var in ftv_b and x in free_type_vars_term(t.body):
                new = fresh_name(t.var, ftv_b | free_type_vars_term(t.body) | {x})
                body = subst_type_in_term(FVar(new), t.var, t.body)
                return TyLam(new, go(body))
            return TyLam(t.var, go(t.body))
        if isinstance(t, TyApp):
            return TyApp(go(t.fun), gof(t.arg))
        raise AtomlamError(f"unknown term node {t!r}")

    return go(m)


# ------------------------------------------------------------- encodings

def encode_or(a: Formula, b: Formula) -> Formula:
    """Sum encoding: forall X. ((a -> X) & (b -> X)) -> X, X fresh for a, b."""
    x = fresh_name("X", free_type_vars(a) | free_type_vars(b))
    v = FVar(x)
    return Forall(x, Imp(And(Imp(a, v), Imp(b, v)), v))


def encode_bot() -> Formula:
    """Empty-type encoding: forall X. X."""
    return Forall("X", FVar("X"))


def match_encoded_or(f: Formula):
    """Return (a, b) if f is the sum encoding of a and b, else None."""
    if not isinstance(f, Forall):
        return None
    body = f.body
    if not (isinstance(body, Imp) and isinstance(body.right, FVar)
            and body.right.name == f.var and isinstance(body.left, And)):
        return None
    l, r = body.left.left, body.left.right
    if not (isinstance(l, Imp) and isinstance(l.right, FVar) and l.right.name == f.var):
        return None
    if not (isinstance(r, Imp) and isinstance(r.right, FVar) and r.right.name == f.var):
        return None
    a, b = l.left, r.left
    if f.var in free_type_vars(a) | free_type_vars(b):
        return None
    return (a, b)


def is_encoded_bot(f: Formula) -> bool:
    return isinstance(f, Forall) and isinstance(f.body, FVar) and f.body.name == f.var


def formula_size(c: Formula) -> int:
    """|X|=0, |A->B|=2|B|^2+3|B|+1, |A&B|=1+|A|+|B|, |forall X.A|=1+|A|.

    The measure of an instantiation formula in the weight W. The
    implication clause deliberately ignores the antecedent; that is what
    makes the weight drop across the implication atomization step.
    """
    if isinstance(c, FVar):
        return 0
    if isinstance(c, Imp):
        n = formula_size(c.right)
        return 2 * n * n + 3 * n + 1
    if isinstance(c, And):
        return 1 + formula_size(c.left) + formula_size(c.right)
    if isinstance(c, Forall):
        return 1 + formula_size(c.body)
    raise NotTypable(f"not an F/Fat formula: {c!r}")


# --------------------------------------------------------------- positions
#
# A position is a tuple of 0-based child indices over *term* children, in
# grammar order (Case children: scrutinee, left branch, right branch).

def term_children(t: Term):
    if isinstance(t, Var):
        return ()
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, App):
        return (t.fun, t.arg)
    if isinstance(t, Pair):
        return (t.fst, t.snd)
    if isinstance(t, (Proj, Inj, Abort, TyLam)):
        return (t.body,)
    if isinstance(t, Case):
        return (t.scrut, t.lbody, t.rbody)
    if isinstance(t, TyApp):
        return (t.fun,)
    raise AtomlamError(f"unknown term node {t!r}")


class InvalidPath(AtomlamError):
    pass


def subterm_at(t: Term, pos) -> Term:
    cur = t
    for i in pos:
        kids = term_children(cur)
        if not 0 <= i < len(kids):
            raise InvalidPath(f"no child {i} at {type(cur).__name__}")
        cur = kids[i]
    return cur


def _with_child(t: Term, i: int, new: Term) -> Term:
    if isinstance(t, Lam) and i == 0:
        return Lam(t.var, t.ann, new)
    if isinstance(t, App) and i in (0, 1):
        return App(new, t.arg) if i == 0 else App(t.fun, new)
    if isinstance(t, Pair) and i in (0, 1):
        return Pair(new, t.snd) if i == 0 else Pair(t.fst, new)
    if isinstance(t, Proj) and i == 0:
        return Proj(t.index, new)
    if isinstance(t, Inj) and i == 0:
        return Inj(t.index, new, t.left, t.right)
    if isinstance(t, Case) and i in (0, 1, 2):
        if i == 0:
            return Case(new, t.lvar, t.lann, t.lbody, t.rvar, t.rann, t.rbody, t.ann)
        if i == 1:
            return Case(t.scrut, t.lvar, t.lann, new, t.rvar, t.rann, t.rbody, t.ann)
        return Case(t.scrut, t.lvar, t.lann, t.lbody, t.rvar, t.rann, new, t.ann)
    if isinstance(t, Abort) and i == 0:
        return Abort(new, t.ann)
    if isinstance(t, TyLam) and i == 0:
        return TyLam(t.var, new)
    if isinstance(t, TyApp) and i == 0:
        return TyApp(new, t.arg)
    raise InvalidPath(f"no child {i} at {type(t).__name__}")


def replace_at(t: Term, pos, new: Term) -> Term:
    if not pos:
        return new
    kids = term_children(t)
    i = pos[0]
    if not 0 <= i < len(kids):
        raise InvalidPath(f"no child {i} at {type(t).__name__}")
    return _with_child(t, i, replace_at(kids[i], pos[1:], new))


# --------------------------------------------------------- elim contexts

@dataclass(frozen=True, eq=False, repr=False)
class ElimContext(_Node):
    __slots__ = ()

    def __eq__(self, other):  # contexts compared structurally via fill
        return self is other or (isinstance(other, ElimContext)
                                 and _ctx_key(self) == _ctx_key(other))

    def __hash__(self):
        return hash(_ctx_key(self))


@dataclass(frozen=True, eq=False, repr=False)
class AppHole(ElimContext):
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class ProjHole(ElimContext):
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class CaseHole(ElimContext):
    lvar: str
    lann: Formula
    lbody: Term
    rvar: str
    rann: Formula
    rbody: Term
    ann: Formula


@dataclass(frozen=True, eq=False, repr=False)
class AbortHole(ElimContext):
    ann: Formula


@dataclass(frozen=True, eq=False, repr=False)
class TyAppHole(ElimContext):
    arg: Formula


_HOLE = Var("\x00hole")


def _ctx_key(e):
    return _key(fill(e, _HOLE))


def context_free_vars(e: ElimContext) -> frozenset:
    """Free term variables of e's side premisses (the hole binds nothing)."""
    return free_vars(fill(e, _HOLE)) - {_HOLE.name}


def fill(e: ElimContext, m: Term) -> Term:
    """Fill the main-premiss hole of e with m."""
    if isinstance(e, AppHole):
        return App(m, e.arg)
    if isinstance(e, ProjHole):
        return Proj(e.index, m)
    if isinstance(e, CaseHole):
        return Case(m, e.lvar, e.lann, e.lbody, e.rvar, e.rann, e.rbody, e.ann)
    if isinstance(e, AbortHole):
        return Abort(m, e.ann)
    if isinstance(e, TyAppHole):
        return TyApp(m, e.arg)
    raise AtomlamError(f"unknown context node {e!r}")


def split(t: Term):
    """(E, M) with fill(E, M) == t, M the main premiss of the elimination
    at t's root; None if t is not an App, Proj, Case, Abort or TyApp."""
    if isinstance(t, App):
        return AppHole(t.arg), t.fun
    if isinstance(t, Proj):
        return ProjHole(t.index), t.body
    if isinstance(t, Case):
        return CaseHole(t.lvar, t.lann, t.lbody, t.rvar, t.rann, t.rbody,
                        t.ann), t.scrut
    if isinstance(t, Abort):
        return AbortHole(t.ann), t.body
    if isinstance(t, TyApp):
        return TyAppHole(t.arg), t.fun
    return None


def hole_result(e, a: Formula):
    """The formula e yields when its hole has type a, or None when a's
    main connective is not the one e eliminates.

    `e` is an elimination context, or an elimination root standing for the
    context around its main premiss (the two carry the same fields), so a
    matcher can ask without building the context.
    """
    if isinstance(e, (AppHole, App)):
        return a.right if isinstance(a, Imp) else None
    if isinstance(e, (ProjHole, Proj)):
        if not isinstance(a, And):
            return None
        return a.left if e.index == 1 else a.right
    if isinstance(e, (CaseHole, Case)):
        return e.ann if isinstance(a, Or) else None
    if isinstance(e, (AbortHole, Abort)):
        return e.ann if isinstance(a, Bot) else None
    if isinstance(e, (TyAppHole, TyApp)):
        if not isinstance(a, Forall):
            return None
        return subst_type_in_formula(e.arg, a.var, a.body)
    raise AtomlamError(f"not an elimination: {e!r}")
