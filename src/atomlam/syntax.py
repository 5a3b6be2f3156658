"""Formulas and proof terms for IPC, System F and System Fat.

Values are immutable; `==` on formulas and terms is alpha-equivalence
(binders compared by position, not by name), which is the equality used
everywhere in the toolkit; it and its hash key are read off the grammar
table, GRAMMAR, like every other traversal. User-chosen names are kept for
printing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import AtomlamError, NotTypable


class _Node:
    """Shared alpha-aware equality/hash for formulas and terms."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return _same(self, other)

    def __hash__(self):
        return hash(_canonical(self, ({}, {}), 0))

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
    #: a slot, so a node rebuilt from this one starts empty (rules._Once)
    __slots__ = ("_made",)


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


# --------------------------------------------------------- elim contexts

@dataclass(frozen=True, eq=False, repr=False)
class ElimContext(_Node):
    __slots__ = ()


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


# ----------------------------------------------------------------- grammar
#
# GRAMMAR gives each node class's fields in order, each with its role:
#   TERM, FORMULA  a term or formula child; a position is a tuple of
#                  indices among the TERM ones
#   BIND           a term binder, followed by its annotation and then by
#                  the term child it scopes over
#   TBIND          a type binder, scoping over the next field
#   DATA           plain data (a variable's name, a projection or
#                  injection index)
# Children, one-child rebuilds, free variables, substitution, elimination
# contexts and alpha-equivalence are all read off this table.

TERM, FORMULA, BIND, TBIND, DATA = "term", "formula", "bind", "tbind", "data"

GRAMMAR = {
    FVar: (DATA,),
    Bot: (),
    Imp: (FORMULA, FORMULA),
    And: (FORMULA, FORMULA),
    Or: (FORMULA, FORMULA),
    Forall: (TBIND, FORMULA),
    Var: (DATA,),
    Lam: (BIND, FORMULA, TERM),
    App: (TERM, TERM),
    Pair: (TERM, TERM),
    Proj: (DATA, TERM),
    Inj: (DATA, TERM, FORMULA, FORMULA),
    Case: (TERM, BIND, FORMULA, TERM, BIND, FORMULA, TERM, FORMULA),
    Abort: (TERM, FORMULA),
    TyLam: (TBIND, TERM),
    TyApp: (TERM, FORMULA),
}
# An elimination context has the fields of its root but the main premiss,
# the root's first term child.
_HOLES = {App: AppHole, Proj: ProjHole, Case: CaseHole, Abort: AbortHole,
          TyApp: TyAppHole}
_ROOT_OF = {hole: root for root, hole in _HOLES.items()}
GRAMMAR.update({hole: tuple(r for j, r in enumerate(GRAMMAR[root])
                            if j != GRAMMAR[root].index(TERM))
                for root, hole in _HOLES.items()})


def _getter(names):
    """The function from a node to the tuple of its fields `names`."""
    if len(names) != 1:
        return attrgetter(*names) if names else (lambda t: ())
    get = attrgetter(*names)
    return lambda t: (get(t),)


class _Shape:
    """One row of GRAMMAR in the forms the traversals read. `values` gives
    a node's fields in order, `data` the indices of its DATA fields,
    `names` those of its DATA and binder fields and `kid_fields` the names
    of its TERM fields. `walk` lists its TERM and FORMULA fields in order,
    each as (field index, index of the binder over it or None, that
    binder's sort: 0 for a term variable, 1 for a type variable)."""

    __slots__ = ("values", "kids", "children", "formulas", "data", "walk",
                 "names", "kid_fields")

    def __init__(self, cls, roles):
        names = [f.name for f in fields(cls)]
        self.values = _getter(names)
        self.kids = tuple(j for j, r in enumerate(roles) if r == TERM)
        forms = tuple(j for j, r in enumerate(roles) if r == FORMULA)
        self.children = _getter([names[j] for j in self.kids])
        self.formulas = _getter([names[j] for j in forms])
        self.data = tuple(j for j, r in enumerate(roles) if r == DATA)
        self.walk = tuple(
            (j, j - 2, 0) if j > 1 and roles[j - 2] == BIND
            else (j, j - 1, 1) if j and roles[j - 1] == TBIND
            else (j, None, None) for j in sorted(self.kids + forms))
        self.names = tuple(j for j, r in enumerate(roles)
                           if r not in (TERM, FORMULA))
        self.kid_fields = tuple(names[j] for j in self.kids)


_SHAPES = {cls: _Shape(cls, roles) for cls, roles in GRAMMAR.items()}
# per sort s (0: term variables, 1: type variables) and class, its fields'
# getter and the fields that can hold names of sort s, each as (field
# index, index of the binder of sort s over it or None, index of that
# binder's annotation or None)
_PLANS = tuple({cls: (shape.values, tuple(
    (j, k, None if s else k + 1) if sort == s else (j, None, None)
    for j, k, sort in shape.walk if s or j in shape.kids))
    for cls, shape in _SHAPES.items()} for s in (0, 1))
_OCCURRENCE = (Var, FVar)  # the class of a variable of each sort
TERM_SCOPES = _PLANS[0]  # a term's children, in position order


# ---------------------------------------------------- alpha-equivalence

def _same(a, b):
    """Whether a is b up to the names of their binders, where every binder
    above has one name on both sides, so that names compare as strings. A
    node whose binders are named apart (or data differ) goes to `_alpha`."""
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is Var or cls is FVar:
        return a.name == b.name
    shape = _SHAPES[cls]
    va, vb = shape.values(a), shape.values(b)
    for j in shape.names:
        if va[j] != vb[j]:
            return _alpha(a, b, ({}, {}), ({}, {}), 0, True)
    for j, _, _ in shape.walk:
        x, y = va[j], vb[j]
        if x is not y and not _same(x, y):
            return False
    return True


def _alpha(a, b, ma, mb, depth, same):
    """Whether a is b, up to the names of their binders. ma and mb are
    each a pair (term map, type map) from the names bound on that side to
    their binders' depths (de Bruijn levels); free names stay themselves.
    `same` holds while every binder passed had one name on both sides, so
    that one object equals itself."""
    if a is b and same:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is Var:
        return ma[0].get(a.name, a.name) == mb[0].get(b.name, b.name)
    if cls is FVar:
        return ma[1].get(a.name, a.name) == mb[1].get(b.name, b.name)
    shape = _SHAPES[cls]
    va, vb = shape.values(a), shape.values(b)
    for j in shape.data:
        if va[j] != vb[j]:
            return False
    for j, k, sort in shape.walk:
        if k is None:
            equal = _alpha(va[j], vb[j], ma, mb, depth, same)
        else:
            x, y = va[k], vb[k]
            ia, ib = list(ma), list(mb)
            ia[sort], ib[sort] = {**ma[sort], x: depth}, {**mb[sort], y: depth}
            equal = _alpha(va[j], vb[j], ia, ib, depth + 1, same and x == y)
        if not equal:
            return False
    return True


def _canonical(node, maps, depth):
    """node's key: its class name (a class hashes by its address, which
    varies between processes), data fields and children's keys, with each
    bound name replaced by its level in maps, as `_alpha` has them."""
    cls = node.__class__
    if cls is Var:
        return ("Var", maps[0].get(node.name, node.name))
    if cls is FVar:
        return ("FVar", maps[1].get(node.name, node.name))
    shape = _SHAPES[cls]
    vals = shape.values(node)
    key = [cls.__name__]
    for j in shape.data:
        key.append(vals[j])
    for j, k, sort in shape.walk:
        if k is None:
            key.append(_canonical(vals[j], maps, depth))
        else:
            inner = list(maps)
            inner[sort] = {**maps[sort], vals[k]: depth}
            key.append(_canonical(vals[j], inner, depth + 1))
    return tuple(key)


def canonical_key(node):
    """Hashable key equal exactly on alpha-equivalent nodes."""
    return _canonical(node, ({}, {}), 0)


# ---------------------------------------------------------- free variables

def _collect(t, occurrence, plans, bound, out):
    """Add to `out` the names of `occurrence`'s sort free in t's children
    and not in `bound`."""
    values, scopes = plans[t.__class__]
    if not scopes:
        return
    vals = values(t)
    for j, k, _ in scopes:
        kid, inner = vals[j], bound if k is None else bound | {vals[k]}
        if kid.__class__ is not occurrence:
            _collect(kid, occurrence, plans, inner, out)
        elif kid.name not in inner:
            out.add(kid.name)


def _free(nodes, sort):
    """Free names of `sort` (0: term variables, 1: type variables) in any
    of `nodes`."""
    occurrence, plans, out = _OCCURRENCE[sort], _PLANS[sort], set()
    for node in nodes:
        if node.__class__ is occurrence:
            out.add(node.name)
        else:
            _collect(node, occurrence, plans, frozenset(), out)
    return frozenset(out)


def free_type_vars(*nodes) -> frozenset:
    """Free type variables of formulas, or of terms (in their annotations
    and instantiation arguments)."""
    return _free(nodes, 1)


def free_vars(*terms: Term) -> frozenset:
    """Free term variables of terms."""
    return _free(terms, 0)


def fresh_name(base: str, avoid) -> str:
    """Smallest primed variant of `base` not in `avoid`."""
    name = base
    while name in avoid:
        name += "'"
    return name


# ------------------------------------------------------------ substitution

def _subst(b, x, node, sort):
    """Capture-avoiding [b/x]node for the name x of `sort`. A binder that
    would capture a free name of b is renamed to its smallest primed
    variant free in neither b nor its scope, and other than x. A subterm
    the substitution leaves unchanged is returned itself."""
    occurrence = _OCCURRENCE[sort]
    if b.__class__ is occurrence and b.name == x:
        return node  # [x/x] is the identity
    if node.__class__ is occurrence:
        return b if node.name == x else node
    return _subst_in(node, b, x, sort, occurrence, _PLANS[sort], [None])


def _subst_in(t, b, x, sort, occurrence, plans, free_b):
    """_subst below a node that is no occurrence; free_b holds b's free
    names once a binder has asked for them. The state goes in arguments:
    a closure over itself would leave a reference cycle per call."""
    values, scopes = plans[t.__class__]
    if not scopes:
        return t
    old, args = values(t), None
    for j, k, _ in scopes:
        kid = old[j]
        if k is not None:
            var = old[k]
            if var == x:
                continue
            if free_b[0] is None:
                free_b[0] = _free((b,), sort)
            if var in free_b[0] and x in _free((kid,), sort):
                new = fresh_name(var, free_b[0] | _free((kid,), sort) | {x})
                args = args or list(old)
                args[k], kid = new, _subst(occurrence(new), var, kid, sort)
        new = ((b if kid.name == x else kid) if kid.__class__ is occurrence
               else _subst_in(kid, b, x, sort, occurrence, plans, free_b))
        if new is not old[j]:
            args = args or list(old)
            args[j] = new
    return t if args is None else t.__class__(*args)


def subst_term(n: Term, x: str, m: Term) -> Term:
    """Capture-avoiding [n/x]m."""
    return _subst(n, x, m, 0)


def subst_type(b: Formula, x: str, node):
    """Capture-avoiding [b/x] in a formula, or in a term's annotations and
    instantiation arguments."""
    return _subst(b, x, node, 1)


# ------------------------------------------------------------- encodings

def encode_or(a: Formula, b: Formula) -> Formula:
    """Sum encoding: forall X. ((a -> X) & (b -> X)) -> X, X fresh for a, b."""
    x = fresh_name("X", free_type_vars(a, b))
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
    if f.var in free_type_vars(a, b):
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


# ------------------------------------------- children, positions, contexts

def term_children(t: Term):
    return _SHAPES[t.__class__].children(t)


def formula_children(node):
    """The formula fields of a formula or a term, in field order."""
    return _SHAPES[node.__class__].formulas(node)


class InvalidPath(AtomlamError):
    pass


def subterm_at(t: Term, pos) -> Term:
    for i in pos:
        kids = term_children(t)
        if not 0 <= i < len(kids):
            raise InvalidPath(f"no child {i} at {type(t).__name__}")
        t = kids[i]
    return t


def _with_child(t: Term, i: int, new: Term) -> Term:
    """t with its i-th child replaced by `new`: t's fields copied into a
    new node, not passed through the dataclass's __init__ (which would
    set each one through object.__setattr__, as t is frozen)."""
    cls = t.__class__
    fields_ = _SHAPES[cls].kid_fields
    if not 0 <= i < len(fields_):
        raise InvalidPath(f"no child {i} at {type(t).__name__}")
    node = object.__new__(cls)
    state = node.__dict__
    state.update(t.__dict__)
    state[fields_[i]] = new
    return node


def replace_at(t: Term, pos, new: Term) -> Term:
    spine = []
    for i in pos:
        spine.append(t)
        t = subterm_at(t, (i,))
    return _refill(spine, pos, new)


def _refill(spine, pos, new: Term) -> Term:
    """`new` put at `pos` below the nodes `spine` along pos, root first."""
    for t, i in zip(reversed(spine), reversed(pos)):
        new = _with_child(t, i, new)
    return new


# each hole's root built directly: the main premiss is the root's first
# field, except for a projection's, which follows its index
_FILL = {AppHole: lambda e, m: App(m, e.arg),
         ProjHole: lambda e, m: Proj(e.index, m),
         CaseHole: lambda e, m: Case(m, e.lvar, e.lann, e.lbody, e.rvar,
                                     e.rann, e.rbody, e.ann),
         AbortHole: lambda e, m: Abort(m, e.ann),
         TyAppHole: lambda e, m: TyApp(m, e.arg)}


def fill(e: ElimContext, m: Term) -> Term:
    """Fill the main-premiss hole of e with m."""
    return _FILL[e.__class__](e, m)


def split(t: Term):
    """(E, M) with fill(E, M) == t, M the main premiss of the elimination
    at t's root; None if t is not an App, Proj, Case, Abort or TyApp."""
    hole = _HOLES.get(t.__class__)
    if hole is None:
        return None
    args = list(_SHAPES[t.__class__].values(t))
    main = args.pop(_SHAPES[t.__class__].kids[0])
    return hole(*args), main


#: the connective each elimination's root class eliminates
ELIMINATES = {App: Imp, Proj: And, Case: Or, Abort: Bot, TyApp: Forall}


def hole_result(e, a: Formula):
    """The formula e yields when its hole has type a, or None when a's
    main connective is not the one e eliminates.

    `e` is an elimination context, or an elimination root standing for the
    context around its main premiss (the two carry the same fields), so a
    matcher can ask without building the context.
    """
    root = _ROOT_OF.get(e.__class__, e.__class__)
    eliminated = ELIMINATES.get(root)
    if eliminated is None:
        raise AtomlamError(f"not an elimination: {e!r}")
    if a.__class__ is not eliminated:
        return None
    if root is TyApp:
        return subst_type(e.arg, a.var, a.body)
    if root is Proj:
        return a.left if e.index == 1 else a.right
    return a.right if root is App else e.ann
