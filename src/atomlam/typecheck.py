"""The typed traversal (`Scan`) of IPC, F and Fat terms, and its views:
typechecking, elimination-context typing, and the fineness predicate for
atomization/commuting redexes; redex search, the weight and normalization
read the same traversal.

Typechecking is syntax-directed (binders, injections, case and abort are
fully annotated), so no unification is needed. Formula equality is
alpha-equivalence throughout. A term binder that would shadow a declared
variable is silently alpha-renamed through a renaming map, so subterms
keep their names and positions. A type binder that would capture a type
variable free in the environment is renamed the same way: the map takes the
bound variable to its new name, and every formula a node reads (annotations
and instantiations) is read through it. The proviso of universal
introduction, checked literally (strict_proviso), rejects such a binder.

A Scan is kept open at a focus (Huet's zipper): the path from the root is
a stack of frames, and a step, or a view that visits a position, moves the
focus and rebuilds only the ancestors it moves up past.
"""

from __future__ import annotations

import copy
from enum import Enum

from . import rules as _rules
from .errors import (DuplicateDeclaration, ForallProvisoViolated,
                     HoleTypeMismatch, InternalInvariantViolation,
                     NonAtomicInstantiation, NotARedex, NotInSystem,
                     TypeMismatch, UnboundVariable)
from .syntax import (TERM_SCOPES, Abort, And, App, Bot, Case, ElimContext,
                     Forall, Formula, FVar, Imp, Inj, InvalidPath, Lam, Or,
                     Pair, Proj, Term, TyApp, TyLam, Var, _with_child, fill,
                     formula_children, formula_size, free_type_vars,
                     free_vars, fresh_name, hole_result, is_encoded_bot,
                     match_encoded_or, subst_type, _PLANS)


class SystemId(Enum):
    IPC = "ipc"
    F = "f"
    FAT = "fat"


class Env:
    """Ordered map from term variables to formulas; duplicates rejected."""

    __slots__ = ("_map", "_ftv")

    def __init__(self, bindings=()):
        self._map = {}
        self._ftv = None
        for name, formula in (bindings.items() if isinstance(bindings, dict) else bindings):
            if name in self._map:
                raise DuplicateDeclaration(f"variable {name!r} declared twice")
            self._map[name] = formula

    def extend(self, name: str, formula: Formula) -> "Env":
        if name in self._map:
            raise DuplicateDeclaration(f"variable {name!r} declared twice")
        new = object.__new__(Env)
        new._map, new._ftv = {**self._map, name: formula}, (self, formula)
        return new

    def lookup(self, name: str):
        return self._map.get(name)

    def __contains__(self, name):
        return name in self._map

    def __len__(self):
        return len(self._map)

    def names(self):
        return self._map.keys()

    def items(self):
        return self._map.items()

    def free_type_vars(self) -> frozenset:
        ftv = self._ftv  # None, or (env extended, formula), until asked
        if ftv.__class__ is not frozenset:  # asked at every type binder
            self._ftv = ftv = (
                free_type_vars(*self._map.values()) if ftv is None
                else ftv[0].free_type_vars() | free_type_vars(ftv[1]))
        return ftv

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._map.items())
        return f"Env({{{inner}}})"


def formula_in_system(f: Formula, sys: SystemId) -> bool:
    """IPC formulas have no universal, F and Fat ones no sum or empty type."""
    excluded = Forall if sys is SystemId.IPC else (Or, Bot)
    todo = [f]
    while todo:
        g = todo.pop()
        if g.__class__ is not FVar:
            if isinstance(g, excluded):
                return False
            todo.extend(formula_children(g))
    return True


def typecheck(sys: SystemId, env: Env, m: Term,
              strict_proviso: bool = False) -> Formula:
    """Return the unique formula A with env |- m : A in system `sys`, or
    raise the first TypingError met checking top-down and left to right,
    a node's annotations before its bodies.

    A type binder that would capture a type variable free in the
    environment is alpha-renamed, like a shadowing term binder, which
    discharges the universal-introduction proviso; strict_proviso=True
    rejects it with ForallProvisoViolated instead.
    """
    scan = Scan(env, m, system=sys, strict_proviso=strict_proviso)
    ty = scan.root.ty
    if ty is None:
        raise scan.error()
    return ty


def typecheck_elim_context(sys: SystemId, env: Env, e: ElimContext,
                           hole_type: Formula) -> Formula:
    """Return B such that env | hole_type |- e : B: the type of e filled
    with a fresh variable of type hole_type."""
    if hole_result(e, hole_type) is None:
        raise HoleTypeMismatch(
            f"{type(e).__name__} does not eliminate {hole_type!r}", ())
    h = fresh_name("h", set(env.names()) | free_vars(e))
    return typecheck(sys, env.extend(h, hole_type), fill(e, Var(h)))


def _head_fine(kind: str, head_type, payload, subs) -> bool:
    """Fineness from the type of a redex's head (None if untypable):
    'sum' needs the sum encoding of the branch annotations, read through
    the substitutions `subs` in force at the redex, 'bot' the empty-type
    encoding."""
    if head_type is None:
        return False
    if kind == "sum":
        parts = match_encoded_or(head_type)
        return (parts is not None
                and parts[0] == _renamed(payload["lann"], subs)
                and parts[1] == _renamed(payload["rann"], subs))
    return is_encoded_bot(head_type)


_NO_RENAMES = {}
#: the key of a renaming map's type part: the substitutions [b/x] of the
#: renamed type binders above, as (x, b) in the order they apply
_TY = None


def is_fine_redex(env: Env, m: Term, rule) -> bool:
    """Fineness of a root redex of `rule` in env.

    Atomization/delta/commuting case redexes are fine iff the head has the
    sum-encoded type built from the branch annotations; the abort variants
    are fine iff the head has the empty-type encoding. Detour and eta
    redexes are always fine, as are the IPC commuting rules. The head is
    typed by the traversal that redex search uses.
    """
    payload = _rules.match_rule(rule, m)
    if payload is None:
        raise NotARedex(f"term is not a {getattr(rule, 'value', rule)} redex")
    return _fine_match(env, rule, payload)


def _fine_match(env: Env, rule, payload, ren=_NO_RENAMES) -> bool:
    """is_fine_redex of the match `payload`, typing only the redex's head."""
    kind = _rules.RULES[rule].fineness
    return kind == "always" or _head_fine(
        kind, Scan(env, payload["head"], (), ren, SystemId.F).root.ty, payload,
        ren.get(_TY, ()))


# ------------------------------------------------------- typed traversal

class _Info:
    """The traversal's result at one position: the subterm, the children's
    results, and (when typing) the subterm's type, or None and `why` it
    has none, its weight `w` and this node's own weight term `pre` (0 if
    the node is no pre-redex). `own` lists the (rule, fine) matches at the
    node in RuleId order; `nfine` counts the fine ones in the subterm.
    `subs` is the type part of the renaming map it was built in, and
    `tyb` whether the subterm has a type binder inside (_tyb_of).

    A result depends only on its subterm, on the types of the subterm's
    free variables, on what `subs` does to its free type variables, and
    on the environment's free type variables (which decide the type
    binders inside that are renamed, so only where it has one), never on
    the names the environment gives the term variables: the environment
    in force at a position is read off the term on the way down to it
    (descend, and the views of a Scan). So one result can stand at
    several positions, and a step reuses the results of the subterms it
    copies, and those of the contractions made before on the same redex
    object.
    """

    __slots__ = ("term", "kids", "ty", "why", "w", "pre", "own", "nfine",
                 "free", "subs", "tyb")


_NO_NAMES = frozenset()


def _free_of(info):
    """The free term variables of info's subterm, kept on info (`free`)
    once asked for: a renamed binder asks for its body's, and a step for
    those of each subterm it copies."""
    free = info.free
    if free is None:
        t = info.term
        if t.__class__ is Var:
            free = frozenset((t.name,))
        else:  # a child's own set where it is the only one with names
            values, scopes = TERM_SCOPES[t.__class__]
            vals, free = values(t), _NO_NAMES
            for (_, k, _), kid in zip(scopes, info.kids):
                below = _free_of(kid)
                if k is not None and vals[k] in below:
                    below = below - {vals[k]}
                free = free | below if free else below
        info.free = free
    return free


def _tyb_of(info):
    """Whether info's subterm has a type binder inside, kept on info
    (`tyb`) once asked for: _reused asks for each result it reuses."""
    tyb = info.tyb
    if tyb is None:
        tyb = info.tyb = info.term.__class__ is TyLam or any(
            _tyb_of(kid) for kid in info.kids)
    return tyb


class _Fail(Exception):
    """Why a node is untypable: the TypingError of its own check,
    positioned from the node, or the child whose error comes first."""


def _error(info):
    """The first typing error in info's untypable subterm, positioned
    from info."""
    pos = ()
    while info.why.__class__ is _Info:
        kid = info.why
        pos += (info.kids.index(kid),)
        info = kid
    err = copy.copy(info.why)
    err.position = pos + err.position
    return err


def _typed(kid):
    """A child's type; _Fail(kid) if it has none."""
    if kid.ty is None:
        raise _Fail(kid)
    return kid.ty


def _expect(ok, message, i, expected, found):
    """A TypeMismatch at child i unless ok."""
    if not ok:
        raise _Fail(TypeMismatch(message, (i,), expected=expected,
                                 found=found))


def _within(sys, *formulas):
    """NotInSystem for the first of `formulas` that is not in sys."""
    for f in formulas:
        if f.__class__ is not FVar and not formula_in_system(f, sys):
            raise _Fail(NotInSystem(f"formula not in {sys.value}: {f!r}"))


_IPC_ONLY = {Inj: "injection", Case: "case", Abort: "abort"}


def _renamed(f, subs):
    """The formula f read through the substitutions `subs`, in turn, as
    substitution into each renamed binder's body would have applied them."""
    for x, b in subs:
        f = subst_type(FVar(b), x, f)
    return f


def _bind(env, ren, var, ann, body, memo=None):
    """Environment and renaming map for a binder's body. `body` is the
    scoped term, or its scan result, which keeps the term's free variables
    (_free_of) and, below a type binder (`ann` None), the map's type part;
    `memo` holds the free names of binders' bodies (_body_vars) that a
    term body is asked for.

    A term binder that shadows a declared variable gets the smallest
    primed variant not declared and not free in the body: the name
    renaming by substitution gives it, since a free variable that
    substitution renames is declared, and so is its new name.
    """
    subs = ren.get(_TY, ())
    if ann is None:
        new = (body.subs if body.__class__ is _Info
               else _tybind(env, subs, var, body, memo))
        return env, ren if new is subs else {**ren, _TY: new}
    if subs:
        ann = _renamed(ann, subs)
    if var not in env._map:
        return env.extend(var, ann), ren
    free = (_free_of(body) if body.__class__ is _Info
            else _body_vars(body, 0, memo))
    names, new = env.names(), var
    while new in names or new in free:  # fresh_name, without the union
        new += "'"
    return env.extend(new, ann), {**ren, var: new}


def _tybind(env, subs, var, body, memo):
    """The substitutions in force in the body of the type binder `var`
    when `subs` are in force at it: those of subs that reach the body, in
    turn, as subst_type applies them (the one for var stops at it, and one
    that would capture renames the binder first), then the binder's own
    renaming where it would capture a type variable free in env, to the
    name typecheck gives it."""
    ftv = env.free_type_vars()
    if not subs and var not in ftv:
        return subs
    free, out = _body_vars(body, 1, memo), []  # as renamed so far
    for x, b in subs:
        if var != x:
            if var == b and x in free:
                new = fresh_name(var, free | {b, x})
                out.append((var, new))
                free, var = free - {var} | {new} if var in free else free, new
            out.append((x, b))
            if x in free:
                free = free - {x} | {b}
    if var in ftv:
        out.append((var, fresh_name(var, ftv | free)))
    out = tuple(out)
    return subs if out == subs else out


def _body_vars(body, sort, memo):
    """The free names of `sort` (0: term variables, 1: type variables) in
    a binder's body, kept in memo[sort] by id (with the body, so the id
    stays its own). Walking a body keeps those of the bodies of the
    binders of that sort inside it, so a chain of binders that ask for
    them (shadowing term binders, capturing type binders), asked from the
    outermost down, is walked once."""
    hit = memo[sort].get(id(body))
    return _vars(body, sort, memo, True) if hit is None else hit[1]


def _vars(t, sort, memo, kept=False):
    """The free names of `sort` in the term t, kept in memo if `kept`
    (t is a binder's body); each binder's body's is read from memo, or
    walked and kept there."""
    if t.__class__ is Var:
        out = _NO_NAMES if sort else frozenset((t.name,))
    else:
        values, scopes = _PLANS[sort][t.__class__]
        vals, out = values(t), _NO_NAMES
        for j, k, _ in scopes:
            v = vals[j]
            if k is not None:
                hit = memo[sort].get(id(v))
                below = _vars(v, sort, memo, True) if hit is None else hit[1]
                if vals[k] in below:
                    below = below - {vals[k]}
            elif isinstance(v, Formula):
                below = free_type_vars(v)
            else:
                below = _vars(v, sort, memo)
            out = out | below if out else below
    if kept:
        memo[sort][id(t)] = t, out
    return out


#: each term class's children as TERM_SCOPES has them, with the body of a
#: type abstraction scoped by its binder (index 0, no annotation)
_SCOPES = {**TERM_SCOPES, TyLam: _PLANS[1][TyLam]}


def _scope(t, i, env, ren, kid):
    """The environment and renaming map in force in t's child i when env
    and ren are in force at t; `kid` is the child's scan result."""
    values, scopes = _SCOPES[t.__class__]
    _, k, a = scopes[i]
    if k is None:
        return env, ren
    vals = values(t)
    return _bind(env, ren, vals[k], a and vals[a], kid)


def descend(env: Env, m: Term, pos):
    """The subterm at `pos` in m, the environment and binder renaming in
    force there as Scan has them, and the nodes above it, root first."""
    ren, spine, memo = _NO_RENAMES, [], ({}, {})
    for i in pos:
        spine.append(m)
        values, scopes = _SCOPES[m.__class__]
        if not 0 <= i < len(scopes):
            raise InvalidPath(f"no child {i} at {type(m).__name__}")
        vals, (j, k, a) = values(m), scopes[i]
        if k is not None:
            env, ren = _bind(env, ren, vals[k], a and vals[a], vals[j], memo)
        m = vals[j]
    return m, env, ren, spine


def _lookup(env, ren, name):
    """The type env gives the variable `name`, read through ren."""
    return env._map.get(ren.get(name, name))


#: how deep W's pre-redex test reads: an application's function's class
#: and instantiation, and the type of that instantiation's head
_W_DEPTH = 2


def _pre_size(t, kids):
    """|C| if the application or instantiation t is a pre-redex (read off
    its children's results), else 0.

    A pre-redex is an instantiation M C, C non-atomic, whose head M has
    the empty-type encoding, or a spine M C Q whose head has a sum
    encoding; its weight term is |C| * (1 + W of its subterms).
    """
    if t.__class__ is TyApp:
        if t.arg.__class__ is not FVar and is_encoded_bot(kids[0].ty):
            return formula_size(t.arg)
        return 0
    fun = kids[0]
    if (fun.term.__class__ is TyApp and fun.term.arg.__class__ is not FVar
            and match_encoded_or(fun.kids[0].ty) is not None):
        return formula_size(fun.term.arg)
    return 0


def _reused(hit, env, ren):
    """The result of `hit`, a (result, environment, renaming) recorded for
    a subterm by _record, if it stands in env and ren as it stood there:
    each free variable has the same type, the type substitutions, where
    they differ, leave the subterm alone, and the environment has the same
    free type variables where a type binder inside reads them; else
    None."""
    info, was_env, was_ren = hit
    if env is was_env and ren is was_ren:
        return info
    subs = ren.get(_TY, ())
    if subs != info.subs and not free_type_vars(info.term).isdisjoint(
            [x for x, _ in subs + info.subs]):
        return None
    if _tyb_of(info) and env.free_type_vars() != was_env.free_type_vars():
        return None
    for name in _free_of(info):
        was, ty = _lookup(was_env, was_ren, name), _lookup(env, ren, name)
        if ty is not was and ty != was:
            return None
    return info


def _below(info, env, ren):
    """(result, environment, renaming) of each child of info's subterm, in
    position order, when env and ren are in force at it."""
    t = info.term
    return [(kid, *_scope(t, i, env, ren, kid))
            for i, kid in enumerate(info.kids)]


def _walk(info, pos, env, ren, out, post):
    """`out` with (result, position, environment) appended for info, at
    pos in env and ren, and for each result below it: in pre-order, or
    with `post` children first and an application's argument before its
    function."""
    kids = list(enumerate(_below(info, env, ren)))
    if not post:
        out.append((info, pos, env))
    elif info.term.__class__ is App:
        kids.reverse()
    for i, (kid, kid_env, kid_ren) in kids:
        _walk(kid, pos + (i,), kid_env, kid_ren, out, post)
    if post:
        out.append((info, pos, env))
    return out


def _record(info, env, ren, depth, out):
    """Record in `out`, by the identity of their subterms, the results
    below info down to `depth` levels, each with the environment and
    renaming in force at it when env and ren are in force at info."""
    for kid, kid_env, kid_ren in _below(info, env, ren):
        out[id(kid.term)] = kid, kid_env, kid_ren
        if depth > 1 and kid.kids:
            _record(kid, kid_env, kid_ren, depth - 1, out)


class _Frame:
    """One level of the path from a scan's root to its focus: the parent's
    result (as it was when the focus moved below it: only its child `i`
    may have changed since), the child's position and the (environment,
    renaming) in force at the child. The rest counts what lies off the
    child's subterm: the root's W is `a` * W(child) + `b`, and of the
    root's fine redexes `before` come before the child's subterm in
    pre-order, `left` of those in the siblings left of the path, and
    `outside` are not in the child's subterm at all. These hold while
    the ancestors keep their matches and pre-redex tests, which a step
    makes sure of by matching again those within the scan's read depth
    (Scan._open). The root frame has no parent and holds the scan's
    own environment."""

    __slots__ = ("up", "parent", "i", "pos", "env", "ren", "a", "b",
                 "before", "left", "outside")

    def __init__(self, up, parent, i, pos, env, ren, a, b, before, left,
                 outside):
        self.up, self.parent, self.i, self.pos = up, parent, i, pos
        self.env, self.ren, self.a, self.b = env, ren, a, b
        self.before, self.left, self.outside = before, left, outside


def _push(f, info, i, env, ren):
    """The frame below f for child i of info, where env and ren are in
    force at the child."""
    kid, a, pre = info.kids[i], f.a, info.pre
    if info.ty is None:  # an untypable node's W is 0
        a, b = 0, f.b
    elif pre:  # W is c * (the child's W) + d, with c = |C| + 1
        sub = info.w - pre
        c = 1 + pre // (1 + sub)
        a, b = a * c, a * (c * (sub - kid.w) + c - 1) + f.b
    else:
        b = a * (info.w - kid.w) + f.b
    left = own = 0
    if i:
        for k in info.kids[:i]:
            left += k.nfine
    for _, fine in info.own:
        own += fine
    return _Frame(f, info, i, f.pos + (i,), env, ren, a, b,
                  f.before + own + left, f.left + left,
                  f.outside + info.nfine - kid.nfine)


def _refilled(f, t):
    """The term with t at f's position: t put in place up the frames."""
    while f.up is not None:
        parent = f.parent
        t = (parent.term if t is parent.kids[f.i].term
             else _with_child(parent.term, f.i, t))
        f = f.up
    return t


class Scan:
    """One bottom-up traversal of a term, with its result kept per position.

    Each node is visited once. The rules of `rules` that fit its node class
    are matched. A typed walk also types every node from its children's
    types, records why an untypable node fails, reads each match's
    fineness off its head's type, and combines the weight W. The walk is
    typed in `system` when one is given (typecheck and context typing are
    views of such a scan), and otherwise in System F when a rule's
    fineness depends on a head's type (rho_*, delta, eps_*); else it types
    nothing. Binders extend the environment, and renamed ones the renaming
    map, as in redex search: a capturing type binder's body is built once,
    in every kind of scan, with the formulas its nodes read renamed
    through the map. Positions are those of the term.

    A scan is open at a focus: the result at one position, below a stack
    of frames (_Frame) up to the root. The root's W and fine-redex count
    (`w`, `nfine`) are read off the top frame in O(1). The views and
    `after` move the focus: down pushes a frame, and up rebuilds the
    parent only if the child has changed. `root` moves the focus to the
    root; `term` builds the scanned term without moving it. A Scan's
    results are never mutated, and the frames are shared: `after`
    returns a new scan, open at the step's position, that shares every
    result and frame off the contracted redex's path, and the results of
    the subterms the contraction copies, or else a fresh scan of the
    term. Moving one scan's focus leaves the scans derived from it
    alone.

    A step takes its contractum from the rule's row, which contracts each
    redex object once (rules._Once), so the copies a step makes of a redex
    stay one shared contractum. A scan and the scans `after` derives from
    it share a memo (`_memo`) of the results built for the contracta, by
    contractum object, and the free names of the binders' bodies that
    shadowing and capturing binders read (`_bodies`, see _body_vars).

    `depth` is how deep the results' matches, fineness and pre-redex
    tests read: the largest read depth of its rules' RULES rows and of
    W's pre-redex test, or None if a rule reads unboundedly deep.
    """

    #: the contractum `after` put at the focus, in the scans it makes
    made = None
    #: the ancestors of the focus, up from it, that the step that made
    #: this scan has left to be matched again (see _open)
    _again = 0

    def __init__(self, env: Env, m: Term, rules=frozenset(), _ren=_NO_RENAMES,
                 system=None, strict_proviso=False):
        self.env = env
        self.rules = frozenset(rules)
        self._match = _rules.matchers_by_class(self.rules)
        self.typed = system is not None or any(
            _rules.RULES[r].fineness != "always" for r in self.rules)
        self.system = system or SystemId.F
        self.strict_proviso = strict_proviso
        depths = [_W_DEPTH] + [_rules.RULES[r].depth for r in self.rules]
        self.depth = None if None in depths else max(depths)
        self._memo, self._bodies = {}, ({}, {})
        self._focus = self._build(m, env, _ren)
        self._frames = _Frame(None, None, None, (), env, _ren, 1, 0, 0, 0, 0)

    def _build(self, t, env, ren, found=None):
        """t's result in env and ren. With `found` (see _record), a child
        whose subterm has a result there that _reused accepts keeps it."""
        values, scopes = _SCOPES[t.__class__]
        vals, kids = values(t), []
        for j, k, a in scopes:
            c = vals[j]
            if k is None:
                kid_env, kid_ren = env, ren
            else:
                kid_env, kid_ren = _bind(env, ren, vals[k], a and vals[a], c,
                                         self._bodies)
            kid = found and found.get(id(c))
            if kid:
                kid = _reused(kid, kid_env, kid_ren)
            kids.append(kid or self._build(c, kid_env, kid_ren, found))
        info = _Info()
        info.term, info.kids, info.free, info.tyb = t, tuple(kids), None, None
        info.subs = ren.get(_TY, ())
        self._finish(info, self._type(info, env, ren) if self.typed else None)
        return info

    def _type(self, info, env, ren):
        """Type of info's subterm, in env and ren, from its children's;
        None, with `info.why` set, where typecheck raises. A node's system
        and annotation checks come first, then each child's error followed
        by the checks that use its type. The formulas the node carries are
        read through the substitutions of ren's type part, info.subs."""
        t, kids, sys, subs = info.term, info.kids, self.system, info.subs
        cls = t.__class__
        try:
            if cls is Var:
                ty = env._map.get(ren.get(t.name, t.name))
                if ty is None:
                    raise _Fail(UnboundVariable(f"unbound variable {t.name!r}"))
                return ty
            if cls is App:
                tf, ta = _typed(kids[0]), _typed(kids[1])
                _expect(isinstance(tf, Imp),
                        "applied term is not an implication", 0, None, tf)
                _expect(ta is tf.left or ta == tf.left,
                        "argument type mismatch", 1, tf.left, ta)
                return tf.right
            if cls is TyApp:
                if sys is SystemId.IPC:
                    raise _Fail(NotInSystem("universal instantiation not in ipc"))
                arg = _renamed(t.arg, subs) if subs else t.arg
                if sys is SystemId.FAT and arg.__class__ is not FVar:
                    raise _Fail(NonAtomicInstantiation(
                        f"instantiation with non-atomic formula {arg!r}"))
                _within(sys, arg)
                tf = _typed(kids[0])
                _expect(isinstance(tf, Forall),
                        "instantiated term is not universal", 0, None, tf)
                return subst_type(arg, tf.var, tf.body)
            if cls is Lam:
                ann = _renamed(t.ann, subs) if subs else t.ann
                _within(sys, ann)
                return Imp(ann, _typed(kids[0]))
            if cls is Pair:
                return And(_typed(kids[0]), _typed(kids[1]))
            if cls is Proj:
                tb = _typed(kids[0])
                _expect(isinstance(tb, And),
                        "projected term is not a conjunction", 0, None, tb)
                return tb.left if t.index == 1 else tb.right
            if cls is TyLam:
                if sys is SystemId.IPC:
                    raise _Fail(NotInSystem("type abstraction not in ipc"))
                # under the strict proviso a renamed binder above has failed
                # already, so only the binder's own variable is in question
                if self.strict_proviso and t.var in env.free_type_vars():
                    raise _Fail(ForallProvisoViolated(
                        f"type variable {t.var!r} occurs free in the environment"))
                # the name the body's substitutions give the bound variable
                var = _renamed(FVar(t.var), kids[0].subs).name
                return Forall(var, _typed(kids[0]))
            if sys is not SystemId.IPC:
                raise _Fail(NotInSystem(f"{_IPC_ONLY[cls]} not in {sys.value}"))
            if cls is Inj:
                left, right = _renamed(t.left, subs), _renamed(t.right, subs)
                _within(sys, left, right)
                want, tb = left if t.index == 1 else right, _typed(kids[0])
                _expect(tb == want, "injected term type mismatch", 0, want, tb)
                return Or(left, right)
            ann = _renamed(t.ann, subs)
            if cls is Abort:
                _within(sys, ann)
                tb = _typed(kids[0])
                _expect(isinstance(tb, Bot),
                        "aborted term is not of the empty type", 0, Bot(), tb)
                return ann
            lann, rann = _renamed(t.lann, subs), _renamed(t.rann, subs)
            _within(sys, lann, rann, ann)
            ts = _typed(kids[0])
            _expect(isinstance(ts, Or), "case scrutinee is not a disjunction",
                    0, None, ts)
            if ts.left != lann or ts.right != rann:
                raise _Fail(TypeMismatch(
                    "case branch annotations do not match scrutinee",
                    expected=Or(lann, rann), found=ts))
            for i, side in ((1, "left"), (2, "right")):
                tb = _typed(kids[i])
                _expect(tb == ann, f"{side} branch type mismatch", i, ann, tb)
            return ann
        except _Fail as e:
            info.why = e.args[0]
            return None

    def error(self):
        """The TypingError typecheck raises for the scanned term, whose
        (typed) root has type None."""
        return _error(self.root)

    def _finish(self, info, ty):
        t, kids = info.term, info.kids
        info.ty = ty
        if not self._match:  # typing only: no matches, and W is not asked
            info.w = info.pre = info.nfine = 0
            info.own = ()
            return
        nfine = sub = 0
        for kid in kids:
            nfine += kid.nfine
            sub += kid.w
        cls = t.__class__
        if ty is None:
            info.w = info.pre = 0
        else:  # W is the children's plus this node's weight term
            pre = _pre_size(t, kids) if cls is App or cls is TyApp else 0
            if pre:
                pre *= 1 + sub
            info.w, info.pre = sub + pre, pre
        own = ()
        for rule, match, kind in self._match.get(cls, ()):
            payload = match(t)
            if payload is None:
                continue
            fine = True
            if kind != "always":
                # heads sit on the spine of first children
                head = kids[0]
                while head.term is not payload["head"]:
                    head = head.kids[0]
                fine = _head_fine(kind, head.ty, payload, info.subs)
            own += ((rule, fine),)
            nfine += fine
        info.own, info.nfine = own, nfine

    # ------------------------------------------------------------ focus

    def _open(self):
        """The top frame and the focus, once the ancestors the step that
        made this scan has left (_again) are matched again, bottom up, and
        their frames made anew, keeping their environments. Every read of
        the scan but `term` starts here, as till then the matches and
        frames of those ancestors are stale."""
        if self._again:
            again, f, new = [], self._frames, self._focus
            for _ in range(self._again):
                new = self._rebuilt(f, new, True)
                again.append((f, new))
                f = f.up
            for g, parent in reversed(again):
                f = _push(f, parent, g.i, g.env, g.ren)
            self._frames, self._again = f, 0
        return self._frames, self._focus

    @property
    def root(self):
        """The root's result; the focus moves to the root."""
        if self._again:
            self._open()
        while self._frames.up is not None:
            self._up()
        return self._focus

    @property
    def term(self):
        """The scanned term, built up the frames; the focus stays."""
        return _refilled(self._frames, self._focus.term)

    @property
    def w(self):
        """The root's W, off the focus."""
        f, info = self._open()
        return f.a * info.w + f.b

    @property
    def nfine(self):
        """The number of fine redexes in the term, off the focus."""
        f, info = self._open()
        return info.nfine + f.outside

    def _up(self):
        """Move the focus to its parent, rebuilt (_rebuilt) if the child
        has changed."""
        f, new = self._frames, self._focus
        parent = f.parent
        if new is not parent.kids[f.i]:
            parent = self._rebuilt(f, new, False)
        self._focus, self._frames = parent, f.up

    def _rebuilt(self, f, new, again):
        """The result of f's parent, of the same type, with `new` for its
        child: matched again if `again`, else with the change of W and of
        the fine count carried up. W is sub + pre, where sub is the
        children's W and pre = |C| * (1 + sub) at a pre-redex (else 0),
        so |C| is read back off the old w and pre."""
        parent, i = f.parent, f.i
        old = parent.kids[i]
        info = _Info()
        info.term = _with_child(parent.term, i, new.term)
        info.kids = parent.kids[:i] + (new,) + parent.kids[i + 1:]
        info.free = info.tyb = None
        info.subs, ty = parent.subs, parent.ty
        if again:
            self._finish(info, ty)
            return info
        dw, pre = new.w - old.w, parent.pre
        if pre:
            size = pre // (1 + parent.w - pre)
            pre += size * dw
            dw *= size + 1
        info.ty, info.own = ty, parent.own
        info.w, info.pre = parent.w + dw, pre
        info.nfine = parent.nfine + new.nfine - old.nfine
        return info

    def _at(self, pos):
        """The result at pos, which becomes the focus: up to the longest
        prefix pos shares with the focus's position, then down."""
        here = self._open()[0].pos
        if here != pos:
            n = 0
            for a, b in zip(here, pos):
                if a != b:
                    break
                n += 1
            while len(self._frames.pos) > n:
                self._up()
            f, info = self._frames, self._focus
            for i in pos[n:]:
                if not 0 <= i < len(info.kids):
                    self._frames, self._focus = f, info
                    raise InvalidPath(
                        f"no child {i} at {type(info.term).__name__}")
                kid = info.kids[i]
                f = _push(f, info, i, *_scope(info.term, i, f.env, f.ren, kid))
                info = kid
            self._frames, self._focus = f, info
        return self._focus

    # ------------------------------------------------------------ views

    def redexes(self) -> list:
        """(position, rule, local env, fine) of every match, pre-order."""
        return [(pos, rule, env, fine) for info, pos, env in _walk(
            self.root, (), self.env, _NO_RENAMES, [], False)
            for rule, fine in info.own]

    def fine_redex(self, k: int):
        """(position, rule, local env) of the k-th fine redex in pre-order,
        which is the order of (position, RuleId order): up until the
        focus's subterm holds it, then down."""
        self._open()
        while not (self._frames.before <= k
                   < self._frames.before + self._focus.nfine
                   ) and self._frames.up is not None:
            self._up()
        f, info = self._frames, self._focus
        k -= f.before
        while True:
            for rule, fine in info.own:
                if fine:
                    if k == 0:
                        self._frames, self._focus = f, info
                        return f.pos, rule, f.env
                    k -= 1
            for i, kid in enumerate(info.kids):
                if k < kid.nfine:
                    break
                k -= kid.nfine
            else:
                raise IndexError("fewer fine redexes than asked for")
            f = _push(f, info, i, *_scope(info.term, i, f.env, f.ren, kid))
            info = kid

    def innermost_fine_redex(self):
        """(position, rule, local env) of the first fine redex in pre-order
        with no fine redex strictly below it: up until a descent from the
        root, which takes the first child with a fine redex, reaches the
        focus, then down."""
        self._open()
        while (self._frames.left or not self._focus.nfine
               ) and self._frames.up is not None:
            self._up()
        f, info = self._frames, self._focus
        while True:
            for i, kid in enumerate(info.kids):
                if kid.nfine:
                    break
            else:
                for rule, fine in info.own:
                    if fine:
                        self._frames, self._focus = f, info
                        return f.pos, rule, f.env
                raise IndexError("no fine redex")
            f = _push(f, info, i, *_scope(info.term, i, f.env, f.ren, kid))
            info = kid

    def at(self, pos):
        """The result at `pos` and the environment in force there."""
        return self._at(pos), self._frames.env

    def weight_terms(self) -> list:
        """(position, local env, term) of every pre-redex, children first
        and an application's argument before its function."""
        return [(pos, env, info.pre) for info, pos, env in _walk(
            self.root, (), self.env, _NO_RENAMES, [], True) if info.pre]

    # ------------------------------------------------------- one step

    def after(self, pos, rule) -> "Scan":
        """The scan of the term with the `rule` redex at `pos` contracted,
        open at pos (its contractum is `made`).

        Only the nodes the contraction creates are traversed, in the
        environment in force at `pos`. A subterm it copies from the redex
        (one found among the redex's results down to one below the rule's
        read depth) keeps its result wherever each of its free variables
        keeps its type. The contractum is the one the rule's row made for
        this redex object, if any caller had it contracted before; where
        this scan's lineage has built its result before (see the memo in
        Scan), that result is reused where _reused accepts it, and else
        built afresh. The contractum must have the redex's type (subject
        reduction), and InternalInvariantViolation is raised if it does
        not. The ancestors within the scan's depth
        of `pos` (all of them where a rule reads unboundedly deep) are
        matched again, and their frames made anew, on the new scan's
        first read but `term` (_open); the others keep their matches and
        pre-redex tests until the focus moves up past them (_rebuilt).

        The refilled term is scanned afresh instead, as this scan was
        built and in its lineage, where the frames would not hold: in a
        typed scan whose redex or an ancestor of it is untypable (a
        frame's `a` is 0 below one), as the ancestors may become
        typable; and where a binder renamed above `pos` avoids the free
        names of its body, which the step changed.
        """
        rule = rule if rule.__class__ is _rules.RuleId else _rules.RuleId(rule)
        old = self._at(pos)
        frames = self._frames
        env, ren = frames.env, frames.ren
        memo = self._memo
        if (rule, True) in old.own or (rule, False) in old.own:
            contractum = _rules.RULES[rule].contract(old.term)
        else:
            contractum = _rules.apply_rule(rule, old.term)
        # (contractum's result, env, ren); the result keeps the contractum
        made = memo.get(id(contractum))
        new = made and _reused(made, env, ren)
        if new is None:
            depth, found = _rules.RULES[rule].depth, None
            if depth is not None:
                found = {}
                _record(old, env, ren, depth + 1, found)
            hit = found and found.get(id(contractum))
            new = (hit and _reused(hit, env, ren)
                   or self._build(contractum, env, ren, found))
            memo[id(contractum)] = new, env, ren
        if self.typed and old.ty is not None and new.ty != old.ty:
            raise InternalInvariantViolation(
                f"subject reduction failed: {rule.value} at {list(pos)} "
                f"changed the type")
        if self.typed and (old.ty is None or not frames.a) or ren and (
                _free_of(old) != _free_of(new) or ren.get(_TY) and
                free_type_vars(old.term) != free_type_vars(contractum)):
            fresh = Scan(self.env, _refilled(frames, contractum), self.rules,
                         system=self.system if self.typed else None)
            fresh._memo, fresh._bodies = memo, self._bodies
            fresh.made = contractum
            return fresh
        out = object.__new__(Scan)
        out.__dict__.update(self.__dict__)
        out._focus, out.made = new, contractum
        out._again = len(pos) if self.depth is None else min(self.depth,
                                                             len(pos))
        return out
