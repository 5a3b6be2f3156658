"""The typed traversal (`Scan`) of IPC, F and Fat terms, and its views:
typechecking, elimination-context typing, and the fineness predicate for
atomization/commuting redexes; redex search, the weight and normalization
read the same traversal.

Typechecking is syntax-directed (binders, injections, case and abort are
fully annotated), so no unification is needed. Formula equality is
alpha-equivalence throughout. A term binder that would shadow a declared
variable is silently alpha-renamed through a renaming map, so subterms
keep their names and positions. A type binder that would capture a type
variable free in the environment is renamed by substitution into its body,
unless the universal-introduction proviso is checked literally
(strict_proviso), which rejects it.
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
                     Forall, Formula, FVar, Imp, Inj, Lam, Or, Pair, Proj,
                     Term, TyApp, TyLam, Var, _with_child, fill,
                     formula_children, formula_size, free_type_vars,
                     free_vars, fresh_name, hole_result, is_encoded_bot,
                     match_encoded_or, replace_at, subst_type)


class SystemId(Enum):
    IPC = "ipc"
    F = "f"
    FAT = "fat"

    @classmethod
    def parse(cls, name: str) -> "SystemId":
        return cls(name.lower())


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
        new = Env()
        new._map = dict(self._map)
        new._map[name] = formula
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
        if self._ftv is None:  # asked at every type binder: keep it
            self._ftv = free_type_vars(*self._map.values())
        return self._ftv

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._map.items())
        return f"Env({{{inner}}})"


def formula_in_system(f: Formula, sys: SystemId) -> bool:
    """IPC formulas have no universal, F and Fat ones no sum or empty type."""
    excluded = Forall if sys is SystemId.IPC else (Or, Bot)
    todo = [f]
    while todo:
        g = todo.pop()
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
    if scan.root.ty is None:
        raise scan.error()
    return scan.root.ty


def typecheck_elim_context(sys: SystemId, env: Env, e: ElimContext,
                           hole_type: Formula) -> Formula:
    """Return B such that env | hole_type |- e : B: the type of e filled
    with a fresh variable of type hole_type."""
    if hole_result(e, hole_type) is None:
        raise HoleTypeMismatch(
            f"{type(e).__name__} does not eliminate {hole_type!r}", ())
    h = fresh_name("h", set(env.names()) | free_vars(e))
    return typecheck(sys, env.extend(h, hole_type), fill(e, Var(h)))


def _head_fine(kind: str, head_type, payload) -> bool:
    """Fineness from the type of a redex's head (None if untypable):
    'sum' needs the sum encoding of the branch annotations, 'bot' the
    empty-type encoding."""
    if head_type is None:
        return False
    if kind == "sum":
        parts = match_encoded_or(head_type)
        return (parts is not None and parts[0] == payload["lann"]
                and parts[1] == payload["rann"])
    return is_encoded_bot(head_type)


_NO_RENAMES = {}


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
        kind, Scan(env, payload["head"], (), ren, SystemId.F).root.ty, payload)


# ------------------------------------------------------- typed traversal

class _Info:
    """The traversal's result at one position: the subterm, the
    environment and binder renaming in force there, the children's
    results, and (when typing) the subterm's type, or None and `why` it
    has none, its weight `w` and this node's own weight term `pre` (0 if
    the node is no pre-redex). `own` lists the (rule, fine) matches at the
    node in RuleId order; `nfine` counts the fine ones in the subterm."""

    __slots__ = ("term", "env", "ren", "kids", "ty", "why", "w", "pre", "own",
                 "nfine")


class _Fail(Exception):
    """Why a node is untypable: the TypingError of its own check,
    positioned from the node, or the child whose error comes first."""


def _error(info, pos=()):
    """The first typing error in info's untypable subterm, with its
    position prefixed by `pos`."""
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
        if not formula_in_system(f, sys):
            raise _Fail(NotInSystem(f"formula not in {sys.value}: {f!r}"))


_IPC_ONLY = {Inj: "injection", Case: "case", Abort: "abort"}


def _capture(t, env):
    """The new name of the type binder t, renamed because it would capture
    a type variable free in env; None if it would not."""
    ftv = env.free_type_vars()
    if t.var not in ftv:
        return None
    return fresh_name(t.var, ftv | free_type_vars(t.body))


def _bind(env, ren, var, ann, body):
    """Environment and renaming map for a binder's body.

    A binder that shadows a declared variable gets the smallest primed
    variant not declared and not free in the body: the name renaming by
    substitution gives it, since a free variable that substitution renames
    is declared, and so is its new name.
    """
    if var not in env:
        return env.extend(var, ann), ren
    new = fresh_name(var, set(env.names()) | free_vars(body))
    return env.extend(new, ann), {**ren, var: new}


def _weight_terms(t, kids):
    """(W of the subterm, this node's own weight term) from the children.

    A pre-redex is an instantiation M C, C non-atomic, whose head M has
    the empty-type encoding, or a spine M C Q whose head has a sum
    encoding; its term is |C| * (1 + W of its subterms).
    """
    cls = t.__class__
    if cls is TyApp:
        sub = kids[0].w
        if t.arg.__class__ is not FVar and is_encoded_bot(kids[0].ty):
            size = formula_size(t.arg)
            return (size + 1) * sub + size, size * (1 + sub)
        return sub, 0
    if cls is App:
        fun = kids[0]
        sub = fun.w + kids[1].w
        if (fun.term.__class__ is TyApp and fun.term.arg.__class__ is not FVar
                and match_encoded_or(fun.kids[0].ty) is not None):
            size = formula_size(fun.term.arg)
            return (size + 1) * sub + size, size * (1 + sub)
        return sub, 0
    return sum(k.w for k in kids), 0


class Scan:
    """One bottom-up traversal of a term, with its result kept per position.

    Each node is visited once. The rules of `rules` that fit its node class
    are matched. A typed walk also types every node from its children's
    types, records why an untypable node fails, reads each match's
    fineness off its head's type, and combines the weight W (the root's
    `w`). The walk is typed in `system` when one is given (typecheck and
    context typing are views of such a scan), and otherwise in System F
    when a rule's fineness depends on a head's type (rho_*, delta, eps_*);
    else it types nothing. Binders extend the environment as in redex
    search; positions are those of the term. A Scan is never mutated:
    `after` returns a new one that shares every result off the contracted
    redex's ancestor path.
    """

    def __init__(self, env: Env, m: Term, rules=frozenset(), _ren=_NO_RENAMES,
                 system=None, strict_proviso=False):
        self.env = env
        self.rules = frozenset(rules)
        self._match = _rules.matchers_by_class(self.rules)
        self.typed = system is not None or any(
            _rules.RULES[r].fineness != "always" for r in self.rules)
        self.system = system or SystemId.F
        self.strict_proviso = strict_proviso
        self.root = self._build(m, env, _ren)

    def _build(self, t, env, ren):
        build = self._build
        if t.__class__ is TyLam and not self._match and self.typed:
            # a scan that only types builds a capturing binder's body
            # renamed, the body typecheck types
            var = _capture(t, env)
            body = t.body if var is None else subst_type(
                FVar(var), t.var, t.body)
            kids = (build(body, env, ren),)
        else:
            values, scopes = TERM_SCOPES[t.__class__]
            vals, kids = values(t), []
            for j, k, a in scopes:
                c = vals[j]
                kids.append(build(c, env, ren) if k is None else
                            build(c, *_bind(env, ren, vals[k], vals[a], c)))
            kids = tuple(kids)
        info = _Info()
        info.term, info.env, info.ren, info.kids = t, env, ren, kids
        self._finish(info, self._type(info) if self.typed else None)
        return info

    def _type(self, info):
        """Type of info's subterm from its children's; None, with
        `info.why` set, where typecheck raises. A node's system and
        annotation checks come first, then each child's error followed by
        the checks that use its type."""
        t, kids, sys = info.term, info.kids, self.system
        cls = t.__class__
        try:
            if cls is Var:
                ty = info.env.lookup(info.ren.get(t.name, t.name))
                if ty is None:
                    raise _Fail(UnboundVariable(f"unbound variable {t.name!r}"))
                return ty
            if cls is App:
                tf, ta = _typed(kids[0]), _typed(kids[1])
                _expect(isinstance(tf, Imp),
                        "applied term is not an implication", 0, None, tf)
                _expect(ta == tf.left, "argument type mismatch", 1, tf.left, ta)
                return tf.right
            if cls is TyApp:
                if sys is SystemId.IPC:
                    raise _Fail(NotInSystem("universal instantiation not in ipc"))
                if sys is SystemId.FAT and t.arg.__class__ is not FVar:
                    raise _Fail(NonAtomicInstantiation(
                        f"instantiation with non-atomic formula {t.arg!r}"))
                _within(sys, t.arg)
                tf = _typed(kids[0])
                _expect(isinstance(tf, Forall),
                        "instantiated term is not universal", 0, None, tf)
                return subst_type(t.arg, tf.var, tf.body)
            if cls is Lam:
                _within(sys, t.ann)
                return Imp(t.ann, _typed(kids[0]))
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
                var = _capture(t, info.env)
                if var is None:
                    return Forall(t.var, _typed(kids[0]))
                if self.strict_proviso:
                    raise _Fail(ForallProvisoViolated(
                        f"type variable {t.var!r} occurs free in the environment"))
                if not self._match:  # kids[0] is the renamed body's
                    return Forall(var, _typed(kids[0]))
                # kids[0] keeps the body's own names for the matches in it;
                # type the renamed body aside
                inner = Scan(info.env,
                             subst_type(FVar(var), t.var, t.body), (),
                             info.ren, sys).root
                if inner.ty is None:
                    raise _Fail(_error(inner, (0,)))
                return Forall(var, inner.ty)
            if sys is not SystemId.IPC:
                raise _Fail(NotInSystem(f"{_IPC_ONLY[cls]} not in {sys.value}"))
            if cls is Inj:
                _within(sys, t.left, t.right)
                want, tb = t.left if t.index == 1 else t.right, _typed(kids[0])
                _expect(tb == want, "injected term type mismatch", 0, want, tb)
                return Or(t.left, t.right)
            if cls is Abort:
                _within(sys, t.ann)
                tb = _typed(kids[0])
                _expect(isinstance(tb, Bot),
                        "aborted term is not of the empty type", 0, Bot(), tb)
                return t.ann
            _within(sys, t.lann, t.rann, t.ann)
            ts = _typed(kids[0])
            _expect(isinstance(ts, Or), "case scrutinee is not a disjunction",
                    0, None, ts)
            if ts.left != t.lann or ts.right != t.rann:
                raise _Fail(TypeMismatch(
                    "case branch annotations do not match scrutinee",
                    expected=Or(t.lann, t.rann), found=ts))
            for i, side in ((1, "left"), (2, "right")):
                tb = _typed(kids[i])
                _expect(tb == t.ann, f"{side} branch type mismatch", i, t.ann,
                        tb)
            return t.ann
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
        info.w, info.pre = (0, 0) if ty is None else _weight_terms(t, kids)
        own = ()
        nfine = 0
        for kid in kids:
            nfine += kid.nfine
        for rule, match, kind in self._match.get(t.__class__, ()):
            payload = match(t)
            if payload is None:
                continue
            fine = True
            if kind != "always":
                # heads sit on the spine of first children
                head = kids[0]
                while head.term is not payload["head"]:
                    head = head.kids[0]
                fine = _head_fine(kind, head.ty, payload)
            own += ((rule, fine),)
            nfine += fine
        info.own, info.nfine = own, nfine

    # ------------------------------------------------------------ views

    def redexes(self) -> list:
        """(position, rule, local env, fine) of every match, pre-order."""
        out = []

        def walk(info, pos):
            for rule, fine in info.own:
                out.append((pos, rule, info.env, fine))
            for i, kid in enumerate(info.kids):
                walk(kid, pos + (i,))

        walk(self.root, ())
        return out

    def fine_redex(self, k: int):
        """(position, rule, local env) of the k-th fine redex in pre-order,
        which is the order of (position, RuleId order)."""
        info, pos = self.root, ()
        while True:
            for rule, fine in info.own:
                if fine:
                    if k == 0:
                        return pos, rule, info.env
                    k -= 1
            for i, kid in enumerate(info.kids):
                if k < kid.nfine:
                    info, pos = kid, pos + (i,)
                    break
                k -= kid.nfine
            else:
                raise IndexError("fewer fine redexes than asked for")

    def innermost_fine_redex(self):
        """(position, rule, local env) of the first fine redex in pre-order
        with no fine redex strictly below it."""
        info, pos = self.root, ()
        while True:
            for i, kid in enumerate(info.kids):
                if kid.nfine:
                    info, pos = kid, pos + (i,)
                    break
            else:
                for rule, fine in info.own:
                    if fine:
                        return pos, rule, info.env
                raise IndexError("no fine redex")

    def weight_terms(self) -> list:
        """(position, local env, term) of every pre-redex, children first
        and an application's argument before its function."""
        out = []

        def walk(info, pos):
            kids = info.kids
            order = (1, 0) if info.term.__class__ is App else range(len(kids))
            for i in order:
                walk(kids[i], pos + (i,))
            if info.pre:
                out.append((pos, info.env, info.pre))

        walk(self.root, ())
        return out

    # ------------------------------------------------------- one step

    def after(self, pos, rule) -> "Scan":
        """The scan of the term with the `rule` redex at `pos` contracted.

        Only the contractum is traversed, in the environment in force at
        `pos`; the ancestors' results are recombined from their children.
        Their types stay as they were (untypable ones are typed again, to
        record why from the new children): the contractum must have the
        redex's type (subject reduction), and InternalInvariantViolation
        is raised if it does not.
        """
        path = [self.root]
        for i in pos:
            path.append(path[-1].kids[i])
        old = path[-1]
        new = self._build(_rules.apply_rule(rule, old.term), old.env, old.ren)
        if self.typed and old.ty is not None and new.ty != old.ty:
            raise InternalInvariantViolation(
                f"subject reduction failed: {rule.value} at {list(pos)} "
                f"changed the type")
        if old.ren and free_vars(new.term) != free_vars(old.term):
            # a renamed binder above took its name from its body's free
            # variables, which have changed: traverse the whole term again
            return Scan(self.env, replace_at(self.root.term, pos, new.term),
                        self.rules, system=self.system if self.typed else None,
                        strict_proviso=self.strict_proviso)
        retype = self.typed and old.ty is None
        for parent, i in zip(reversed(path[:-1]), reversed(pos)):
            info = _Info()
            info.term = _with_child(parent.term, i, new.term)
            info.env, info.ren = parent.env, parent.ren
            info.kids = parent.kids[:i] + (new,) + parent.kids[i + 1:]
            ty = parent.ty
            if retype or ty is None and self.typed:
                ty = self._type(info)
            self._finish(info, ty)
            new = info
        out = copy.copy(self)
        out.root = new
        return out
