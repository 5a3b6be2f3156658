"""Typecheckers for the three systems, elimination-context typing, the
fineness predicate for atomization/commuting redexes, and the typed
traversal (`Scan`) behind redex search, the weight and normalization.

Typechecking is syntax-directed (binders, injections, case and abort are
fully annotated), so no unification is needed. Formula equality is
alpha-equivalence throughout. A term binder that would shadow a declared
variable is silently alpha-renamed; type binders are not, so the
universal-introduction proviso is checked against the literal binder name.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum

from . import rules as _rules
from .errors import (DuplicateDeclaration, ForallProvisoViolated,
                     HoleTypeMismatch, InternalInvariantViolation,
                     NonAtomicInstantiation, NotARedex, NotInSystem,
                     TypeMismatch, UnboundVariable)
from .syntax import (Abort, And, App, AppHole, AbortHole, Bot, Case, CaseHole,
                     ElimContext, Forall, Formula, FVar, Imp, Inj, Lam, Or,
                     Pair, Proj, Term, TyApp, TyAppHole, TyLam, Var,
                     _with_child, formula_size, free_type_vars,
                     free_type_vars_term, free_vars, fresh_name, hole_result,
                     is_encoded_bot, match_encoded_or, replace_at,
                     subst_term, subst_type_in_formula, subst_type_in_term,
                     term_children)


class SystemId(Enum):
    IPC = "ipc"
    F = "f"
    FAT = "fat"

    @classmethod
    def parse(cls, name: str) -> "SystemId":
        return cls(name.lower())


class Env:
    """Ordered map from term variables to formulas; duplicates rejected."""

    __slots__ = ("_map",)

    def __init__(self, bindings=()):
        self._map = {}
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
        out = frozenset()
        for f in self._map.values():
            out |= free_type_vars(f)
        return out

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._map.items())
        return f"Env({{{inner}}})"


@dataclass(frozen=True)
class FormulaClass:
    """Connective usage of a formula: which systems it belongs to."""

    has_or_bot: bool
    has_forall: bool

    @property
    def in_ipc(self) -> bool:
        return not self.has_forall

    @property
    def in_f(self) -> bool:
        return not self.has_or_bot


def _uses(f: Formula, connectives) -> bool:
    """Whether a connective among the classes `connectives` occurs in f."""
    if isinstance(f, connectives):
        return True
    if isinstance(f, (Imp, And, Or)):
        return _uses(f.left, connectives) or _uses(f.right, connectives)
    if isinstance(f, Forall):
        return _uses(f.body, connectives)
    if isinstance(f, (FVar, Bot)):
        return False
    raise TypeError(f"not a formula: {f!r}")


def system_of_formula(f: Formula) -> FormulaClass:
    return FormulaClass(_uses(f, (Or, Bot)), _uses(f, Forall))


def formula_in_system(f: Formula, sys: SystemId) -> bool:
    """IPC formulas have no universal, F and Fat ones no sum or empty type."""
    return not _uses(f, Forall if sys is SystemId.IPC else (Or, Bot))


def _check_formula(f, sys, pos):
    if not formula_in_system(f, sys):
        raise NotInSystem(f"formula not in {sys.value}: {f!r}", pos)


def _enter_binder(env, var, ann, body):
    """Extend env with var:ann, alpha-renaming the binder if it shadows."""
    if var not in env:
        return env.extend(var, ann), var, body
    new = fresh_name(var, set(env.names()) | free_vars(body))
    return env.extend(new, ann), new, subst_term(Var(new), var, body)


def typecheck(sys: SystemId, env: Env, m: Term,
              strict_proviso: bool = False) -> Formula:
    """Return the unique formula A with env |- m : A in system `sys`.

    A type binder that collides with a type variable free in the
    environment is silently alpha-renamed, exactly like a shadowing term
    binder; the universal-introduction proviso is thereby discharged by
    the renaming convention. Pass strict_proviso=True to instead reject
    such a binder with ForallProvisoViolated (the literal on-demand check
    against the environment's free type variables).
    """

    def go(t, env, pos):
        if isinstance(t, Var):
            f = env.lookup(t.name)
            if f is None:
                raise UnboundVariable(f"unbound variable {t.name!r}", pos)
            return f
        if isinstance(t, Lam):
            _check_formula(t.ann, sys, pos)
            env2, _, body = _enter_binder(env, t.var, t.ann, t.body)
            return Imp(t.ann, go(body, env2, pos + (0,)))
        if isinstance(t, App):
            tf = go(t.fun, env, pos + (0,))
            ta = go(t.arg, env, pos + (1,))
            if not isinstance(tf, Imp):
                raise TypeMismatch("applied term is not an implication",
                                   pos + (0,), expected=None, found=tf)
            if ta != tf.left:
                raise TypeMismatch("argument type mismatch", pos + (1,),
                                   expected=tf.left, found=ta)
            return tf.right
        if isinstance(t, Pair):
            return And(go(t.fst, env, pos + (0,)), go(t.snd, env, pos + (1,)))
        if isinstance(t, Proj):
            tb = go(t.body, env, pos + (0,))
            if not isinstance(tb, And):
                raise TypeMismatch("projected term is not a conjunction",
                                   pos + (0,), expected=None, found=tb)
            return tb.left if t.index == 1 else tb.right
        if isinstance(t, Inj):
            if sys is not SystemId.IPC:
                raise NotInSystem(f"injection not in {sys.value}", pos)
            _check_formula(t.left, sys, pos)
            _check_formula(t.right, sys, pos)
            tb = go(t.body, env, pos + (0,))
            want = t.left if t.index == 1 else t.right
            if tb != want:
                raise TypeMismatch("injected term type mismatch", pos + (0,),
                                   expected=want, found=tb)
            return Or(t.left, t.right)
        if isinstance(t, Case):
            if sys is not SystemId.IPC:
                raise NotInSystem(f"case not in {sys.value}", pos)
            for f in (t.lann, t.rann, t.ann):
                _check_formula(f, sys, pos)
            ts = go(t.scrut, env, pos + (0,))
            if not isinstance(ts, Or):
                raise TypeMismatch("case scrutinee is not a disjunction",
                                   pos + (0,), expected=None, found=ts)
            if ts.left != t.lann or ts.right != t.rann:
                raise TypeMismatch("case branch annotations do not match scrutinee",
                                   pos, expected=Or(t.lann, t.rann), found=ts)
            envl, _, lbody = _enter_binder(env, t.lvar, t.lann, t.lbody)
            tl = go(lbody, envl, pos + (1,))
            if tl != t.ann:
                raise TypeMismatch("left branch type mismatch", pos + (1,),
                                   expected=t.ann, found=tl)
            envr, _, rbody = _enter_binder(env, t.rvar, t.rann, t.rbody)
            tr = go(rbody, envr, pos + (2,))
            if tr != t.ann:
                raise TypeMismatch("right branch type mismatch", pos + (2,),
                                   expected=t.ann, found=tr)
            return t.ann
        if isinstance(t, Abort):
            if sys is not SystemId.IPC:
                raise NotInSystem(f"abort not in {sys.value}", pos)
            _check_formula(t.ann, sys, pos)
            tb = go(t.body, env, pos + (0,))
            if not isinstance(tb, Bot):
                raise TypeMismatch("aborted term is not of the empty type",
                                   pos + (0,), expected=Bot(), found=tb)
            return t.ann
        if isinstance(t, TyLam):
            if sys is SystemId.IPC:
                raise NotInSystem("type abstraction not in ipc", pos)
            var, body = t.var, t.body
            if var in env.free_type_vars():
                if strict_proviso:
                    raise ForallProvisoViolated(
                        f"type variable {var!r} occurs free in the environment",
                        pos)
                var = fresh_name(var, env.free_type_vars()
                                 | free_type_vars_term(body))
                body = subst_type_in_term(FVar(var), t.var, body)
            return Forall(var, go(body, env, pos + (0,)))
        if isinstance(t, TyApp):
            if sys is SystemId.IPC:
                raise NotInSystem("universal instantiation not in ipc", pos)
            if sys is SystemId.FAT and not isinstance(t.arg, FVar):
                raise NonAtomicInstantiation(
                    f"instantiation with non-atomic formula {t.arg!r}", pos)
            _check_formula(t.arg, sys, pos)
            tf = go(t.fun, env, pos + (0,))
            if not isinstance(tf, Forall):
                raise TypeMismatch("instantiated term is not universal",
                                   pos + (0,), expected=None, found=tf)
            return subst_type_in_formula(t.arg, tf.var, tf.body)
        raise TypeError(f"not a term: {t!r}")

    return go(m, env, ())


def typecheck_elim_context(sys: SystemId, env: Env, e: ElimContext,
                           hole_type: Formula) -> Formula:
    """Return B such that env | hole_type |- e : B."""
    if isinstance(e, (CaseHole, AbortHole)) and sys is not SystemId.IPC:
        raise NotInSystem(f"{type(e).__name__} not in {sys.value}", ())
    if isinstance(e, TyAppHole):
        if sys is SystemId.IPC:
            raise NotInSystem("instantiation context not in ipc", ())
        if sys is SystemId.FAT and not isinstance(e.arg, FVar):
            raise NonAtomicInstantiation(
                f"instantiation with non-atomic formula {e.arg!r}", ())
    result = hole_result(e, hole_type)
    if result is None:
        raise HoleTypeMismatch(
            f"{type(e).__name__} does not eliminate {hole_type!r}", ())
    if isinstance(e, AppHole):
        ta = typecheck(sys, env, e.arg)
        if ta != hole_type.left:
            raise TypeMismatch("context argument type mismatch", (),
                               expected=hole_type.left, found=ta)
    if isinstance(e, CaseHole):
        if hole_type.left != e.lann or hole_type.right != e.rann:
            raise HoleTypeMismatch("context branch annotations do not match hole type", ())
        envl, _, lbody = _enter_binder(env, e.lvar, e.lann, e.lbody)
        tl = typecheck(sys, envl, lbody)
        if tl != e.ann:
            raise TypeMismatch("left branch type mismatch", (1,),
                               expected=e.ann, found=tl)
        envr, _, rbody = _enter_binder(env, e.rvar, e.rann, e.rbody)
        tr = typecheck(sys, envr, rbody)
        if tr != e.ann:
            raise TypeMismatch("right branch type mismatch", (2,),
                               expected=e.ann, found=tr)
    return result


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


def is_fine_redex(env: Env, m: Term, rule, _ren=_NO_RENAMES) -> bool:
    """Fineness of a root redex of `rule` in env.

    Atomization/delta/commuting case redexes are fine iff the head has the
    sum-encoded type built from the branch annotations; the abort variants
    are fine iff the head has the empty-type encoding. Detour and eta
    redexes are always fine, as are the IPC commuting rules. The head is
    typed by the traversal that redex search uses; `_ren` maps the names
    of shadowing binders above m to their names in env.
    """
    payload = _rules.match_rule(rule, m)
    if payload is None:
        raise NotARedex(f"term is not a {getattr(rule, 'value', rule)} redex")
    kind = _rules.fineness_kind(rule)
    if kind == "always":
        return True
    return _head_fine(kind, Scan(env, payload["head"], {rule}, _ren).root.ty,
                      payload)


# ------------------------------------------------------- typed traversal

class _Info:
    """The traversal's result at one position: the subterm, the
    environment and binder renaming in force there, the children's
    results, and (when typing) the subterm's F type, or None if it is
    untypable, its weight `w` and this node's own weight term `pre` (0 if
    the node is no pre-redex). `own` lists the (rule, fine) matches at the
    node in RuleId order; `nfine` counts the fine ones in the subterm."""

    __slots__ = ("term", "env", "ren", "kids", "ty", "w", "pre", "own", "nfine")


def _bind(env, ren, var, ann, body):
    """Environment and renaming map for a binder's body.

    A binder that shadows a declared variable gets the smallest primed
    variant not declared and not free in the body. That is the name
    _enter_binder picks after substituting earlier renamings into the
    body: a free variable such a substitution renames is declared, and so
    is its new name, so both avoid sets are the same. (The body's free
    names matter only where it mentions an undeclared variable.)
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
    are matched. When a rule's fineness depends on a head's type (rho_*,
    delta, eps_*), the walk also types every node in System F from its
    children's types, reads each match's fineness off its head's type, and
    combines the weight W (the root's `w`). Otherwise it types nothing.
    Binders extend the environment as in redex search; positions are
    those of the term. A Scan is never mutated: `after` returns a new one
    that shares every result off the contracted redex's ancestor path.
    """

    def __init__(self, env: Env, m: Term, rules=frozenset(), _ren=_NO_RENAMES):
        self.env = env
        self.rules = frozenset(rules)
        self._match = _rules.matchers_by_class(self.rules)
        self.typed = any(_rules.fineness_kind(r) != "always" for r in self.rules)
        self.root = self._build(m, env, _ren)

    def _build(self, t, env, ren):
        cls = t.__class__
        build = self._build
        if cls is App:
            kids = (build(t.fun, env, ren), build(t.arg, env, ren))
        elif cls is Var:
            kids = ()
        elif cls is Lam:
            kids = (build(t.body, *_bind(env, ren, t.var, t.ann, t.body)),)
        elif cls is Case:
            kids = (build(t.scrut, env, ren),
                    build(t.lbody, *_bind(env, ren, t.lvar, t.lann, t.lbody)),
                    build(t.rbody, *_bind(env, ren, t.rvar, t.rann, t.rbody)))
        else:
            kids = tuple([build(c, env, ren) for c in term_children(t)])
        info = _Info()
        info.term, info.env, info.ren, info.kids = t, env, ren, kids
        self._finish(info, self._type(info) if self.typed else None)
        return info

    def _type(self, info):
        """F type of info's subterm from its children's, as typecheck
        (SystemId.F) would give it; None where typecheck would raise."""
        t, kids = info.term, info.kids
        cls = t.__class__
        if cls is Var:
            return info.env.lookup(info.ren.get(t.name, t.name))
        if cls is App:
            tf, ta = kids[0].ty, kids[1].ty
            if isinstance(tf, Imp) and ta is not None and ta == tf.left:
                return tf.right
            return None
        if cls is TyApp:
            tf = kids[0].ty
            if not isinstance(tf, Forall) or not formula_in_system(t.arg, SystemId.F):
                return None
            return subst_type_in_formula(t.arg, tf.var, tf.body)
        if cls is Lam:
            tb = kids[0].ty
            if tb is None or not formula_in_system(t.ann, SystemId.F):
                return None
            return Imp(t.ann, tb)
        if cls is Pair:
            tl, tr = kids[0].ty, kids[1].ty
            return None if tl is None or tr is None else And(tl, tr)
        if cls is Proj:
            tb = kids[0].ty
            if not isinstance(tb, And):
                return None
            return tb.left if t.index == 1 else tb.right
        if cls is TyLam:
            env_ftv = info.env.free_type_vars()
            if t.var not in env_ftv:
                tb = kids[0].ty
                return None if tb is None else Forall(t.var, tb)
            # typecheck renames a binder that would capture an environment
            # variable; type the renamed body the same way
            var = fresh_name(t.var, env_ftv | free_type_vars_term(t.body))
            body = subst_type_in_term(FVar(var), t.var, t.body)
            tb = Scan(info.env, body, self.rules, info.ren).root.ty
            return None if tb is None else Forall(var, tb)
        return None  # injection, case and abort are not F terms

    def _finish(self, info, ty):
        t, kids = info.term, info.kids
        info.ty = ty
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
        Their types stay as they were: the contractum must have the
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
                        self.rules)
        retype = self.typed and old.ty is None
        for parent, i in zip(reversed(path[:-1]), reversed(pos)):
            info = _Info()
            info.term = _with_child(parent.term, i, new.term)
            info.env, info.ren = parent.env, parent.ren
            info.kids = parent.kids[:i] + (new,) + parent.kids[i + 1:]
            self._finish(info, self._type(info) if retype else parent.ty)
            new = info
        out = copy.copy(self)
        out.root = new
        return out
