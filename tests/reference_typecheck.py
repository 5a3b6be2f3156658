"""A second, independent typechecker kept as the tests' oracle.

It recurses top-down and renames a shadowing binder by substituting a fresh
name into its body, where `atomlam.typecheck.Scan` types bottom-up and
renames through a map. The differential tests compare the two on every
formula and on every error's class, message, position, expected and found.
"""

from atomlam import (Abort, And, App, Bot, Case, Forall, FVar, Imp, Inj, Lam,
                     Or, Pair, Proj, SystemId, TyApp, TyLam, Var, fresh_name,
                     free_type_vars, free_vars, subst_term, subst_type)
from atomlam.errors import (ForallProvisoViolated, NonAtomicInstantiation,
                            NotInSystem, TypeMismatch, UnboundVariable)
from atomlam.typecheck import formula_in_system


def _check_formula(f, sys, pos):
    if not formula_in_system(f, sys):
        raise NotInSystem(f"formula not in {sys.value}: {f!r}", pos)


def enter_binder(env, var, ann, body):
    """Extend env with var:ann, alpha-renaming the binder if it shadows."""
    if var not in env:
        return env.extend(var, ann), var, body
    new = fresh_name(var, set(env.names()) | free_vars(body))
    return env.extend(new, ann), new, subst_term(Var(new), var, body)


def enter_type_binder(env, var, body):
    """The name and body of a type binder, alpha-renamed by substitution
    into its body if var is free in env."""
    if var not in env.free_type_vars():
        return var, body
    new = fresh_name(var, env.free_type_vars() | free_type_vars(body))
    return new, subst_type(FVar(new), var, body)


def reference_typecheck(sys, env, m, strict_proviso=False):
    """The formula of m in env and system `sys`, or the first TypingError
    in a top-down, left-to-right walk (annotations before bodies)."""

    def go(t, env, pos):
        if isinstance(t, Var):
            f = env.lookup(t.name)
            if f is None:
                raise UnboundVariable(f"unbound variable {t.name!r}", pos)
            return f
        if isinstance(t, Lam):
            _check_formula(t.ann, sys, pos)
            env2, _, body = enter_binder(env, t.var, t.ann, t.body)
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
            envl, _, lbody = enter_binder(env, t.lvar, t.lann, t.lbody)
            tl = go(lbody, envl, pos + (1,))
            if tl != t.ann:
                raise TypeMismatch("left branch type mismatch", pos + (1,),
                                   expected=t.ann, found=tl)
            envr, _, rbody = enter_binder(env, t.rvar, t.rann, t.rbody)
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
            if strict_proviso and t.var in env.free_type_vars():
                raise ForallProvisoViolated(
                    f"type variable {t.var!r} occurs free in the environment",
                    pos)
            var, body = enter_type_binder(env, t.var, t.body)
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
            return subst_type(t.arg, tf.var, tf.body)
        raise TypeError(f"not a term: {t!r}")

    return go(m, env, ())
