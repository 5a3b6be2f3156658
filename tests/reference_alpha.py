"""The canonical keys atomlam once decided alpha-equivalence with, kept as
the tests' oracle.

A key replaces every bound name (term and type) by its binder's index in
traversal order, so structural equality of keys is exactly
alpha-equivalence; free names stay as themselves. Each node class is spelt
out by hand, where `atomlam.syntax` walks both sides together and reads the
binders off its grammar table. The differential tests compare `==`, `hash`
and `canonical_key` with `_key(a) == _key(b)`.
"""

from atomlam import (Abort, And, App, Bot, Case, ElimContext, Forall,
                     Formula, FVar, Imp, Inj, Lam, Or, Pair, Proj, TyApp,
                     TyLam, Var, fill)
from atomlam.errors import AtomlamError

_HOLE = Var("\x00hole")  # what a context is filled with to key it


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
    if isinstance(node, ElimContext):
        return ("E", _tkey(fill(node, _HOLE), {}, {}, counter))
    return ("T", _tkey(node, {}, {}, counter))
