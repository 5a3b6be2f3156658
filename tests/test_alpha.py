"""Alpha-equivalence: `==`, `hash` and `canonical_key` against the canonical
keys of tests/reference_alpha.py, binder-scope edge cases pinned by hand,
and deep chains, named apart at chosen levels, with the work `==` does on
them counted."""

import dataclasses
import sys
from collections import Counter
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from atomlam import (Abort, App, Case, ElimContext, Forall, Formula, FVar,
                     Imp, Lam, Proj, Term, TyApp, TyLam, Var, canonical_key,
                     fill, split, syntax)
from atomlam.syntax import formula_children, term_children
from reference_alpha import _key as oracle_key
from test_syntax import _uniquify, _uniquify_types, node_strategies

# a two-name pool per sort, so that shadowing and capture are common
names, tnames = st.sampled_from(["x", "y"]), st.sampled_from(["X", "Y"])
formulas, terms = node_strategies(names, tnames)
contexts = st.one_of(
    st.builds(App, terms, terms),
    st.builds(Proj, st.sampled_from([1, 2]), terms),
    st.builds(Case, terms, names, formulas, terms, names, formulas, terms,
              formulas),
    st.builds(Abort, terms, formulas),
    st.builds(TyApp, terms, formulas)).map(lambda t: split(t)[0])
nodes = st.one_of(formulas, terms, contexts)


def agrees(a, b):
    """Check `==`, `!=`, `hash` and `canonical_key` on a and b against the
    oracle's key equality, which is returned."""
    equal = oracle_key(a) == oracle_key(b)
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is (not equal)
    assert (canonical_key(a) == canonical_key(b)) is equal
    if equal:
        assert hash(a) == hash(b)
    return equal


# each binder field and the field it scopes over
_SCOPE = {"var": "body", "lvar": "lbody", "rvar": "rbody"}


def _rename(node, pick, tren=None, yren=None):
    """node with each binder renamed to pick(name, is a type binder) and
    the occurrences it binds renamed with it, with no capture check."""
    tren, yren = tren or {}, yren or {}
    if isinstance(node, Var):
        return Var(tren.get(node.name, node.name))
    if isinstance(node, FVar):
        return FVar(yren.get(node.name, node.name))
    args, scoped = {}, {}
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if f.name in _SCOPE:
            new = pick(v, isinstance(node, (Forall, TyLam)))
            scoped[_SCOPE[f.name]] = ((tren, {**yren, v: new})
                                      if isinstance(node, (Forall, TyLam))
                                      else ({**tren, v: new}, yren))
            v = new
        elif isinstance(v, (Formula, Term, ElimContext)):
            v = _rename(v, pick, *scoped.get(f.name, (tren, yren)))
        args[f.name] = v
    return type(node)(**args)


def _rename_one(node, n, new):
    """node with its n-th binder (in field order, counting from 0) and the
    occurrences it binds renamed to `new`."""
    seen = [-1]

    def pick(old, _):
        seen[0] += 1
        return new if seen[0] == n else old

    return _rename(node, pick)


# ------------------------------------------------- against the oracle

@settings(max_examples=200)
@given(nodes, nodes)
def test_eq_hash_and_key_agree_with_the_oracle_on_pairs(a, b):
    agrees(a, b)


@settings(max_examples=150)
@given(terms)
def test_every_binder_renamed_is_equal(t):
    assert agrees(t, _uniquify_types(_uniquify(t)))
    assert agrees(_uniquify_types(t), _uniquify(t))


@settings(max_examples=100)
@given(formulas)
def test_every_type_binder_renamed_is_equal(f):
    assert agrees(f, _uniquify_types(f))


@settings(max_examples=200)
@given(nodes, st.integers(0, 6), st.sampled_from(["x", "y", "X", "Y", "f"]))
def test_one_binder_renamed_agrees_with_the_oracle(node, n, new):
    agrees(node, _rename_one(node, n, new))


@settings(max_examples=150)
@given(nodes)
def test_binders_collapsed_agree_with_the_oracle(node):
    agrees(node, _rename(node, lambda old, is_type: "X" if is_type else "x"))


@settings(max_examples=60)
@given(formulas, terms, contexts)
def test_different_sorts_are_never_equal(f, t, e):
    assert not agrees(f, t)
    assert not agrees(e, fill(e, t))
    assert not agrees(Var("X"), FVar("X"))


# ------------------------------------------------- binder scopes by hand

def test_one_subterm_under_differently_named_binders():
    x, s = FVar("X"), App(Var("x"), Var("y"))
    assert not agrees(Lam("x", x, s), Lam("y", x, s))
    assert agrees(Lam("x", x, s), Lam("x", x, s))
    body = Imp(FVar("X"), FVar("Y"))
    assert not agrees(Forall("X", body), Forall("Y", body))
    inst = TyApp(Var("m"), body)
    assert not agrees(TyLam("X", inst), TyLam("Y", inst))
    # an identical subterm that mentions neither binder is still equal
    z = Var("z")
    assert agrees(Lam("x", x, z), Lam("y", x, z))


def test_case_branch_annotation_lies_outside_its_binder():
    def case(lvar, lann, lbody):
        return Case(Var("m"), lvar, lann, lbody, "y", FVar("Y"), Var("y"),
                    FVar("Z"))

    assert agrees(case("X", FVar("X"), Var("X")),
                  case("W", FVar("X"), Var("W")))
    assert not agrees(case("X", FVar("X"), Var("X")),
                      case("W", FVar("W"), Var("W")))
    assert agrees(Lam("X", FVar("X"), Var("X")), Lam("W", FVar("X"), Var("W")))
    assert not agrees(Lam("X", FVar("X"), Var("X")),
                      Lam("W", FVar("W"), Var("W")))
    # a type binder does scope over the annotation
    assert agrees(TyLam("X", case("x", FVar("X"), Var("x"))),
                  TyLam("W", case("x", FVar("W"), Var("x"))))


def test_term_and_type_variables_do_not_bind_each_other():
    assert agrees(TyLam("X", Var("X")), TyLam("Y", Var("X")))
    assert not agrees(TyLam("X", Var("X")), TyLam("Y", Var("Y")))
    m = Var("m")
    assert agrees(Lam("X", FVar("A"), TyApp(m, FVar("X"))),
                  Lam("Y", FVar("A"), TyApp(m, FVar("X"))))
    assert not agrees(Lam("X", FVar("A"), TyApp(m, FVar("X"))),
                      Lam("Y", FVar("A"), TyApp(m, FVar("Y"))))


# ---------------------------------------------------------------- depth

DEPTH = 800


def _chains(n):
    """A `forall`, a `->` and a `fun` chain DEPTH deep, each ending in the
    variable numbered n (bound in the `forall` and `fun` chains)."""
    forall, imp, fun = FVar(f"X{n}"), FVar(f"X{n}"), Var(f"x{n}")
    for i in range(DEPTH):
        forall = Forall(f"X{i}", forall)
        imp = Imp(FVar("A"), imp)
        fun = Lam(f"x{i}", FVar("A"), fun)
    return forall, imp, fun


def test_deep_chains_compare_and_hash():
    for x, y, z in zip(_chains(0), _chains(0), _chains(1)):
        assert x is not y and x == y and hash(x) == hash(y)
        assert canonical_key(x) == canonical_key(y)
        assert x != z and canonical_key(x) != canonical_key(z)


# Chains DEPTH deep whose binders are named by `name(i)` (level i from the
# root) and whose leaf is the variable bound at level `leaf`.

def _named_chains(name, leaf):
    """A `forall` chain and a `fun` chain."""
    forall, fun = FVar(name(leaf, True)), Var(name(leaf, False))
    for i in reversed(range(DEPTH)):
        forall = Forall(name(i, True), forall)
        fun = Lam(name(i, False), FVar("A"), fun)
    return forall, fun


def _plain(i, is_type):
    return f"X{i}" if is_type else f"x{i}"


def _apart_at(levels):
    """Names as _plain's, but primed at the given levels."""
    return lambda i, is_type: _plain(i, is_type) + "'" * (i in levels)


_APART = {"root": {0}, "leaf": {DEPTH - 1}, "every level": set(range(DEPTH))}


def test_deep_chains_named_apart_agree_with_the_oracle():
    for where, levels in _APART.items():
        for leaf in (0, DEPTH // 2, DEPTH - 1):
            for x, y in zip(_named_chains(_plain, leaf),
                            _named_chains(_apart_at(levels), leaf)):
                assert agrees(x, y), (where, leaf)


def test_deep_chains_differing_only_at_the_leaf_agree_with_the_oracle():
    for where, levels in [("nowhere", set())] + list(_APART.items()):
        for x, y in zip(_named_chains(_plain, DEPTH - 1),
                        _named_chains(_apart_at(levels), DEPTH - 2)):
            assert not agrees(x, y), where


def _size(node):
    """The number of nodes in node, formulas included."""
    return (1 + sum(map(_size, term_children(node)))
            + sum(map(_size, formula_children(node))))


@contextmanager
def _visits():
    """Count, per pair of nodes, the calls of `==`'s two walks on it. A
    profile hook adds no frame per level, as a wrapper would."""
    visits = Counter()
    walks = {syntax._same.__code__, syntax._alpha.__code__}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in walks:
            visits[id(frame.f_locals["a"]), id(frame.f_locals["b"])] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield visits
    finally:
        sys.setprofile(previous)


def test_deep_chains_visit_each_node_pair_at_most_twice():
    cases = [(_apart_at(levels), leaf)
             for levels in [set()] + list(_APART.values())
             for leaf in (DEPTH - 1, DEPTH - 2)]
    for name, leaf in cases:
        for x, y in zip(_named_chains(_plain, DEPTH - 1),
                        _named_chains(name, leaf)):
            with _visits() as visits:
                equal = x == y
            assert equal is (leaf == DEPTH - 1)
            assert max(visits.values()) <= 2
            assert sum(visits.values()) <= 2 * _size(x)


@settings(max_examples=200)
@given(nodes, st.integers(0, 6), st.sampled_from(["x", "y", "X", "Y", "f"]))
def test_eq_visits_at_most_twice_the_nodes(node, n, new):
    other = _rename_one(node, n, new)
    with _visits() as visits:
        node == other
    assert sum(visits.values()) <= 2 * _size(node)
