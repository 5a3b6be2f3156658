"""The grammar table in atomlam.syntax and what is derived from it:
children, one-child rebuilds, positions and elimination contexts."""

import dataclasses

import pytest
from hypothesis import given, settings

from atomlam import ElimContext, Formula, Term, Var, fill, parse_term, split
from atomlam.syntax import (GRAMMAR, InvalidPath, _with_child, replace_at,
                            subterm_at, term_children)
from test_syntax import terms

pt = parse_term

# one term of each class, children distinct
SAMPLES = [pt(src) for src in (
    "m", "fun x:A => m x", "m n", "<m, n>", "m.2", "in1[A|B] m",
    "case m of { x:A => n x ; y:B => p y } : C", "abort[C] m",
    "tfun X => m [X]", "m [A -> A]")]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_node_class_has_one_role_per_field():
    classes = [c for base in (Formula, Term, ElimContext)
               for c in _subclasses(base)]
    assert set(classes) == set(GRAMMAR)
    for cls in classes:
        assert len(GRAMMAR[cls]) == len(dataclasses.fields(cls)), cls
    assert {type(t) for t in SAMPLES} == set(_subclasses(Term))


def test_one_child_rebuilds_and_their_bounds():
    for t in SAMPLES:
        kids = term_children(t)
        for i, kid in enumerate(kids):
            assert _with_child(t, i, kid) == t
            rebuilt = _with_child(t, i, Var("z"))
            assert term_children(rebuilt)[i] == Var("z")
            assert all(a is b for j, (a, b) in
                       enumerate(zip(term_children(rebuilt), kids)) if j != i)
        for bad in (len(kids), -1):
            with pytest.raises(InvalidPath):
                _with_child(t, bad, Var("z"))
            with pytest.raises(InvalidPath):
                subterm_at(t, (bad,))
            with pytest.raises(InvalidPath):
                replace_at(t, (bad,), Var("z"))


def test_fill_inverts_split_on_the_same_children():
    eliminations = [t for t in SAMPLES if split(t) is not None]
    assert [type(t).__name__ for t in eliminations] == [
        "App", "Proj", "Case", "Abort", "TyApp"]
    for t in eliminations:
        rebuilt = fill(*split(t))
        assert type(rebuilt) is type(t)
        for f in dataclasses.fields(t):
            assert getattr(rebuilt, f.name) is getattr(t, f.name), f.name


def _positions(t, pos=()):
    yield pos
    for i, kid in enumerate(term_children(t)):
        yield from _positions(kid, pos + (i,))


@settings(max_examples=150)
@given(terms)
def test_replace_at_with_the_subterm_there_is_the_identity(t):
    for p in _positions(t):
        assert replace_at(t, p, subterm_at(t, p)) == t
