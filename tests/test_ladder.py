"""Fine atomization at ladder scale: the case^d/k family.

case^d/k nests d case analyses whose result formula c_k nests k
implications; each level copies its branches once per conjunct of c_k
during atomization, so the atomic normal forms grow fast with d and k:

    c_0 = P                      c_k = P -> (c_{k-1} & P)
    t_0 = x                      t_k = fun z_k:P => <t_{k-1}, z_k>
    case^0/k = t_k
    case^d/k = case s of { x_d:P => case^{d-1}/k ; y_d:Q => abort[c_k] u } : c_k

Odd levels scrutinise r:Q|P with the branches swapped.
"""

import pytest

from atomlam import (Abort, And, Case, Env, FVar, Imp, Lam, Or, Pair, Var,
                     at_term, atomic_nf, replay, rp_env, rp_term, weight)
from atomlam.syntax import Bot

P, Q = FVar("P"), FVar("Q")
ENV = Env([("x", P), ("s", Or(P, Q)), ("r", Or(Q, P)), ("u", Bot())])


def result_formula(k):
    return P if k == 0 else Imp(P, And(result_formula(k - 1), P))


def ladder(d, k):
    c = result_formula(k)
    m = Var("x")
    for level in range(1, k + 1):
        m = Lam(f"z{level}", P, Pair(m, Var(f"z{level}")))
    for level in range(1, d + 1):
        x, y, dead = f"x{level}", f"y{level}", Abort(Var("u"), c)
        if level % 2:
            m = Case(Var("r"), y, Q, dead, x, P, m, c)
        else:
            m = Case(Var("s"), x, P, m, y, Q, dead, c)
    return m


@pytest.mark.parametrize("d, k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                  (3, 2), (4, 1)])
def test_atomic_nf_of_rp_is_at_with_checked_weights(d, k):
    m = ladder(d, k)
    renv = rp_env(ENV)
    nf, trace = atomic_nf(renv, rp_term(m))
    assert nf == at_term(m)
    assert replay(trace)
    # the weight the engine kept up to date step by step is the weight of
    # each intermediate term computed from scratch
    assert len(trace.weights) == len(trace.steps) > 0
    for s, w in zip(trace.steps, trace.weights):
        assert w == weight(renv, s.result).total
    assert trace.weights[-1] == 0
