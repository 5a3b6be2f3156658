"""The three workloads: what one item does and how its output is checked.

An item runner returns (ok, output). `ok` is the item's check against an
answer built by the generator from a different code path; `output` is
turned into a digest outside the timed region, so the traced and untraced
runs can be compared item by item. Runners reach atomlam through module
attributes at call time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import atomlam
import atomlam.cli


def run_atomize(item):
    renv, m_rp = atomlam.rp_env(item["env"]), atomlam.rp_term(item["term"])
    nf, trace = atomlam.atomic_nf(renv, m_rp)
    report = atomlam.check_local_confluence(renv, m_rp)
    ok = nf == item["expect_nf"] and report.all_joined
    return ok, (nf, len(trace.steps), len(report.pairs))


def digest_atomize(output):
    nf, steps, pairs = output
    return f"{atomlam.print_term(nf)}|steps={steps}|pairs={pairs}"


def run_diagram(item):
    d = atomlam.build_diagram(item["env"], item["term"], item["redex"])
    problems = d.verify()
    ok = not problems and all(d.corner(name) == expected
                              for name, expected in item["corners"].items())
    return ok, d


def digest_diagram(d):
    corners = ",".join(atomlam.print_term(d.corner(name))
                       for name in ("m_rp", "n_rp", "m_at", "n_at", "q1", "q2"))
    legs = ",".join(f"{name}:{len(leg.steps)}"
                    for name, leg in sorted(d.legs.items()))
    return f"{d.rule.value}|{corners}|{legs}|{d.notes}"


_JSON_KINDS = ("reduce", "simulate", "weight", "nf")


def run_cli(item):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = atomlam.cli.main(item["argv"])
    text = out.getvalue()
    ok = code == 0
    if ok and item["kind"] in _JSON_KINDS:
        doc = json.loads(text)
        if "expect_term" in item:  # nf and simulate
            # binder names may differ from the expected term's: compare up to alpha
            ok = atomlam.parse_term(doc["result"]) == item["expect_term"]
        if item["kind"] == "reduce":
            # subject reduction: the result keeps the generated term's type
            result = atomlam.parse_term(doc["result"])
            ok = (not doc["truncated"]
                  and atomlam.typecheck(atomlam.SystemId.IPC, item["env"], result)
                  == item["expect_type"])
    if ok and item["kind"] == "check":
        ok = text == item["expect_stdout"]
    return ok, (code, text)


def digest_cli(output):
    code, text = output
    return f"{code}|{text}"


RUNNERS = {"atomize": (run_atomize, digest_atomize),
           "diagram": (run_diagram, digest_diagram),
           "cli-mix": (run_cli, digest_cli)}
