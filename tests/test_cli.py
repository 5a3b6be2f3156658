import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from atomlam.cli import main
from atomlam import alpha_eq, parse_term

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_check_ok():
    code, out = run(["check", "--sys", "ipc", "--env", "x:X", "x"])
    assert code == 0 and out.strip() == "X"


def test_check_type_error_exit_1():
    code, _ = run(["check", "--sys", "fat", "--env", "z:forall X.X",
                   "z [Y -> Y]"])
    assert code == 1


def test_parse_error_exit_2():
    code, _ = run(["check", "--sys", "ipc", "fun x => x"])
    assert code == 2


def test_step_cap_exit_3_with_partial_trace():
    code, out = run(["reduce", "--sys", "f", "--env", "z:forall X.X",
                     "--rules", "rho_abort", "--max-steps", "1",
                     "z [(X -> X) & X]", "--format", "json"])
    assert code == 3
    doc = json.loads(out)
    assert doc["truncated"] and len(doc["steps"]) == 1


def test_reduce_atomization_example():
    code, out = run(["reduce", "--sys", "f", "--env", "z:forall X.X",
                     "--rules", "rho_abort", "z [X & X]"])
    assert code == 0
    assert "result: <z [X], z [X]> [1 steps]" in out


def test_translate_examples():
    code, out = run(["translate", "--target", "rp", "--env", "m:bot",
                     "abort[X] m"])
    assert code == 0 and out.strip() == "m [X]"
    code, out = run(["translate", "--target", "at", "abort[X -> Y] m"])
    assert code == 0 and out.strip() == "fun z:X => m [Y]"
    code, out = run(["translate", "--target", "rp", "x"])
    assert out.strip() == "x"
    code, out = run(["translate", "--target", "at", "x"])
    assert out.strip() == "x"


def test_nf_example():
    code, out = run(["nf", "--env", "z:forall X.X", "z [X -> Y]",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 1
    assert alpha_eq(parse_term(doc["result"]), parse_term("fun w:X => z [Y]"))


def test_simulate_rule_classes():
    code, out = run(["simulate", "--rule", "beta_or", "--env", "a:X",
                     "case in1[X|Y] a of { x:X => x ; y:Y => a } : X",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [s["rule"] for s in doc["steps"]] == \
        ["beta_all", "beta_imp", "beta_and", "beta_imp"]


def test_diagram_verifies():
    code, out = run(["diagram", "--rule", "eta_or", "--env", "s:X | Y",
                     "case s of { x:X => in1[X|Y] x ; y:Y => in2[X|Y] y } : X | Y",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and not doc["problems"]
    admin = [s for s in doc["legs"]["m_at->q1"]["steps"]]
    assert len(admin) == 4 and all(s.get("admin") for s in admin)


def test_text_and_json_describe_same_trace():
    argv = ["reduce", "--sys", "f", "--env", "z:forall X.X",
            "--rules", "rho_abort", "z [(X -> X) & X]"]
    _, text = run(argv)
    _, js = run(argv + ["--format", "json"])
    doc = json.loads(js)
    assert text.count("step ") == len(doc["steps"])
    final_line = [l for l in text.splitlines() if l.startswith("result:")][0]
    assert doc["result"] in final_line


def test_env_file(tmp_path):
    envf = tmp_path / "env.txt"
    envf.write_text("z: forall X.X\n# comment\n")
    code, out = run(["check", "--sys", "f", "--env-file", str(envf), "z [X]"])
    assert code == 0 and out.strip() == "X"


def test_file_input(tmp_path):
    f = tmp_path / "term.txt"
    f.write_text("fun x:X => x\n")
    code, out = run(["check", "--sys", "ipc", "--file", str(f)])
    assert code == 0 and out.strip() == "X -> X"


def test_diagram_text_output():
    code, out = run(["diagram", "--rule", "varpi_bot", "--env", "u:bot",
                     "abort[X] (abort[bot] u)"])
    assert code == 0
    assert "verified" in out and "leg q1->q2" in out


def test_golden_traces_replay_bit_exactly():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert manifest, "no golden traces recorded"
    for case in manifest:
        code, out = run(case["argv"])
        assert code == 0, case["name"]
        expected = (GOLDEN / f"{case['name']}.json").read_text()
        assert out == expected, f"golden mismatch: {case['name']}"


def run_all(argv):
    """(exit code, stdout, stderr); argparse usage errors exit through
    SystemExit, as they do from the shell."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


_REDUCE_BOT = ["reduce", "--sys", "f", "--env", "z:forall X.X",
               "--rules", "rho_abort", "z [(X -> X) & X]"]

# (name, argv, exit code, text expected on stderr)
EXIT_CASES = [
    ("max_steps_zero", _REDUCE_BOT + ["--max-steps", "0"], 2, "positive integer"),
    ("max_steps_negative", _REDUCE_BOT + ["--max-steps", "-1"], 2, "positive integer"),
    ("max_steps_not_a_number", _REDUCE_BOT + ["--max-steps", "many"], 2,
     "positive integer"),
    ("max_steps_one_truncates", _REDUCE_BOT + ["--max-steps", "1"], 3, ""),
    ("max_steps_enough", _REDUCE_BOT + ["--max-steps", "2"], 0, ""),
    ("nf_env_sum_not_in_f", ["nf", "--env", "s:X|Y", "s"], 1, "NotInSystem"),
    ("weight_env_bot_not_in_f", ["weight", "--env", "u:bot", "u"], 1,
     "NotInSystem"),
    ("check_f_env_sum", ["check", "--sys", "f", "--env", "s:X|Y", "s"], 1,
     "'s' is not in f: X | Y"),
    ("check_fat_env_bot", ["check", "--sys", "fat", "--env", "u:bot", "u"], 1,
     "NotInSystem"),
    ("check_ipc_env_forall", ["check", "--sys", "ipc", "--env", "z:forall X.X",
                              "z"], 1, "NotInSystem"),
    ("reduce_ipc_env_forall", ["reduce", "--sys", "ipc", "--env", "z:forall X.X",
                               "--rules", "beta_imp", "z"], 1, "NotInSystem"),
    ("simulate_env_forall", ["simulate", "--rule", "beta_imp", "--env",
                             "z:forall X.X", "(fun x:X => x) z"], 1, "NotInSystem"),
    ("diagram_env_forall", ["diagram", "--rule", "varpi_bot", "--env",
                            "u:forall X.X", "abort[X] (abort[bot] u)"], 1,
     "NotInSystem"),
    ("check_ipc_env_sum", ["check", "--sys", "ipc", "--env", "s:X|Y", "s"], 0, ""),
    ("check_f_env_forall", ["check", "--sys", "f", "--env", "z:forall X.X",
                            "z [X]"], 0, ""),
    ("nf_env_forall", ["nf", "--env", "z:forall X.X", "z [X -> Y]"], 0, ""),
    ("deep_nested_funs", ["check", "--sys", "ipc", "fun x:X => " * 2000 + "x"],
     5, "error: input nested too deeply"),
    ("deep_env_formula", ["check", "--sys", "ipc", "--env",
                          "x:" + "X -> " * 3000 + "X", "x"],
     5, "error: input nested too deeply"),
    ("translate_not_ipc", ["translate", "--target", "rp", "tfun X => x"], 6,
     "NotIPCTerm"),
    ("translate_formula_not_ipc", ["translate", "--target", "at",
                                   "fun x:forall X.X => x"], 6, "NotIPCFormula"),
    ("diagram_rule_not_applicable", ["diagram", "--rule", "beta_imp", "--env",
                                     "y:X", "(fun x:X => x) y"], 6,
     "RuleNotApplicable"),
    ("simulate_no_such_redex", ["simulate", "--rule", "beta_or", "--env", "y:X",
                                "(fun x:X => x) y"], 6, "no beta_or redex found"),
    ("diagram_no_redex_at_pos", ["diagram", "--rule", "varpi_bot", "--pos", "0",
                                 "--env", "u:bot", "abort[X] (abort[bot] u)"], 6,
     "no varpi_bot redex found"),
]


@pytest.mark.parametrize("argv, code, stderr", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_codes(argv, code, stderr):
    got, _, err = run_all(argv)
    assert got == code
    assert stderr in err


def test_env_file_formulas_checked_against_system(tmp_path):
    envf = tmp_path / "env.txt"
    envf.write_text("s: X | Y\n")
    code, _, err = run_all(["nf", "--env-file", str(envf), "s"])
    assert code == 1 and "NotInSystem" in err
    code, out, _ = run_all(["check", "--sys", "ipc", "--env-file", str(envf), "s"])
    assert code == 0 and out.strip() == "X | Y"
