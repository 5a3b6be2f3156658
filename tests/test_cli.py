import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from atomlam import cli
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
_MISSING = str(GOLDEN / "no-such-file")
_FOLDER = str(GOLDEN)
_DATA = Path(__file__).parent / "data"
_NEEDS = "parse error: environment binding needs 'name : formula': "

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
    # fields are translated in order: an annotation before the body after it
    ("translate_annotation_before_body", ["translate", "--target", "rp",
                                          "fun x:forall X.X => tfun Y => x"],
     6, "error: NotIPCFormula: "),
    ("translate_branch_annotation_before_body",
     ["translate", "--target", "at", "--env", "s:X|Y",
      "case s of { x:X => x ; y:forall X.X => tfun Y => y } : X"],
     6, "error: NotIPCFormula: "),
    ("translate_scrutinee_before_annotation",
     ["translate", "--target", "at", "--env", "s:X|Y",
      "case (tfun Y => s) of { x:forall X.X => x ; y:Y => y } : X"],
     6, "error: NotIPCTerm: "),
    ("translate_nested_funs", ["translate", "--target", "rp",
                               "fun x:X => " * 700 + "x"], 0, ""),
    ("diagram_rule_not_applicable", ["diagram", "--rule", "beta_imp", "--env",
                                     "y:X", "(fun x:X => x) y"], 6,
     "RuleNotApplicable"),
    ("simulate_no_such_redex", ["simulate", "--rule", "beta_or", "--env", "y:X",
                                "(fun x:X => x) y"], 6, "no beta_or redex found"),
    ("diagram_no_redex_at_pos", ["diagram", "--rule", "varpi_bot", "--pos", "0",
                                 "--env", "u:bot", "abort[X] (abort[bot] u)"], 6,
     "no varpi_bot redex found"),
    # a rule outside the system: one check, so one message from either command
    ("reduce_rule_not_in_system", ["reduce", "--sys", "ipc", "--env", "a:X",
                                   "--rules", "beta_imp, rho_case", "a"], 2,
     "parse error: rules not valid in ipc: rho_case\n"),
    ("simulate_rule_not_in_system", ["simulate", "--rule", "rho_case", "--env",
                                     "a:X", "a"], 2,
     "parse error: rules not valid in ipc: rho_case\n"),
    ("file_missing", ["check", "--file", _MISSING], 2,
     f"error: cannot read {_MISSING!r}: No such file or directory"),
    ("file_is_a_directory", ["check", "--file", _FOLDER], 2,
     f"error: cannot read {_FOLDER!r}: Is a directory"),
    ("env_file_missing", ["check", "--env-file", _MISSING, "x"], 2,
     f"error: cannot read {_MISSING!r}: No such file or directory"),
    ("env_file_is_a_directory", ["check", "--env-file", _FOLDER, "x"], 2,
     f"error: cannot read {_FOLDER!r}: Is a directory"),
    # typing errors: the whole stderr line, position, class and message
    ("check_ipc_unbound_variable", ["check", "--sys", "ipc", "--env", "x:X",
                                    "fun y:X => nope"], 1,
     "type error at [0]: UnboundVariable: unbound variable 'nope'\n"),
    ("check_f_nested_argument_mismatch", ["check", "--sys", "f", "--env",
                                          "f:X -> Y", "--env", "b:Y",
                                          "f (f b)"], 1,
     "type error at [1, 1]: TypeMismatch: argument type mismatch\n"),
    ("check_fat_nested_argument_mismatch", ["check", "--sys", "fat", "--env",
                                            "f:X -> Y", "--env", "b:Y",
                                            "fun y:X => f (f b)"], 1,
     "type error at [0, 1, 1]: TypeMismatch: argument type mismatch\n"),
    ("check_f_case", ["check", "--sys", "f", "--env", "s:X",
                      "case s of { x:X => x ; y:Y => x } : X"], 1,
     "type error at []: NotInSystem: case not in f\n"),
    ("check_fat_non_atomic_instantiation", ["check", "--sys", "fat", "--env",
                                            "z:forall X.X",
                                            "fun y:X => z [Y -> Y]"], 1,
     "type error at [0]: NonAtomicInstantiation: instantiation with "
     "non-atomic formula Imp(FVar('Y'), FVar('Y'))\n"),
    ("check_ipc_shadowing_binder", ["check", "--sys", "ipc", "--env", "x:X",
                                    "fun x:Y => (fun y:X => y) x"], 1,
     "type error at [0, 1]: TypeMismatch: argument type mismatch\n"),
    ("check_ipc_case_right_branch", ["check", "--sys", "ipc", "--env", "x:X",
                                     "--env", "s:X | Y",
                                     "case s of { x:X => x ; y:Y => y } : X"],
     1, "type error at [2]: TypeMismatch: right branch type mismatch\n"),
    ("check_f_shadowing_type_binder", ["check", "--sys", "f", "--env", "z:X",
                                       "tfun X => (fun w:X => w) z"], 1,
     "type error at [0, 1]: TypeMismatch: argument type mismatch\n"),
    ("check_fat_shadowing_binder", ["check", "--sys", "fat", "--env", "x:X",
                                    "fun x:Y => (fun y:X => y) x"], 1,
     "type error at [0, 1]: TypeMismatch: argument type mismatch\n"),
    # a binding is an identifier that is not a keyword, a colon and a
    # formula, from --env and --env-file alike
    ("env_without_colon", ["check", "--env", "x", "x"], 2, _NEEDS + "'x'\n"),
    ("env_empty_name", ["check", "--env", ": Y", "x"], 2, _NEEDS + "': Y'\n"),
    ("env_keyword_name", ["check", "--env", "fun: X", "x"], 2,
     _NEEDS + "'fun: X'\n"),
    ("env_two_names", ["check", "--env", "x y: X", "x"], 2,
     _NEEDS + "'x y: X'\n"),
    ("env_name_not_a_token", ["check", "--env", "x-: X", "x"], 2,
     _NEEDS + "'x-: X'\n"),
    ("env_file_line_without_colon", ["check", "--env-file",
                                     str(_DATA / "env_no_colon.txt"), "x"], 2,
     _NEEDS + "'bad line'\n"),
    ("env_file_empty_name", ["check", "--env-file",
                             str(_DATA / "env_empty_name.txt"), "x"], 2,
     _NEEDS + "': Y'\n"),
    ("env_file_keyword_name", ["nf", "--env-file",
                               str(_DATA / "env_keyword_name.txt"), "x"], 2,
     _NEEDS + "'fun: X'\n"),
    ("env_primed_name", ["check", "--env", " x' : X", "x'"], 0, ""),
    # each command's system for the environment: translate reads none
    ("translate_reads_no_env", ["translate", "--env", "bad", "--target", "rp",
                                "x"], 0, ""),
    ("translate_reads_no_env_file", ["translate", "--env-file", _MISSING,
                                     "--target", "at", "x"], 0, ""),
    ("nf_env_sum_in_ipc_only", ["nf", "--env", "x: X | Y", "x"], 1,
     "type error at []: NotInSystem: environment formula of 'x' is not in f: "
     "X | Y\n"),
]


@pytest.mark.parametrize("argv, code, stderr", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_codes(argv, code, stderr):
    got, out, err = run_all(argv)
    assert got == code
    assert stderr in err
    # the parser is shared across calls: a second call gives the same bytes
    assert run_all(argv) == (got, out, err)


# (name, first argv, second argv, second call's exit code, stdout, stderr):
# flags of one call on the shared parser do not reach the next call
SEQUENCE_CASES = [
    ("env_then_no_env", ["check", "--env", "x:X", "x"], ["check", "x"], 1, "",
     "type error at []: UnboundVariable: unbound variable 'x'\n"),
    ("json_then_text", ["check", "--env", "x:X", "x", "--format", "json"],
     ["check", "--env", "x:X", "x"], 0, "X\n", ""),
    ("two_envs_then_one", ["check", "--env", "x:X", "--env", "y:Y", "<x, y>"],
     ["check", "--env", "x:X", "<x, y>"], 1, "",
     "type error at [1]: UnboundVariable: unbound variable 'y'\n"),
]


@pytest.mark.parametrize("first, second, code, stdout, stderr",
                         [c[1:] for c in SEQUENCE_CASES],
                         ids=[c[0] for c in SEQUENCE_CASES])
def test_calls_in_sequence(first, second, code, stdout, stderr):
    assert run_all(first)[0] == 0
    assert run_all(second) == (code, stdout, stderr)
    assert cli.build_parser().parse_args(["check", "x"]).env is None


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    run(["check", "--env", "x:X", "x"])
    assert len(built) == 8  # the root parser and one per subcommand
    run(["translate", "--target", "rp", "x"])
    assert len(built) == 8
    assert cli.build_parser() is cli.build_parser()


# `atomlam --help` and each subcommand's, at a fixed width
HELP_COMMANDS = ["", "check", "reduce", "translate", "nf", "weight",
                 "simulate", "diagram"]


@pytest.mark.parametrize("command", HELP_COMMANDS,
                         ids=[c or "atomlam" for c in HELP_COMMANDS])
def test_help_matches_golden(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / "help" / f"{command or 'atomlam'}.txt").read_text()
    assert run_all([command, "--help"] if command else ["--help"]) == \
        (0, expected, "")


def test_env_file_formulas_checked_against_system(tmp_path):
    envf = tmp_path / "env.txt"
    envf.write_text("s: X | Y\n")
    code, _, err = run_all(["nf", "--env-file", str(envf), "s"])
    assert code == 1 and "NotInSystem" in err
    code, out, _ = run_all(["check", "--sys", "ipc", "--env-file", str(envf), "s"])
    assert code == 0 and out.strip() == "X | Y"


# one small input per subcommand, the term last
PIPELINE_CASES = [
    ["check", "--sys", "ipc", "--env", "x:X", "fun y:Y => x"],
    ["reduce", "--sys", "f", "--env", "z:forall X.X", "--rules", "rho_abort",
     "z [X & X]"],
    ["translate", "--target", "at", "abort[X -> Y] m"],
    ["nf", "--env", "z:forall X.X", "z [X -> Y]"],
    ["weight", "--env", "z:forall X.X", "z [(X -> X) & X]"],
    ["simulate", "--rule", "beta_imp", "--env", "y:X", "(fun x:X => x) y"],
    ["diagram", "--rule", "varpi_bot", "--env", "u:bot",
     "abort[X] (abort[bot] u)"],
]


@pytest.mark.parametrize("argv", PIPELINE_CASES,
                         ids=[argv[0] for argv in PIPELINE_CASES])
def test_json_opens_with_command_and_input_and_text_agrees(argv):
    code, text = run(argv)
    json_code, out = run(argv + ["--format", "json"])
    assert code == json_code == 0
    doc = json.loads(out)
    assert list(doc)[:2] == ["command", "input"]
    assert (doc["command"], doc["input"]) == (argv[0], argv[-1])
    lines = text.splitlines()
    if argv[0] == "check":
        assert lines == [doc["formula"]] and doc["system"] == "ipc"
    elif argv[0] == "translate":
        assert lines == [doc["result"]] == ["fun z:X => m [Y]"]
    elif argv[0] == "weight":
        assert lines[0] == f"total weight: {doc['total']}" and doc["total"] > 0
        assert lines[1:] == [f"  pre-redex at {c['position']}: {c['weight']}"
                             for c in doc["contributions"]]
    elif argv[0] == "diagram":
        assert lines[0] == f"rule {doc['rule']} at {doc['position']}"
        assert lines[-1] == "verified" and doc["verified"]
    else:
        assert lines[-1] == f"result: {doc['result']} [{len(doc['steps'])} steps]"


@pytest.mark.parametrize("argv", PIPELINE_CASES,
                         ids=[argv[0] for argv in PIPELINE_CASES])
def test_a_json_command_leaves_nothing_for_the_collector(argv):
    import gc
    run(argv + ["--format", "json"])  # builds the parser and warms caches
    gc.collect()
    gc.disable()
    try:
        code, out = run(argv + ["--format", "json"])
        assert code == 0 and json.loads(out)["command"] == argv[0]
        assert gc.collect() == 0
    finally:
        gc.enable()
