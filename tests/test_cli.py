import json

import pytest

from newton_cocenter.affine_weyl import AffineWeylGroup
from newton_cocenter.cli import main
from newton_cocenter.reduction import is_min_in_class


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_describe(capsys):
    code, out = run_cli(capsys, "--group", "A1", "describe")
    assert code == 0
    assert "A1:sc" in out and "S0" in out


def test_newton_gl5_anchor_element(capsys):
    code, out = run_cli(capsys, "--group", "GL5", "newton",
                        "t[1,1,0,1,0]*s2*s1*s4")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == ["2/3", "2/3", "2/3", "1/2", "1/2"]
    assert payload["straight"] is False


def test_newton_encoding_independent(capsys):
    # two different words for the same finite part must print the same nu
    _, out1 = run_cli(capsys, "--group", "GL5", "newton",
                      "t[1,1,0,1,0]*s2*s1*s4")
    _, out2 = run_cli(capsys, "--group", "GL5", "newton",
                      "t[1,1,0,1,0]*s2*s1*s4*s4*s4")
    assert json.loads(out1)["nu"] == json.loads(out2)["nu"]


def test_strata_tsv(capsys):
    code, out = run_cli(capsys, "--group", "A1", "strata", "--length", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu_bar\tkappa\tcount\tmin_length_in_fiber"
    counts = sorted(int(l.split("\t")[2]) for l in lines[1:])
    assert counts == [2, 2, 5]


def test_strata_omega_filter(capsys):
    code, out = run_cli(capsys, "--group", "GL2", "strata", "--length", "2",
                        "--omega", "[0,1]")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines
    assert all(l.split("\t")[1] == "0,1" for l in lines)


@pytest.mark.parametrize("group, length, label", [
    ("A2", "2", "[0]"), ("GL3", "1", "[0,0]"), ("A2", "2", "[0,0,0]"),
])
def test_strata_omega_label_needs_rank_coordinates(group, length, label, capsys):
    code = main(["--group", group, "strata", "--length", length, "--omega", label])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "coordinates" in out.err


def test_strata_json_lines(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--json", "strata",
                        "--length", "2")
    assert code == 0
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert len(records) == 5
    assert all({"elem", "length", "kappa", "newton"} <= set(r) for r in records)


def test_reduce_path(capsys):
    code, out = run_cli(capsys, "--group", "A1", "reduce", "S1*S0*S1")
    assert code == 0
    assert "conj-down S1" in out
    assert "min t[1]*s1 length 1" in out
    assert "triple" in out


def test_triple(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--json", "triple", "S0")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"x": "t[0]", "K": ["S0"], "u": "t[1]*s1"}


def test_alcove_test(capsys):
    code, out = run_cli(capsys, "--group", "GL5", "alcove-test",
                        "t[1,1,0,1,0]*s2*s1*s4", "--v",
                        '["2/3","2/3","2/3","1/2","1/2"]')
    assert code == 0
    payload = json.loads(out)
    assert payload["fixes_v"] is True
    assert payload["v_alcove"] is False


def test_positivity(capsys):
    code, out = run_cli(capsys, "--group", "GL5", "positivity",
                        "t[1,1,0,1,0]*s2*s1*s4", "--v",
                        '["2/3","2/3","2/3","1/2","1/2"]')
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent"] == 6
    assert payload["exponent"] <= payload["bound"]


def test_positivity_refuses_a_non_positive_newton_point_without_searching(
        capsys, monkeypatch):
    # the a-priori bound grows with the denominator of v: 4 * 10^8 here
    import newton_cocenter
    # levi_alcove is imported here so that the loop below patches it:
    # the CLI imports it only when positivity runs
    from newton_cocenter import affine_weyl, levi_alcove  # noqa: F401
    calls = []
    counted = affine_weyl.multiply

    def counting(w1, w2):
        calls.append(None)
        return counted(w1, w2)

    for module in vars(newton_cocenter).values():
        if getattr(module, "multiply", None) is counted:
            monkeypatch.setattr(module, "multiply", counting)
    code = main(["--group", "A1", "positivity", "t[0]", "--v", "1/100000000"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "not strictly positive" in out.err
    assert len(calls) < 1000


def test_levi_describe(capsys):
    code, out = run_cli(capsys, "--group", "GL5", "--json", "levi", "--v",
                        '["2/3","2/3","2/3","1/2","1/2"]', "describe")
    assert code == 0
    payload = json.loads(out)
    assert payload["w_m_order"] == 12
    assert len(payload["affine_simple_reflections"]) == 5


def test_cocenter_reduce(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--json", "cocenter-reduce",
                        "T[S1*S0*S1]")
    assert code == 0
    payload = json.loads(out)
    comps = {tuple(c["nu"]): c["terms"] for c in payload["components"]}
    assert comps[("0",)] == [{"elem": "t[1]*s1", "poly": "q"}]
    assert comps[("1",)] == [{"elem": "t[1]", "poly": "q-1"}]


def test_cocenter_reduce_expr_with_poly(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--json", "cocenter-reduce",
                        "q^2-1*T[E]+2*T[S1]-T[S1]")
    assert code == 0
    payload = json.loads(out)
    terms = [t for c in payload["components"] for t in c["terms"]]
    assert {"elem": "t[0]", "poly": "q^2-1"} in terms
    assert {"elem": "t[0]*s1", "poly": "1"} in terms


@pytest.mark.parametrize("expr, text", [
    # a coefficient far wider than any digit of a packed polynomial
    ("123456789012345678901234567890*T[S1]",
     "  (123456789012345678901234567890) * T[t[0]*s1]\n"),
    # a valuation of a million, held as an exponent, not as zeros
    ("-q^1000000*T[E]", "  (-q^1000000) * T[t[0]]\n"),
    ("(q-1)*T[S0]+q*T[E]", "  (q) * T[t[0]]\n  (q-1) * T[t[1]*s1]\n"),
])
def test_cocenter_reduce_exact_coefficients(expr, text, capsys):
    code, out = run_cli(capsys, "--group", "A1", "cocenter-reduce", "--", expr)
    assert code == 0
    assert out == "component (0;0):\n" + text


def test_induce(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--json", "induce",
                        "--v", '["1"]', "T[t[-1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [
        {"nu": ["1"], "omega": [0],
         "terms": [{"elem": "t[1]", "poly": "1"}]}]


def test_rigid(capsys):
    code, out = run_cli(capsys, "--group", "A1", "rigid", "--length", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu_bar\tkappa\tlevi\tcount\tcovered"
    assert lines[1:] == ["0\t0\tG\t3\ttrue", "1\t0\tT\t1\ttrue",
                         "2\t0\tT\t1\ttrue"]


def test_verify_pass_and_exit_codes(capsys):
    code, out = run_cli(capsys, "--group", "A1", "verify", "newton",
                        "--length", "4")
    assert code == 0
    assert "sizes=5/2/2" in out
    assert out.rstrip().endswith("PASS")


def test_verify_reduction_counterexamples_are_per_property(capsys, monkeypatch):
    # one injected end-is-minimal failure, on the first element of the
    # ball, is the first counterexample of that property alone
    from newton_cocenter import verify

    calls = []

    def first_call_fails(group, w):
        calls.append(w)
        return len(calls) > 1 and is_min_in_class(group, w)

    monkeypatch.setattr(verify, "is_min_in_class", first_call_fails)
    code, out = run_cli(capsys, "--group", "A1", "verify", "reduction",
                        "--length", "3")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[1:] == [
        "  path-replays: instances=7 failures=0",
        "  newton-constant-along-path: instances=7 failures=0",
        "  end-is-minimal: instances=7 failures=1 first=t[0]",
        "  path-length-bound: instances=7 failures=0",
        "  standard-triple-exists: instances=7 failures=0",
        "result FAIL",
    ]


def test_verify_unknown_suite(capsys):
    code, _ = run_cli(capsys, "--group", "A1", "verify", "nope")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "levi", "--length", "1"],
    ["verify", "positivity", "--length", "1"],
    ["verify", "cocenter", "--length", "2"],
    ["verify", "length", "--pair-budget", "3"],
])
def test_single_suite_refuses_a_parameter_it_does_not_take(argv, capsys):
    code = main(["--group", "A2", *argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "its parameters are" in out.err


def test_verify_all_gives_length_to_the_suites_that_take_it(capsys):
    from newton_cocenter.verify import SUITES
    code, out = run_cli(capsys, "--group", "A1", "verify", "all", "--length", "2")
    assert code == 0
    headers = [line.split() for line in out.splitlines() if line.startswith("suite ")]
    assert [h[1] for h in headers] == list(SUITES)
    with_length = [h[1] for h in headers if "length=2" in h[4:]]
    assert with_length == ["grammar", "length", "newton", "straightness",
                           "reduction", "alcove", "rigid"]
    assert with_length == [name for name, (_, defaults) in SUITES.items()
                           if "length" in defaults]
    assert not any(field.startswith("length=") for h in headers
                   if h[1] not in with_length for field in h[4:])


def test_verify_tsv_output(capsys):
    code, out = run_cli(capsys, "--group", "A1", "--tsv", "verify", "newton",
                        "--length", "4")
    assert code == 0
    rows = [l.split("\t") for l in out.strip().splitlines()]
    assert all(r[0] == "newton" and r[3] == "0" for r in rows)


def test_ball_cap_flag(capsys):
    code, _ = run_cli(capsys, "--group", "A1", "--ball-cap", "3",
                      "strata", "--length", "4")
    assert code == 2


@pytest.mark.parametrize("command", ["strata", "rigid"])
@pytest.mark.parametrize("label,cap", [("A1", 12), ("C2", 12), ("GL3", 8)])
def test_default_ball_cap_by_rank(label, cap, command, capsys, monkeypatch):
    # the radius is checked before any ball is built
    with monkeypatch.context() as patch:
        patch.setattr(AffineWeylGroup, "enumerate_ball",
                      lambda *args: pytest.fail("a ball was built"))
        code = main(["--group", label, command, "--length", str(cap + 1)])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == f"resource error: ball of radius {cap + 1} exceeds the cap {cap}\n"
    code, out = run_cli(capsys, "--group", label, command, "--length", str(cap))
    assert code == 0 and out


@pytest.mark.parametrize("command", ["strata", "rigid"])
def test_lowered_ball_cap(command, capsys):
    code, out = run_cli(capsys, "--group", "A2", "--ball-cap", "2", command, "--length", "3")
    assert (code, out) == (2, "")
    code, out = run_cli(capsys, "--group", "A2", "--ball-cap", "2", command, "--length", "2")
    assert (code, out) == run_cli(capsys, "--group", "A2", command, "--length", "2")
    assert code == 0 and out


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "--group", "A1", "newton", "t[1,2,3]")
    assert code == 2
    code, _ = run_cli(capsys, "--group", "E8", "describe")
    assert code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "group.cfg"
    cfg.write_text("# sample\ntype = GL\nrank = 2\n")
    code, out = run_cli(capsys, "--config", str(cfg), "describe")
    assert code == 0
    assert "GL2" in out


def test_jobs_determinism(capsys):
    code1, out1 = run_cli(capsys, "--group", "A1", "--jobs", "1",
                          "verify", "all")
    code2, out2 = run_cli(capsys, "--group", "A1", "--jobs", "8",
                          "verify", "all")
    assert code1 == code2 == 0
    assert out1 == out2


def test_no_normal_form_is_read_from_or_written_to_disk(tmp_path, capsys, monkeypatch):
    # a file in the format of the retired NF disk cache, with an entry
    # edited inside its class (q-1 -> q^2-1 agrees at q = 1), must
    # neither change the output nor be reported or rewritten
    argv = ["--group", "A1", "--json", "cocenter-reduce", "T[t[3]*s1]"]
    monkeypatch.delenv("NEWTON_COCENTER_CACHE", raising=False)
    assert main(argv) == 0
    clean = capsys.readouterr().out
    tampered = {"t[1]": "q^2-q", "t[1]*s1": "q^2", "t[2]": "q^2-1"}
    (tmp_path / "nf-v1-A1-sc.json").write_text(json.dumps(
        {"schema": "nf-v1", "group": "A1:sc",
         "normal_forms": {"t[3]*s1": tampered}}), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == clean
    assert "NF cache" not in out.err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["verify", "length", "--length", "-2"],
    ["--ball-cap", "-2", "verify", "levi"],
    ["verify", "all", "--seeds", "-3"],
    ["verify", "cocenter", "--pair-budget", "-1"],
    ["strata", "--length", "-1"],
    ["rigid", "--length", "-1"],
    ["--ball-cap", "-1", "describe"],
    ["verify", "cocenter", "--seeds", "0"],
    ["verify", "cocenter", "--pair-budget", "0"],
    ["cocenter-reduce", "q^10000000000000*T[e]"],
    ["induce", "--v", "0", "q^10000000000000*T[e]"],
    # more digits than Python's int() converts
    ["newton", "t[1" + "0" * 5000 + "]"],
    ["cocenter-reduce", "1" + "0" * 5000 + "*T[e]"],
])
def test_out_of_range_counts_are_input_errors(argv, capsys):
    code = main(["--group", "A1", *argv])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--group", "A2", "alcove-test", "t[0,0]", "--v", "1/0,0"],
    ["--group", "A2", "positivity", "t[0,0]", "--v", "1/0,0"],
    ["--group", "A2", "levi", "--v", "1/0,0", "describe"],
    ["--group", "A2", "induce", "--v", "1/0,0", "T[t[0,0]]"],
    ["--group", "A2", "newton", "t[1/0,0]"],
    ["--config", "CONFIG", "describe"],
])
def test_zero_denominators_and_bad_config_numbers_are_input_errors(argv, tmp_path, capsys):
    cfg = tmp_path / "group.cfg"
    cfg.write_text("type = GL\nrank = two\n")
    code = main([str(cfg) if a == "CONFIG" else a for a in argv])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_unexpected_error_exit_code(capsys, monkeypatch):
    # exit 1 means "verification failed"; any other exception is a bug
    from newton_cocenter import cli

    def boom(group, args):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._HANDLERS, "describe", boom)
    code = main(["--group", "A1", "describe"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "RuntimeError: unexpected" in out.err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # the parsers are cached per process, the full one and one per
    # subcommand; consecutive parses, with an `append` option given,
    # repeated and left out, must print what fresh parsers print
    from newton_cocenter import cli

    calls = [
        ["--group", "A1:ad", "strata", "--length", "2", "--omega", "[1]"],
        ["--group", "A1:ad", "strata", "--length", "2", "--omega", "[1]"],
        ["--group", "A1:ad", "strata", "--length", "2"],
        ["--group", "A2", "--json", "--jobs", "3", "newton", "S1*S0"],
        ["--group", "A1:ad", "--json", "strata", "--length", "2", "--omega", "[0]"],
        ["--group", "A1", "describe"],
    ]
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser("strata") is cli._build_parser("strata")
    assert cli._build_parser("strata") is not cli._build_parser("newton")
    cached = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert cached[0] == cached[1] != cached[2]


def test_jobs_below_one_is_an_input_error(capsys):
    for value in ("0", "-3"):
        code = main(["--group", "A1", "--jobs", value, "verify", "newton"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "--jobs" in out.err and "at least 1" in out.err


@pytest.mark.parametrize("suite", ["newton", "rigid", "grammar", "all"])
def test_verify_length_above_the_ball_cap(suite, capsys):
    # the A1 ball cap is 12; the suites enumerate any length they are given
    code, out = run_cli(capsys, "--group", "A1", "--json", "verify", suite, "--length", "13")
    assert code == 0
    assert out and all(json.loads(line)["passed"] for line in out.splitlines())
