"""Golden transcripts: CLI stdout must match the recorded files byte for
byte.  The rank <= 3 files and the long `cocenter-reduce` inputs were
recorded with the ball-enumerating class search, before classes were
built from their cosets; the GL4 and GL5 files were recorded with the
matrix-product finite Weyl group, before it became index tables; the
README examples (text output, so they pin the text formatter and
`induce`) and GL5 `verify all` at defaults were recorded with the
Fraction-valued, unmemoised Newton and Levi layers.  Every `levi` and
`positivity` report was re-recorded when the Levis came to be listed
by `parabolic_faces` in place of a coordinate grid, and their
`conjugation-compatible-strata` counts again when that property came to
run once per (Levi, simple reflection) in place of a sweep of box
elements by conjugators, and their `levi-stratum-inside-ambient-stratum`
counts again when that property came to run on the same six short
elements per Levi in place of the whole box.  Every `cocenter` report
was re-recorded when `residue-rank-zero` was dropped.  They pin the
canonical output of `verify`, of long `cocenter-reduce` inputs, of one
GL5 query per kind and of every README example.  Every `verify all`
file is also matched with `--jobs 2`, which runs the suites in worker
processes.  Re-record a file only for an intended change of output:

    PYTHONPATH=src python -m newton_cocenter.cli ARGV... > tests/golden/NAME.out
"""

import hashlib
from pathlib import Path

import pytest

from newton_cocenter.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify-A1": ["--group", "A1", "--json", "verify", "all"],
    "verify-A2": ["--group", "A2", "--json", "verify", "all"],
    "verify-B2": ["--group", "B2", "--json", "verify", "all"],
    "verify-C2": ["--group", "C2", "--json", "verify", "all"],
    "verify-G2": ["--group", "G2", "--json", "verify", "all"],
    "verify-C2-ad": ["--group", "C2:ad", "--json", "verify", "all"],
    "verify-GL3": ["--group", "GL3", "--json", "verify", "all"],
    "cocenter-A1-t20s1": ["--group", "A1", "--json", "cocenter-reduce", "T[t[20]*s1]"],
    "cocenter-A1-t40s1": ["--group", "A1", "--json", "cocenter-reduce", "T[t[40]*s1]"],
    "cocenter-A1-t80s1": ["--group", "A1", "--json", "cocenter-reduce", "T[t[80]*s1]"],
    "cocenter-A2-t6m6": ["--group", "A2", "--json", "cocenter-reduce", "T[t[6,-6]]"],
    "cocenter-A2-t30m30": ["--group", "A2", "--json", "cocenter-reduce", "T[t[30,-30]]"],
    "cocenter-G2-t10s1": ["--group", "G2", "--json", "cocenter-reduce", "T[t[1,0]*s1]"],
    "cocenter-G2-tm11s1": ["--group", "G2", "--json", "cocenter-reduce", "T[t[-1,1]*s1]"],
    "cocenter-G2-t01s1": ["--group", "G2", "--json", "cocenter-reduce", "T[t[0,1]*s1]"],
    "cocenter-GL5-t01000s2s3": ["--group", "GL5", "--json", "cocenter-reduce",
                                "T[t[0,1,0,0,0]*s2*s3]"],
    "verify-GL4": ["--group", "GL4", "--json", "verify", "all"],
    "verify-GL5-newton-l2": ["--group", "GL5", "--json", "verify", "newton", "--length", "2"],
    "verify-GL5-reduction-l2": ["--group", "GL5", "--json", "verify", "reduction",
                                "--length", "2"],
    "verify-GL5-cocenter": ["--group", "GL5", "--json", "verify", "cocenter"],
    "verify-GL5-rigid-l2": ["--group", "GL5", "--json", "verify", "rigid", "--length", "2"],
    "gl5-newton": ["--group", "GL5", "--json", "newton", "t[2,-1,0,1,0]*s1*s2*s4"],
    "gl5-reduce": ["--group", "GL5", "--json", "reduce", "t[0,0,1,1,0]*s2*s1*s3"],
    "gl5-triple": ["--group", "GL5", "--json", "triple", "t[1,0,0,0,1]*s2*s3"],
    "gl5-alcove-test": ["--group", "GL5", "--json", "alcove-test", "t[1,0,-1,0,0]*s1*s3",
                        "--v", "1/2,1/2,-1/2,-1/2,0"],
    "gl5-positivity": ["--group", "GL5", "--json", "positivity", "t[2,-1,0,1,0]*s1*s2*s4",
                       "--v", "1/3,1/3,1/3,1/2,1/2"],
    "gl5-levi": ["--group", "GL5", "--json", "levi", "--v",
                 '["-1/2", "2/3", "-1", "1/3", "2/3"]', "describe"],
    "gl5-strata-l1": ["--group", "GL5", "--json", "strata", "--length", "1"],
    "gl5-rigid-l1": ["--group", "GL5", "--json", "rigid", "--length", "1"],
    # the README's command-line examples, in text output
    "readme-GL5-newton": ["--group", "GL5", "newton", "t[1,1,0,1,0]*s2*s1*s4"],
    "readme-A1-strata": ["--group", "A1", "strata", "--length", "4"],
    "readme-A1-reduce": ["--group", "A1", "reduce", "S1*S0*S1"],
    "readme-A1-triple": ["--group", "A1", "triple", "S0"],
    "readme-GL5-alcove-test": ["--group", "GL5", "alcove-test", "t[1,1,0,1,0]*s2*s1*s4",
                               "--v", '["2/3","2/3","2/3","1/2","1/2"]'],
    "readme-GL5-positivity": ["--group", "GL5", "positivity", "t[1,1,0,1,0]*s2*s1*s4",
                              "--v", '["2/3","2/3","2/3","1/2","1/2"]'],
    "readme-GL5-levi": ["--group", "GL5", "levi", "--v", '["2/3","2/3","2/3","1/2","1/2"]',
                        "describe"],
    "readme-A1-cocenter-reduce": ["--group", "A1", "cocenter-reduce", "T[S1*S0*S1]"],
    "readme-A1-induce": ["--group", "A1", "induce", "--v", '["1"]', "T[t[-1]]"],
    "readme-A1-rigid": ["--group", "A1", "rigid", "--length", "4"],
    "readme-A2-verify-all": ["--group", "A2", "verify", "all"],
    "readme-A1-verify-newton": ["--group", "A1", "verify", "newton", "--length", "4"],
}

# Heavy GL5 suites, recorded in golden/slow/ and deselected by default
# (pyproject addopts); run them with `python -m pytest -m slow`.
SLOW_CASES = {
    "verify-GL5-levi": ["--group", "GL5", "--json", "verify", "levi"],
    "verify-GL5-positivity": ["--group", "GL5", "--json", "verify", "positivity"],
    "verify-GL5-all": ["--group", "GL5", "--json", "verify", "all"],
    # a length-32 element: deep class listings by class_minimal_set
    "cocenter-GL5-t3m120m4s2s1s4s3": ["--group", "GL5", "cocenter-reduce",
                                      "T[t[3,-1,2,0,-4]*s2*s1*s4*s3]"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def test_every_slow_golden_file_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "slow").glob("*.out")) == sorted(SLOW_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_CASES))
def test_slow_golden_transcript(name, capsys):
    code = main(SLOW_CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / "slow" / f"{name}.out").read_bytes()


VERIFY_ALL = sorted(name for name, argv in CASES.items() if argv[-2:] == ["verify", "all"])


@pytest.mark.parametrize("name", VERIFY_ALL)
def test_golden_verify_all_in_two_workers(name, capsys):
    code = main(["--jobs", "2"] + CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.slow
def test_slow_golden_gl5_verify_all_in_two_workers(capsys):
    code = main(["--jobs", "2"] + SLOW_CASES["verify-GL5-all"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / "slow" / "verify-GL5-all.out").read_bytes()


@pytest.mark.slow
def test_slow_golden_a1_depth_600(capsys):
    # 600 Newton components of one class each, coefficients q^a - q^(a-1)
    # up to q^599; the digest is of the transcript that the dense-tuple
    # coefficients printed
    code = main(["--group", "A1", "cocenter-reduce", "T[t[600]*s1]"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d49314e634757a798a3e56ee9b6392061ca344fd4c99812ad8f7601ba9fb8942"


@pytest.mark.slow
def test_slow_golden_a1_depth_1000(capsys):
    # 1,000 classes, each listed from a constant window of dominant
    # translations; the digest was recorded before the normal forms
    # became one longest-first work-list
    code = main(["--group", "A1", "cocenter-reduce", "T[t[1000]*s1]"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8ff97168ed4a344710ed58706b572df97bdebca8d6f479890c6d4f89800f7a57"
