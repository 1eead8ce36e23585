"""Golden transcripts: CLI stdout must match the recorded files byte for
byte.  The rank <= 3 files and the long `cocenter-reduce` inputs were
recorded with the ball-enumerating class search, before classes were
built from their cosets; the GL4 and GL5 files were recorded with the
matrix-product finite Weyl group, before it became index tables.  They
pin the canonical output of `verify`, of long `cocenter-reduce` inputs
and of one GL5 query per kind.  Re-record a file only for an intended
change of output:

    PYTHONPATH=src python -m newton_cocenter.cli ARGV... > tests/golden/NAME.out
"""

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
    "verify-GL5-cocenter-l2": ["--group", "GL5", "--json", "verify", "cocenter",
                               "--length", "2"],
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
}

# Heavy GL5 suites, recorded in golden/slow/ and deselected by default
# (pyproject addopts); run them with `python -m pytest -m slow`.
SLOW_CASES = {
    "verify-GL5-levi-l1": ["--group", "GL5", "--json", "verify", "levi", "--length", "1"],
    "verify-GL5-positivity-l1": ["--group", "GL5", "--json", "verify", "positivity",
                                 "--length", "1"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def test_every_slow_golden_file_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "slow").glob("*.out")) == sorted(SLOW_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name, capsys, monkeypatch):
    monkeypatch.delenv("NEWTON_COCENTER_CACHE", raising=False)
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_CASES))
def test_slow_golden_transcript(name, capsys, monkeypatch):
    monkeypatch.delenv("NEWTON_COCENTER_CACHE", raising=False)
    code = main(SLOW_CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / "slow" / f"{name}.out").read_bytes()
