"""Golden transcripts: CLI stdout must match the recorded files byte for
byte.  The files were recorded with the ball-enumerating class search,
before classes were built from their cosets; they pin the canonical
output of `verify all` and of long `cocenter-reduce` inputs.  Re-record a
file only for an intended change of output:

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
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name, capsys, monkeypatch):
    monkeypatch.delenv("NEWTON_COCENTER_CACHE", raising=False)
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
