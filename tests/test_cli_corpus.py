"""The CLI's stdout, stderr and exit code on a corpus of argument lists,
help and error paths included, against values recorded before the
parser was built one subcommand at a time.  Each list is run after
every other in one process, in both orders, so no parse depends on an
earlier one.  The wall-time line on stderr is normalised.  Re-record
only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_corpus.py > tests/golden/cli-corpus.json
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli-corpus.json"
COMMANDS = ["describe", "newton", "strata", "reduce", "triple", "alcove-test",
            "positivity", "levi", "cocenter-reduce", "induce", "rigid", "verify"]

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    *([command, "-h"] for command in COMMANDS),
    ["--group", "A1", "describe", "-h"],
    ["--group", "A1", "strata", "--he"],
    ["-h", "bogus"],
    ["-h", "describe"],
    ["--group", "A1", "--help", "newton", "S0"],
    ["bogus"],
    ["--group", "A1"],
    ["--group"],
    ["--config"],
    ["-x", "describe"],
    ["--j", "2", "describe"],
    ["--group", "A1", "--jobs", "0", "describe"],
    ["--group", "A1", "--jobs", "0", "verify", "newton"],
    ["--group", "A1", "--ball-cap", "x", "describe"],
    ["--group", "A1", "--seed", "y", "describe"],
    ["--gr", "GL5", "describe"],
    ["--gr", "A1", "--js", "describe"],
    ["--group", "newton", "describe"],
    ["--group=A1", "describe"],
    ["--group", "A1", "describe", "extra"],
    ["describe", "--group", "A1"],
    ["--", "describe"],
    ["--group", "A1", "desc"],
    ["--group", "A1", "strata"],
    ["--group", "A1", "rigid"],
    ["--group", "A1", "newton"],
    ["--group", "A1", "verify"],
    ["--group", "A2", "alcove-test", "t[0,0]"],
    ["--group", "A2", "positivity", "t[0,0]"],
    ["--group", "A2", "levi", "describe"],
    ["--group", "A2", "induce", "T[e]"],
    ["--group", "A2", "levi", "--v", "1,0", "bogus"],
    ["--group", "A2", "strata", "--length", "-1"],
    ["--group", "A2", "verify", "newton", "--max-den", "0"],
    ["--group", "A1", "describe"],
    ["--group", "GL5", "--json", "describe"],
    ["--group", "GL5", "newton", "t[1,1,0,1,0]*s2*s1*s4"],
    ["--group", "A1", "--json", "strata", "--length", "2", "--omega", "[0]"],
    ["--group", "A1:ad", "strata", "--length", "2", "--omega", "[1]", "--omega", "[0]"],
    ["--group=A2", "reduce", "S1*S0"],
    ["--group", "A1", "--json", "triple", "S0"],
    ["--group", "A2", "alcove-test", "t[1,0]*s1", "--v", "0,1"],
    ["--group", "A1", "positivity", "t[1]", "--v", '["1"]'],
    ["--group", "A2", "--json", "levi", "--v", "1/2,0", "describe"],
    ["--group", "A1", "cocenter-reduce", "--", "(q-1)*T[S0]+q*T[E]"],
    ["--group", "A1", "--json", "induce", "--v", "1", "T[t[-1]]"],
    ["--group", "A1", "rigid", "--length", "3"],
    ["--seed", "-3", "--group", "A1", "verify", "cocenter", "--seeds", "1"],
    ["--group", "A1", "--tsv", "verify", "newton", "--le", "2"],
    ["--group", "A1", "verify", "nope"],
    ["--group", "E8", "describe"],
    ["--group", "A2", "levi", "--v", "0.5,2/4", "describe"],
    ["--group", "GL5", "alcove-test", "t[1,1,1,0,0]*s1*s2",
     "--v", '["2/3","4/6","2/3","1/2","0.5"]'],
    ["--group", "C2:ad", "positivity", "t[1,1]", "--v", "1/3,1e0"],
    ["--group", "A2", "induce", "--v", '[" 1/2 ","0"]', "T[t[1,0]]"],
    ["--group", "A1", "levi", "--v", "-3/-6", "describe"],
    ["--group", "A1", "levi", "--v=-3/-6", "describe"],
    ["--group", "A1", "strata", "--length", "13"],
    ["--group", "GL3", "rigid", "--length", "9"],
    ["--group", "A2", "--ball-cap", "1", "strata", "--length", "2", "--omega", "[0,0]"],
    ["--group", "A1", "--ball-cap", "3", "strata", "--length", "4", "--omega", "[0,1]"],
    ["--group", "A1", "--ball-cap", "13", "rigid", "--length", "13"],
    ["--group", "A1", "--ball-cap", "0", "verify", "newton", "--length", "1"],
    ["--group", "A2", "induce", "--v", "[1,0]", "T[S0]"],
    ["--group", "A2", "induce", "--v", "[1,0]", "T[t[0,0]]+T[S0]"],
    # two keys of one M-class outside the induction map's domain
    ["--group", "GL4", "induce", "--v", '["-1/2","1/2","-1/2","1/2"]', "T[t[0,1,0,0]*s1*s2*s1]"],
    ["--group", "GL4", "induce", "--v", '["-1/2","1/2","-1/2","1/2"]', "T[t[1,1,-1,0]*s1*s2*s1]"],
]


def run(argv):
    """(exit code, stdout, stderr) of one in-process call of main."""
    from newton_cocenter.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(),
            re.sub(r"wall time \d+\.\d\ds", "wall time N.NNs", err.getvalue())]


def test_corpus_output_is_unchanged_in_any_order(monkeypatch):
    # argparse wraps help to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [case["argv"] for case in recorded] == ARGVS
    for order in (recorded, recorded[::-1]):
        for case in order:
            assert run(case["argv"]) == case["result"], case["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    json.dump([{"argv": argv, "result": run(argv)} for argv in ARGVS],
              sys.stdout, indent=1)
    sys.stdout.write("\n")
