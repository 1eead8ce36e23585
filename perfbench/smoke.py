"""Smoke test of the benchmark at tiny seeded sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark untraced and
traced on a few cheap jobs and requires: exit code 0, every output
correct, exactly the metrics BENCHMARK.json names with their units,
and a traced run that really traced (spans recorded, originals restored
afterwards) while leaving every job's stdout byte-identical to the
untraced pass.  It also feeds the cocenter check a wrong normal form,
which must be rejected.  Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from checks import Checker
from workloads import Job

SCALE = "0.05"


def bench_run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--scale", SCALE])
    return code, json.loads(out.getvalue().splitlines()[-1])


def problems():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench_run(wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                yield f"{where}: exit {code}, {result['failed']} failed jobs"
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                yield f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
            if trace and result["metrics"]["affine_weyl.multiply.calls"]["value"] == 0:
                yield f"{where}: the tracer recorded no multiply calls"
    from newton_cocenter import affine_weyl, cli
    if hasattr(affine_weyl.multiply, "__wrapped__"):
        yield "the tracer left affine_weyl.multiply wrapped"
    wrong = json.dumps({"components": [{"nu": ["0"], "omega": [0], "terms": [
        {"elem": "t[0]*s1", "poly": "q+1"}]}]})
    job = Job("cocenter-reduce", "A1", (), subject="t[0]*s1")
    checker = Checker(lambda argv: run.run_cli(cli.main, argv)[:2])
    if checker.check(job, 0, wrong) is None:
        yield "the cocenter check accepted a normal form that is 2 at q=1"


def main() -> int:
    for problem in problems():
        print(f"smoke: {problem}", file=sys.stderr)
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
