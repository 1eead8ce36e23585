"""`verify all --jobs N` runs the suites in at most N forked worker
processes; its output, exit code and stderr message are those of the
serial loop, and no worker outlives the call."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import newton_cocenter
from newton_cocenter import verify
from newton_cocenter.affine_weyl import AffineWeylGroup
from newton_cocenter.cli import main
from newton_cocenter.errors import LogicError, ResourceError
from newton_cocenter.root_datum import build_root_datum

ARGV = ["--group", "A1", "--json", "verify", "all"]
# positivity shares the shard of levi; every other suite is one shard
SHARDS = len(verify.SUITES) - 1


class Hung(Exception):
    pass


def hung(signum, frame):
    raise Hung("the run did not end within 60 s")


@pytest.fixture(autouse=True)
def no_child_left():
    # a run that hangs fails instead, and leaves no worker behind
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def raising(error, delay):
    def suite(group, params):
        time.sleep(delay)
        raise error
    return suite


@pytest.mark.parametrize("first, later", [
    (LogicError("first failing suite"), ResourceError("later failing suite")),
    (ResourceError("first failing suite"), LogicError("later failing suite")),
])
def test_earliest_failing_suite_wins(first, later, capsys, monkeypatch):
    # the earlier suite fails after the later one, as seen from the clock
    monkeypatch.setitem(verify.SUITES, "straightness", (raising(first, 0.5), {}))
    monkeypatch.setitem(verify.SUITES, "reduction", (raising(later, 0.0), {}))
    serial = run(capsys, "--jobs", "1", *ARGV)
    pooled = run(capsys, "--jobs", "2", *ARGV)
    assert serial[0] == (3 if isinstance(first, LogicError) else 2)
    assert serial[1] == "" and "first failing suite" in serial[2]
    assert pooled == serial


def test_earliest_failing_suite_wins_within_a_shard(capsys, monkeypatch):
    # positivity fails late, after levi in the same worker; cocenter,
    # later in suite order, fails at once in the other worker
    monkeypatch.setitem(verify.SUITES, "positivity",
                        (raising(LogicError("positivity failed"), 0.5), {}))
    monkeypatch.setitem(verify.SUITES, "cocenter",
                        (raising(ResourceError("cocenter failed"), 0.0), {}))
    serial = run(capsys, "--jobs", "1", *ARGV)
    assert serial[0] == 3 and "positivity failed" in serial[2]
    assert run(capsys, "--jobs", "2", *ARGV) == serial


def test_unexpected_error_carries_its_worker_traceback(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "rigid", (raising(ZeroDivisionError("x"), 0), {}))
    code, out, err = run(capsys, "--jobs", "2", *ARGV)
    assert code == 3 and out == ""
    assert "_WorkerTraceback" in err and "in suite" in err
    assert err.rstrip().endswith("ZeroDivisionError: x")


def test_a_worker_that_dies_is_a_logic_error(capsys, monkeypatch):
    def crash(group, params):
        os._exit(9)

    monkeypatch.setitem(verify.SUITES, "alcove", (crash, {}))
    code, out, err = run(capsys, "--jobs", "2", *ARGV)
    assert code == 3 and out == ""
    assert err.startswith("logic error: ") and "alcove" in err and "9" in err
    # the other suites all reported
    assert "grammar" not in err and "rigid" not in err


def counting_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_worker_count_is_at_most_the_suite_count(capsys, monkeypatch):
    forks = counting_forks(monkeypatch)
    serial = run(capsys, "--jobs", "1", *ARGV)
    assert forks == []
    assert run(capsys, "--jobs", "1000", *ARGV)[:2] == serial[:2]
    assert len(forks) == SHARDS < len(verify.SUITES)
    forks.clear()
    assert run(capsys, "--jobs", "3", *ARGV)[:2] == serial[:2]
    assert len(forks) == 3


def test_one_job_or_one_suite_starts_no_process(capsys, monkeypatch):
    def refuse():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", refuse)
    assert run(capsys, "--jobs", "1", *ARGV)[0] == 0
    assert run(capsys, "--group", "A1", "--jobs", "4", "verify", "newton")[0] == 0


def test_without_fork_the_suites_run_serially(capsys, monkeypatch):
    serial = run(capsys, "--jobs", "1", *ARGV)
    monkeypatch.delattr(os, "fork")
    verify._no_fork_notice.cache_clear()
    first = run(capsys, "--jobs", "2", *ARGV)
    second = run(capsys, "--jobs", "2", *ARGV)
    assert first[:2] == second[:2] == serial[:2]
    notice = "no os.fork here"
    assert first[2].count(notice) == 1 and notice not in second[2]


def test_positivity_runs_in_the_worker_of_levi(monkeypatch):
    def recording(name):
        suite = verify.SUITES[name][0]

        def wrapper(group, params):
            if name == "levi":
                time.sleep(0.2)  # so that the other worker takes cocenter
            report = suite(group, params)
            report.params = dict(report.params, pid=os.getpid())
            return report
        return wrapper

    for name in ("levi", "positivity", "cocenter"):
        monkeypatch.setitem(verify.SUITES, name, (recording(name), verify.SUITES[name][1]))
    group = AffineWeylGroup(build_root_datum("A2"))
    reports = {r.suite: r for r in verify.run_suite("all", group, {}, jobs=2)}
    pids = {name: reports[name].params["pid"] for name in ("levi", "positivity", "cocenter")}
    assert pids["levi"] == pids["positivity"] != os.getpid()
    assert pids["cocenter"] not in (pids["levi"], os.getpid())


@pytest.mark.parametrize("group", ["A2", "C2:ad", "GL3"])
def test_any_job_count_prints_the_serial_output(group, capsys):
    serial = run(capsys, "--group", group, "--jobs", "1", "verify", "all")
    assert serial[0] == 0
    for jobs in ("3", "10"):
        assert run(capsys, "--group", group, "--jobs", jobs, "verify", "all")[:2] == serial[:2]


def test_describe_does_not_import_multiprocessing():
    # set-up does not pay for process pools, and verify forks its
    # workers itself
    src = str(Path(newton_cocenter.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from newton_cocenter import cli\n"
            "assert cli.main(['--group', 'GL3', 'describe']) == 0\n"
            "assert cli.main(['--group', 'A1', '--jobs', '2', 'verify', 'all']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_describe_imports_no_dataclasses_and_builds_little_of_w0():
    # a CLI call pays neither for `dataclasses` (which imports `inspect`)
    # nor for the 120 elements of W0 of GL5 that describe does not read,
    # nor for json, the modules describe does not call or the parsers of
    # the other subcommands
    src = str(Path(newton_cocenter.__file__).resolve().parent.parent)
    code = ("import argparse, sys\n"
            "parsers, init = [], argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    parsers.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from newton_cocenter import cli\n"
            "groups, make = [], cli._make_group\n"
            "cli._make_group = lambda args: groups.append(make(args)) or groups[-1]\n"
            "assert cli.main(['--group', 'GL5', 'describe']) == 0\n"
            "loaded = sorted({'dataclasses', 'inspect', 'json', 'newton_cocenter.verify',\n"
            "                 'newton_cocenter.hecke_cocenter', 'newton_cocenter.levi_alcove'}\n"
            "                & set(sys.modules))\n"
            "import json\n"
            "print(json.dumps([loaded, parsers, [len(g.datum.materialised) for g in groups]]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    modules, parsers, materialised = json.loads(proc.stdout.splitlines()[-1])
    assert modules == []
    assert parsers == ["newton-cocenter", "newton-cocenter describe"]
    assert len(materialised) == 1 and materialised[0] < 120


def test_queries_import_no_fractions():
    # the engine holds every rational as integers over a denominator:
    # only the coweight parser of the four --v commands imports
    # `fractions`, which pulls in `decimal` and `numbers`
    src = str(Path(newton_cocenter.__file__).resolve().parent.parent)
    elem = "t[1,0,0,0,-1]*s1*s2"
    calls = [["--group", "GL5", "describe"], ["--group", "GL5", "newton", elem],
             ["--group", "GL5", "reduce", elem], ["--group", "GL5", "triple", elem],
             ["--group", "GL5", "strata", "--length", "2"],
             ["--group", "GL5", "rigid", "--length", "2"],
             ["--group", "GL5", "cocenter-reduce", f"(q-1)*T[{elem}]"],
             ["--group", "A1", "verify", "all"]]
    code = ("import json, sys\n"
            "from newton_cocenter import cli\n"
            "loaded = []\n"
            f"for argv in {calls!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
            "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]] * len(calls)


ORPHAN_SCRIPT = """
import os, sys, time
from newton_cocenter import verify
from newton_cocenter.affine_weyl import AffineWeylGroup
from newton_cocenter.root_datum import build_root_datum

def slow(name):
    def suite(group, params):
        with open(sys.argv[1], "a") as log:
            log.write(f"{name} {os.getpid()} {time.monotonic()}\\n")
        time.sleep(1.0)
        return verify.SuiteReport(name, "A1", params)
    return suite

for name in verify.SUITES:
    verify.SUITES[name] = (slow(name), {})
verify.run_suite("all", AffineWeylGroup(build_root_datum("A1")), {}, jobs=2)
"""


def running(pid):
    """False once pid has exited, also when it stays an unreaped zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_workers_of_a_killed_parent_start_no_shard(tmp_path):
    # the kill lands while both workers are in their first shard; the
    # one running levi must not go on to positivity, neither may take
    # another shard, and neither may print a traceback
    log, err = tmp_path / "starts.log", tmp_path / "stderr"
    src = str(Path(newton_cocenter.__file__).resolve().parent.parent)
    with open(err, "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, str(log)],
                                env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        deadline = time.monotonic() + 30
        while not (log.exists() and len(log.read_text().splitlines()) >= 2):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
    finally:
        killed_at = time.monotonic()
        proc.kill()
        proc.wait()
    starts = [line.split() for line in log.read_text().splitlines()]
    workers = {int(pid) for _, pid, _ in starts}
    assert len(workers) == 2 and proc.pid not in workers
    deadline = killed_at + 5
    while any(running(pid) for pid in workers):
        assert time.monotonic() < deadline, "a worker outlived its parent by 5 s"
        time.sleep(0.05)
    late = [name for name, _, at in (line.split() for line in log.read_text().splitlines())
            if float(at) > killed_at]
    assert late == []
    # the worker that was in a suite found no reader for its report
    # and left without a traceback
    assert err.read_text() == ""
