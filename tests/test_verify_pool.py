"""`verify all --jobs N` runs the suites in at most N worker processes;
its output, exit code and stderr message are those of the serial loop."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import newton_cocenter
from newton_cocenter import verify
from newton_cocenter.cli import main
from newton_cocenter.errors import LogicError, ResourceError

ARGV = ["--group", "A1", "--json", "verify", "all"]


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
    assert multiprocessing.active_children() == []


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    runs the tasks in this process, starting none."""

    requested = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        self.requested.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_worker_count_is_at_most_the_suite_count(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "requested", [])
    serial = run(capsys, "--jobs", "1", *ARGV)
    assert InProcessPool.requested == []
    assert run(capsys, "--jobs", "1000", *ARGV)[:2] == serial[:2]
    assert InProcessPool.requested == [len(verify.SUITES)]


def test_one_job_or_one_suite_starts_no_process(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert run(capsys, "--jobs", "1", *ARGV)[0] == 0
    assert run(capsys, "--group", "A1", "--jobs", "4", "verify", "newton")[0] == 0


def test_describe_does_not_import_multiprocessing():
    # process pools are imported only when one is started, so set-up
    # does not pay for them
    src = str(Path(newton_cocenter.__file__).resolve().parent.parent)
    code = ("import sys\n"
            "from newton_cocenter import cli\n"
            "assert cli.main(['--group', 'GL3', 'describe']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
