"""`SuiteReport.check`, the one property runner of the verify suites:
counts, the first failing subject in iteration order, `show` called on
that subject only, and the result it appends."""

from newton_cocenter.verify import CheckResult, SuiteReport


def _report():
    return SuiteReport("unit", "A1", {})


class _Show:
    """A `show` that records every subject it formats."""

    def __init__(self):
        self.calls = []

    def __call__(self, subject):
        self.calls.append(subject)
        return f"<{subject}>"


def test_counts_instances_and_failures():
    result = _report().check("p", ((i, i % 3 != 0) for i in range(10)), str)
    assert (result.instances, result.failures) == (10, 4)


def test_first_counterexample_is_the_first_failure_in_order():
    cases = [("a", True), ("b", False), ("c", True), ("d", False), ("e", False)]
    assert _report().check("p", iter(cases), str).first_counterexample == "b"


def test_show_formats_the_first_failing_subject_once():
    show = _Show()
    result = _report().check("p", iter([(1, True), (2, False), (3, False)]), show)
    assert show.calls == [2]
    assert result.first_counterexample == "<2>"


def test_show_is_never_called_when_every_case_passes():
    show = _Show()
    result = _report().check("p", ((i, True) for i in range(5)), show)
    assert show.calls == []
    assert (result.instances, result.failures, result.first_counterexample) == (5, 0, None)


def test_no_cases():
    show = _Show()
    result = _report().check("p", iter(()), show)
    assert (result.instances, result.failures, result.first_counterexample) == (0, 0, None)
    assert show.calls == []


def test_returns_the_appended_result():
    rep = _report()
    rep.add("before", 1, 0)
    result = rep.check("p", iter([(7, False)]), str)
    assert isinstance(result, CheckResult) and rep.checks[-1] is result
    assert [c.property_id for c in rep.checks] == ["before", "p"]
    result.detail = "strict=1"
    assert rep.to_text().splitlines()[2] == \
        "  p: instances=1 failures=1 [strict=1] first=7"
    assert not rep.passed
