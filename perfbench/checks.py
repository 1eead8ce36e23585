"""Correctness checks on CLI output, taken from invariants.

No check compares against frozen output, so a deliberate change of the
report format elsewhere does not read as a failure; each check states a
property the answer must have whatever its layout.  A check returns
None when the output is right and a one-line reason when it is not.
Checks that need a Newton index ask the CLI's own `newton` subcommand.
"""

from __future__ import annotations

import json
import re

_TERM = re.compile(r"([+-]?)(\d*)(\*?q(\^\d+)?)?")


def poly_at_one(text: str) -> int:
    """Evaluate a printed Z[q] polynomial such as "2*q^3-q+1" at q = 1."""
    total = 0
    pos = 0
    text = text.replace(" ", "")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r}")
        sign, coeff, q_part = m.group(1), m.group(2), m.group(3)
        if not coeff and not q_part:
            raise ValueError(f"cannot read polynomial {text!r}")
        value = int(coeff) if coeff else 1
        total += -value if sign == "-" else value
        pos = m.end()
    return total


def _json_lines(stdout: str) -> list:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty output")
    return [json.loads(ln) for ln in lines]


class Checker:
    """Checks one job's output; `cli` runs an argv and returns (code, stdout)."""

    def __init__(self, cli):
        self._cli = cli
        self._index_cache: dict[tuple[str, str], dict] = {}

    def newton(self, group: str, elem: str) -> dict:
        key = (group, elem)
        if key not in self._index_cache:
            code, out = self._cli(("--group", group, "newton", elem))
            if code != 0:
                raise ValueError(f"newton {elem} exited {code}")
            self._index_cache[key] = json.loads(out)
        return self._index_cache[key]

    def check(self, job, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            records = _json_lines(stdout)
            return getattr(self, "_" + job.kind.replace("-", "_"))(job, records)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc}"

    def _same_index(self, group, elem_a, elem_b) -> bool:
        a, b = self.newton(group, elem_a), self.newton(group, elem_b)
        return a["nu_bar"] == b["nu_bar"] and a["kappa"] == b["kappa"]

    def _verify(self, job, records):
        if len(records) != 10:
            return f"expected 10 suite reports, got {len(records)}"
        for rep in records:
            bad = [c["property"] for c in rep["checks"] if c["failures"]]
            if bad or not rep["passed"]:
                return f"suite {rep['suite']} failed: {','.join(bad)}"
        return None

    def _cocenter_reduce(self, job, records):
        """At q = 1 the cocenter is the class space of the group, so T_w
        must collapse to its one class representative, coefficient 1,
        in the component of w's Newton index."""
        (nf,) = records
        survivors = []
        for comp in nf["components"]:
            for term in comp["terms"]:
                value = poly_at_one(term["poly"])
                if value:
                    survivors.append((comp, term["elem"], value))
        if len(survivors) != 1 or survivors[0][2] != 1:
            return f"q=1 image is {[(e, v) for _, e, v in survivors]}, not one class"
        comp, rep, _ = survivors[0]
        own = self.newton(job.group, job.subject)
        if comp["nu"] != own["nu_bar"] or comp["omega"] != own["kappa"]:
            return f"representative sits in component {comp['omega']};{comp['nu']}"
        if not self._same_index(job.group, job.subject, rep):
            return f"representative {rep} has another Newton index"
        return None

    def _reduce(self, job, records):
        (red,) = records
        start = self.newton(job.group, job.subject)
        end = self.newton(job.group, red["min"])
        if end["length"] > start["length"]:
            return f"reduce raised the length {start['length']} -> {end['length']}"
        if not self._same_index(job.group, job.subject, red["min"]):
            return "reduce changed the Newton index"
        return None

    def _positivity(self, job, records):
        (cert,) = records
        if not 1 <= cert["exponent"] <= cert["bound"]:
            return f"exponent {cert['exponent']} outside 1..{cert['bound']}"
        return None

    def _newton(self, job, records):
        (rec,) = records
        return None if {"nu_bar", "kappa", "length"} <= rec.keys() else "fields missing"

    def _triple(self, job, records):
        (rec,) = records
        return None if {"x", "K", "u"} <= rec.keys() else "fields missing"

    def _alcove_test(self, job, records):
        (rec,) = records
        return None if isinstance(rec["v_alcove"], bool) else "v_alcove is not a bool"

    def _levi(self, job, records):
        (rec,) = records
        return None if rec["w_m_order"] >= 1 else "empty Levi Weyl group"

    def _strata(self, job, records):
        return None if all("newton" in r for r in records) else "fields missing"

    def _rigid(self, job, records):
        return None if all(r["covered"] for r in records) else "uncovered component"
