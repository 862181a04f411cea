"""Output checks.  Every check counts as attempted; a check that does not
hold counts as failed and is remembered with a one-line reason."""

from __future__ import annotations

import json


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def size(self, code, expected, published):
        """Code size against the recipe's size polynomial and the value
        the benchmark expects for this workload."""
        got = None if code is None else code.size
        return self.check(got == expected == published,
                          f"size {got}, size polynomial {expected}, expected {published}")

    def exit_code(self, rc, argv):
        return self.check(rc == 0, f"exit code {rc} from {' '.join(argv)}")

    def distance(self, report, claimed, exact=None):
        """No violations and a minimum distance of at least the claim
        (exactly `exact` when given)."""
        if report is None:
            return self.check(False, "no verification report")
        found = report["min_distance_found"]
        ok = not report["violations"] and found is not None and found >= claimed
        if exact is not None:
            ok = ok and found == exact
        want = f"== {exact}" if exact is not None else f">= {claimed}"
        return self.check(ok, f"min distance {found} (want {want}), "
                              f"{len(report['violations'])} violations")

    def same(self, a, b, what):
        return self.check(a == b, what)


def report_dict(report):
    """A VerificationReport (object or JSON text) as a dict."""
    text = report if isinstance(report, str) else report.to_json()
    return json.loads(text)


def without_wall_time(report):
    out = dict(report)
    out.pop("wall_time", None)
    return out
