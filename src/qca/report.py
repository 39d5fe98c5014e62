"""Pass/fail bookkeeping shared by the verification suites."""

from __future__ import annotations

__all__ = ["Report"]


class Report:
    def __init__(self, name: str, checks: int = 0, failures: list | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        same_class = other.__class__ is self.__class__
        return vars(self) == vars(other) if same_class else NotImplemented

    def record(self, ok: bool, detail: str = ""):
        self.checks += 1
        if not ok:
            self.failures.append(detail)

    def absorb(self, other: "Report"):
        self.checks += other.checks
        self.failures.extend(f"{other.name}: {f}" for f in other.failures)

    @property
    def ok(self) -> bool:
        return self.checks > 0 and not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"PASS {self.name} ({self.checks} checks)"
        if not self.failures:
            return f"FAIL {self.name} (no checks)"
        first = self.failures[0]
        return (
            f"FAIL {self.name} ({len(self.failures)}/{self.checks} checks failed; "
            f"first: {first})"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "failed": len(self.failures),
            "ok": self.ok,
            "first_failure": self.failures[0] if self.failures else None,
        }
