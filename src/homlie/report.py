"""Structured verification reports with a stable JSON schema.

Every verifier in the package returns a ``Report``: an ordered list of
checks, each carrying a machine id, the name of the identity being
checked, a pass/fail status and an optional witness describing the
failure.  Reports are deterministic: identical inputs produce identical
JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Entry:
    id: str
    anchor: str
    status: str  # "pass" | "fail"
    witness: str | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"id": self.id, "anchor": self.anchor, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    suite: str
    window: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    entries: list[Entry] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    def check(self, id: str, anchor: str, ok: bool, witness: str | None = None) -> bool:
        self.entries.append(
            Entry(id=id, anchor=anchor, status="pass" if ok else "fail",
                  witness=None if ok else witness)
        )
        return ok

    def absorb(self, id: str, anchor: str, sub: "Report") -> bool:
        """One check that passes when ``sub`` does and otherwise carries
        the witness of its first failure."""
        first = sub.first_failure()
        return self.check(id, anchor, sub.ok,
                          witness=first.witness if first else f"{sub.suite}: no checks")

    @property
    def ok(self) -> bool:
        """True when there is at least one check and every check passed:
        an empty sweep proves nothing."""
        return bool(self.entries) and all(e.status == "pass" for e in self.entries)

    @property
    def failures(self) -> list[Entry]:
        return [e for e in self.entries if e.status != "pass"]

    def first_failure(self) -> Entry | None:
        for e in self.entries:
            if e.status != "pass":
                return e
        return None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"suite": self.suite}
        if self.window is not None:
            d["window"] = self.window
        d["params"] = dict(sorted(self.params.items()))
        d["entries"] = [e.to_dict() for e in self.entries]
        return d

    def summary(self) -> str:
        n_fail = len(self.failures)
        total = len(self.entries)
        word = "ok" if n_fail == 0 else f"{n_fail} failed"
        return f"{self.suite}: {total - n_fail}/{total} checks passed ({word})"
