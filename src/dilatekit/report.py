"""Verification reports: per-identity checks with witnesses.

Every verifier in the package returns a Report. A check is named after the
identity it tests, carries the bound it was tested to (where the identity
quantifies over an infinite range), and on failure a JSON-serializable
witness sufficient to reproduce the failure in isolation. Status
"inconclusive" is first class: it marks instances the implemented decision
procedure genuinely cannot settle, and does not fail a report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Union

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def first_witness(probes: Iterable, fn: Callable[[Any], Optional[dict]]) -> Optional[dict]:
    """The first non-None fn(x) over the probes, in order; fn is called on
    no probe after it."""
    return next((w for w in map(fn, probes) if w is not None), None)


@dataclass
class Check:
    name: str
    status: str
    bound: Optional[int] = None
    witness: Optional[dict[str, Any]] = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and self.witness is None:
            raise ValueError(f"failing check {self.name!r} must carry a witness")

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "status": self.status}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)
    config: dict[str, Any] = field(default_factory=dict)
    # a value may be a function of no arguments, called when written out
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def add(
        self,
        name: str,
        ok: bool,
        bound: Optional[int] = None,
        witness: Union[dict[str, Any], Callable[[], dict[str, Any]], None] = None,
        detail: str = "",
    ) -> Check:
        """Record a check. A witness that costs work to build can be given
        as a function of no arguments; it is called only if the check fails."""
        if ok:
            witness = None
        elif callable(witness):
            witness = witness()
        check = Check(
            name=name,
            status=PASS if ok else FAIL,
            bound=bound,
            witness=witness,
            detail=detail,
        )
        self.checks.append(check)
        return check

    def add_inconclusive(self, name: str, detail: str = "", witness=None) -> Check:
        check = Check(name=name, status=INCONCLUSIVE, witness=witness, detail=detail)
        self.checks.append(check)
        return check

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.config:
            out["config"] = self.config
        if self.data:
            out["data"] = {k: v() if callable(v) else v for k, v in self.data.items()}
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)


def reports_to_json(reports: list[Report], indent: Optional[int] = None) -> str:
    return json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=indent)
