"""Machine-readable run reports.

Reports are JSON-first with a plain-text renderer: no timestamps, keys
sorted on output.  An input record is a path as given (an absolute one
stays absolute) or an inline argument, with the digest of its bytes; a file
an input names by a nested path is read but not digested.  A report's
assertions all passing is equivalent to the CLI exiting 0.  A report reads
no files: its input records come from ``jsonio.load_file`` and
``jsonio.load_gamma``, which read each input once.
"""

from __future__ import annotations

import json
from typing import Any

from .records import Record


class Assertion(Record):
    __slots__ = ("name", "lhs", "rhs", "passed")


class Report(Record):
    __slots__ = ("command", "inputs", "result", "breakdown", "assertions", "warnings")

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict[str, dict] = {}
        self.result: Any = None
        self.breakdown: Any = None
        self.assertions: list[Assertion] = []
        self.warnings: list[str] = []

    def check(self, name: str, lhs: Any, rhs: Any) -> None:
        self.assertions.append(Assertion(name, lhs, rhs, lhs == rhs))

    def all_pass(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "breakdown": self.breakdown,
            "assertions": [
                {"name": a.name, "lhs": a.lhs, "rhs": a.rhs, "pass": a.passed}
                for a in self.assertions
            ],
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for label, info in self.inputs.items():
            where = info.get("path", "<inline>")
            lines.append(f"input {label}: {where} sha256={info['sha256'][:12]}")
        lines.append(f"result: {json.dumps(self.result, sort_keys=True, ensure_ascii=False)}")
        if self.breakdown is not None:
            lines.append(
                "breakdown: "
                + json.dumps(self.breakdown, sort_keys=True, ensure_ascii=False)
            )
        for a in self.assertions:
            status = "ok" if a.passed else "FAIL"
            lines.append(f"assert {a.name}: {a.lhs} == {a.rhs} .. {status}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append("status: " + ("pass" if self.all_pass() else "FAIL"))
        return "\n".join(lines) + "\n"
