"""Machine-readable run reports.

A report records, for every pipeline stage, the parameters used, each
postcondition checked with its outcome and witness, and the final
decomposition when one was reached.  Reports are deterministic: identical
inputs and seed give byte-identical files (stable key order, no timestamps,
no floats from uncontrolled sources).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

TOOL_VERSION = "bipham 0.1.0"


def jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, frozenset):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, (set, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, list):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return x


@dataclass
class Check:
    ident: str
    ok: bool
    witness: object = None

    def as_json(self):
        return {"id": self.ident, "pass": self.ok, "witness": jsonable(self.witness)}


@dataclass
class Stage:
    name: str
    rule: str  # stable identifier of the rule book entry this stage enforces
    status: str = "ok"  # ok | failed | skipped
    checks: list[Check] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    error: str | None = None

    def check(self, ident: str, ok: bool, witness=None):
        self.checks.append(Check(ident, bool(ok), witness))
        return ok

    def require(self, ident: str, ok: bool, witness=None):
        self.check(ident, ok, witness)
        if not ok:
            raise AssertionError(f"{self.name}: check {ident} failed ({witness})")

    def as_json(self):
        return {
            "name": self.name,
            "paper_ref": self.rule,
            "status": self.status,
            "params": jsonable(self.params),
            "checks": [c.as_json() for c in self.checks],
            "error": self.error,
        }


@dataclass
class DecompositionReport:
    instance: dict
    seed: int
    stages: list[Stage] = field(default_factory=list)
    cycles: list[list[int]] = field(default_factory=list)
    matching: list | None = None
    accounting: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def stage(self, name: str, rule: str, **params) -> Stage:
        st = Stage(name, rule, params=params)
        self.stages.append(st)
        return st

    def account(self, label: str, removed: int, remaining: int, total: int):
        entry = {
            "stage": label,
            "removed_so_far": removed,
            "remaining": remaining,
            "conserved": removed + remaining == total,
        }
        self.accounting.append(entry)
        return entry["conserved"]

    def ok(self) -> bool:
        return all(s.status == "ok" for s in self.stages) and all(
            c.ok for s in self.stages for c in s.checks
        )

    def as_json(self):
        return {
            "tool": TOOL_VERSION,
            "instance": jsonable(self.instance),
            "seed": self.seed,
            "warnings": list(self.warnings),
            "stages": [s.as_json() for s in self.stages],
            "decomposition": {
                "cycles": [list(c) for c in self.cycles],
                "matching": jsonable(self.matching),
            },
            "accounting": self.accounting,
        }


def emit_report(report: DecompositionReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_report(report))


def render_report(report: DecompositionReport) -> str:
    return format_json(report.as_json()) + "\n"


def format_json(x) -> str:
    """``json.dumps(x, indent=1, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder, whose
    self-recursive closures leave a reference cycle behind on every call.
    This writer recurses through a module-level function and leaves none;
    scalars and keys are quoted by ``json.dumps`` itself.
    """
    out: list[str] = []
    _format_json(x, "\n", out)
    return "".join(out)


def _format_json(x, newline: str, out: list[str]) -> None:
    if isinstance(x, dict):
        items = [(_json_key(k), v) for k, v in sorted(x.items())]
        opener, closer = "{", "}"
    elif isinstance(x, (list, tuple)):
        items = [(None, v) for v in x]
        opener, closer = "[", "]"
    else:
        out.append(json.dumps(x))
        return
    if not items:
        out.append(opener + closer)
        return
    inner = newline + " "
    sep = opener + inner
    for key, v in items:
        out.append(sep if key is None else f"{sep}{json.dumps(key)}: ")
        _format_json(v, inner, out)
        sep = "," + inner
    out.append(newline + closer)


def _json_key(k) -> str:
    """A dict key as ``json`` writes it: strings as they are; None, bools,
    ints and floats as their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")
