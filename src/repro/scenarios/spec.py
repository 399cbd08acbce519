"""Declarative scenario specs: one named, hashable unit of adversity.

A :class:`ScenarioSpec` bundles everything that defines one run of one
experiment under one adversarial configuration — the experiment and
scale, a fault plan (``repro.mpi.faults`` spec string + seed), and the
guard mode/cadence/injection — into a frozen, validated value.  Two
specs with the same behavioural knobs share a :attr:`spec_hash`
regardless of their display name, which is what campaign deduplication,
journal task keys, and frozen regressions all key on.

Specs are plain data three ways:

* the **builder API**: ``scenario("hot-links", experiment="fig2",
  faults="degraded:0.5")``;
* **dict documents** (:meth:`ScenarioSpec.as_dict` /
  :meth:`ScenarioSpec.from_dict`) — what travels inside exec Tasks and
  campaign/journal records;
* **files**: :func:`load_scenario_file` reads a JSON (always) or YAML
  (when PyYAML is importable — it is not a repo dependency) document
  holding one spec, a list, or ``{"name": ..., "scenarios": [...]}``.

Every way a spec can be malformed raises :class:`ScenarioError` with a
message naming the offending field, mirroring
:class:`~repro.mpi.faults.FaultSpecError` one layer down.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.atomicio import canonical_json
from ..core.experiments import SCALES
from ..exec.runspec import RunSpec, RunSpecError

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "scenario",
    "load_scenario_file",
    "parse_scenario_doc",
]


class ScenarioError(ValueError):
    """A malformed scenario spec, pack name, or scenario document."""


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._~+-]*$")

#: Fields that determine the scenario's *behaviour* (and therefore its
#: hash); ``name``/``description``/``tags`` are presentation only.
_IDENTITY_FIELDS = (
    "experiment", "scale", "faults", "fault_seed",
    "guard", "guard_cadence", "guard_inject",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, validated, hashable adversarial configuration."""

    name: str
    experiment: str = "fig2"
    scale: str = "ci"
    #: ``parse_fault_spec`` string; None/"off" = fault-free.
    faults: Optional[str] = None
    fault_seed: int = 0
    #: guard mode (observe/strict/repair); None/"off" = unguarded.
    guard: Optional[str] = None
    guard_cadence: int = 16
    guard_inject: Optional[str] = None
    description: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ScenarioError(
                f"scenario name {self.name!r} must match {_NAME_RE.pattern}"
            )
        if self.experiment not in SCALES:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown experiment "
                f"{self.experiment!r}; valid: " + ", ".join(sorted(SCALES))
            )
        try:
            run = self.run_spec
        except RunSpecError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        object.__setattr__(self, "faults", run.faults)  # normalise "off"
        object.__setattr__(self, "guard", run.guard)
        if not isinstance(self.tags, tuple):
            object.__setattr__(self, "tags", tuple(self.tags))
        if not all(isinstance(t, str) for t in self.tags):
            raise ScenarioError(
                f"scenario {self.name!r}: tags must be strings"
            )

    # -- identity ----------------------------------------------------------
    @property
    def run_spec(self) -> RunSpec:
        """The run this scenario makes (where its fields are checked)."""
        return RunSpec(self.experiment, self.scale, self.faults,
                       self.fault_seed, self.guard, self.guard_cadence,
                       self.guard_inject)

    def identity(self) -> Dict[str, Any]:
        """The behavioural knobs — everything that can change the
        payload, nothing that can't (name, description, tags)."""
        return {f: getattr(self, f) for f in _IDENTITY_FIELDS}

    @property
    def spec_hash(self) -> str:
        """Stable content digest of :meth:`identity` (12 hex chars)."""
        import hashlib

        return hashlib.sha256(
            canonical_json(self.identity()).encode()
        ).hexdigest()[:12]

    # -- conversions -------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"name": self.name}
        doc.update(self.identity())
        if self.description:
            doc["description"] = self.description
        if self.tags:
            doc["tags"] = list(self.tags)
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario document must be an object, got {type(doc).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ScenarioError(
                "unknown scenario field(s) "
                + ", ".join(map(repr, unknown))
                + "; valid: " + ", ".join(sorted(known))
            )
        if "name" not in doc:
            raise ScenarioError("scenario document is missing 'name'")
        kwargs = dict(doc)
        if "tags" in kwargs:
            if not isinstance(kwargs["tags"], (list, tuple)):
                raise ScenarioError(
                    f"scenario {doc.get('name')!r}: tags must be a list"
                )
            kwargs["tags"] = tuple(kwargs["tags"])
        return cls(**kwargs)

    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """Derived spec with some knobs replaced (revalidated)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line human summary for scoreboards and listings."""
        bits = [f"{self.experiment}/{self.scale}"]
        bits.append(f"faults={self.faults or 'off'}")
        if self.faults:
            bits.append(f"seed={self.fault_seed}")
        if self.guard:
            bits.append(f"guard={self.guard}")
        if self.guard_inject:
            bits.append(f"inject={self.guard_inject}")
        return " ".join(bits)


def scenario(name: str, **knobs: Any) -> ScenarioSpec:
    """Builder-API entry point: ``scenario("storm", faults="straggler")``."""
    try:
        return ScenarioSpec(name=name, **knobs)
    except TypeError as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Documents and files
# ---------------------------------------------------------------------------
def parse_scenario_doc(data: Any, origin: str = "<doc>") -> List[ScenarioSpec]:
    """Parse a loaded scenario document into specs.

    Accepts a single spec object, a list of them, or a wrapper object
    ``{"scenarios": [...]}`` (extra wrapper keys ``name``/
    ``description`` are allowed and ignored — they label the file).
    """
    if isinstance(data, dict) and "scenarios" in data:
        extra = sorted(set(data) - {"scenarios", "name", "description"})
        if extra:
            raise ScenarioError(
                f"{origin}: unknown top-level field(s) "
                + ", ".join(map(repr, extra))
            )
        data = data["scenarios"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ScenarioError(
            f"{origin}: expected a scenario object, a non-empty list of "
            "them, or {'scenarios': [...]}"
        )
    specs = [ScenarioSpec.from_dict(item) for item in data]
    seen: Dict[str, str] = {}
    for s in specs:
        if s.name in seen:
            raise ScenarioError(
                f"{origin}: duplicate scenario name {s.name!r}"
            )
        seen[s.name] = s.spec_hash
    return specs


def load_scenario_file(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Load scenario specs from a JSON or YAML file.

    JSON always works; YAML needs PyYAML importable (it is deliberately
    not a dependency of this repo — the error says so instead of
    guessing).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # type: ignore[import-untyped]
        except ImportError:
            raise ScenarioError(
                f"{path}: YAML scenario files need PyYAML installed; "
                "use JSON instead"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario_doc(data, origin=str(path))
