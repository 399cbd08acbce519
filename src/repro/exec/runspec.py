"""One validated description of a ``repro run`` request.

A :class:`RunSpec` holds what decides a run's results: experiment key
(or ``all``), scale, fault plan and guard settings — not execution
settings (jobs, grace, cache, journal, timeouts).  ``repro run`` builds
it from argv, a served ``run`` job from JSON and ``--resume`` from the
journal header; :class:`~repro.exec.engine.Engine` and
:func:`~repro.exec.tasks.decompose` take it.  A malformed field raises
:class:`RunSpecError` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from ..core.experiments import REGISTRY
from ..guard.monitor import parse_guard_mode
from ..mpi.faults import parse_fault_spec

__all__ = ["GUARD_INJECTIONS", "RUN_SCALES", "RUN_SPEC_FIELDS", "RunSpec",
           "RunSpecError"]

RUN_SCALES = ("ci", "paper")

#: Synthetic numerical-fault injections (``--guard-inject``), applied by
#: :func:`~repro.exec.tasks.decompose`.  ``overflow16``: run the Fig. 4
#: Float16 point with an oversized scaling, which overflows to Inf.
GUARD_INJECTIONS = ("overflow16",)


class RunSpecError(ValueError):
    """A malformed run spec: unknown key, bad value or unknown field."""


@dataclass(frozen=True)
class RunSpec:
    """The identity of one ``repro run``: frozen, validated, hashable.
    ``"off"`` normalises to None; so does the cadence to its default
    without a guard or an injection (it is then never consulted)."""

    key: str = "all"
    scale: str = "ci"
    faults: Optional[str] = None
    seed: int = 0
    guard: Optional[str] = None
    guard_cadence: int = 16
    guard_inject: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or (
                self.key != "all" and self.key not in REGISTRY):
            raise RunSpecError(
                f"unknown experiment {self.key!r}; valid names: "
                + ", ".join(sorted(REGISTRY)) + " (or 'all')")
        if self.scale not in RUN_SCALES:
            raise RunSpecError(f"unknown scale {self.scale!r}; valid: "
                               + ", ".join(RUN_SCALES))
        if type(self.seed) is not int:  # bool is no seed
            raise RunSpecError(f"seed must be an int, got {self.seed!r}")
        for name in ("faults", "guard"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise RunSpecError(
                    f"{name} must be a string, got {getattr(self, name)!r}")
        try:  # FaultSpecError is a ValueError
            if parse_fault_spec(self.faults, seed=self.seed) is None:
                object.__setattr__(self, "faults", None)
            object.__setattr__(self, "guard",
                               parse_guard_mode(self.guard or None))
        except ValueError as exc:
            raise RunSpecError(str(exc)) from None
        if type(self.guard_cadence) is not int or self.guard_cadence < 1:
            raise RunSpecError("guard_cadence must be an int >= 1, got "
                               f"{self.guard_cadence!r}")
        if self.guard_inject not in (None, *GUARD_INJECTIONS):
            raise RunSpecError(
                f"unknown guard injection {self.guard_inject!r}; valid: "
                + ", ".join(GUARD_INJECTIONS))
        if self.guard_meta() is None:
            object.__setattr__(self, "guard_cadence", 16)

    @property
    def keys(self) -> List[str]:
        """The experiments this run covers, in registry order."""
        return list(REGISTRY) if self.key == "all" else [self.key]

    def guard_meta(self) -> Optional[Dict[str, Any]]:
        """The guard block of the journal header and the cache key; None
        when guards are fully off (as in an unguarded run's)."""
        if self.guard is None and self.guard_inject is None:
            return None
        meta: Dict[str, Any] = {
            "mode": self.guard or "off", "cadence": self.guard_cadence,
        }
        if self.guard_inject is not None:
            meta["inject"] = self.guard_inject
        return meta

    def first_difference(self, other: "RunSpec") -> Optional[str]:
        """The first field whose value differs from ``other``'s."""
        return next((f for f in RUN_SPEC_FIELDS
                     if getattr(self, f) != getattr(other, f)), None)

    @classmethod
    def from_args(cls, args: Any) -> "RunSpec":
        """From a parsed ``repro run`` namespace (dests = fields)."""
        return cls(**{f: getattr(args, f) for f in RUN_SPEC_FIELDS})

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunSpec":
        """From a JSON object; an unknown key is refused by name."""
        unknown = sorted(set(doc) - set(RUN_SPEC_FIELDS))
        if unknown:
            raise RunSpecError(
                "unknown run spec key(s) " + ", ".join(map(repr, unknown))
                + "; valid: " + ", ".join(RUN_SPEC_FIELDS))
        return cls(**doc)

    @classmethod
    def from_journal(cls, meta: Dict[str, Any]) -> "RunSpec":
        """The spec a journal's ``run_start`` record was written from."""
        keys = list(meta.get("keys") or ())
        if keys != list(REGISTRY) and len(keys) != 1:
            raise RunSpecError(
                f"the journal ran {keys}, which no single run key names")
        guard = meta.get("guard") or {}
        return cls(
            key=keys[0] if len(keys) == 1 else "all",
            scale=meta.get("scale"),
            faults=meta.get("fault_spec"),
            seed=meta.get("fault_seed", 0),
            guard=guard.get("mode"),
            guard_cadence=guard.get("cadence", 16),
            guard_inject=guard.get("inject"),
        )


#: Field names in declaration order (the order a mismatch is reported).
RUN_SPEC_FIELDS = tuple(f.name for f in fields(RunSpec))
