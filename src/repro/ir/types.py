"""Types of the miniature IR: LLVM-style scalars and (scalable) vectors.

The paper shows Julia lowering ``Float16`` to LLVM's ``half`` type (§II)
and, for Julia v1.9/LLVM 14, emitting ``llvm.vscale``-based scalable
vectors for SVE (§III-A).  The IR in this package therefore knows three
scalar float types — ``half``, ``float``, ``double`` — and vector types
that may be fixed (``<8 x half>``) or scalable (``<vscale x 8 x half>``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..ftypes.formats import FLOAT16, FLOAT32, FLOAT64, FloatFormat

__all__ = ["ScalarType", "VectorType", "IRType", "HALF", "FLOAT", "DOUBLE"]


@dataclass(frozen=True)
class ScalarType:
    """An LLVM-like scalar float type."""

    llvm_name: str
    fmt: FloatFormat

    @property
    def npdtype(self) -> np.dtype:
        if self.fmt.npdtype is None:  # pragma: no cover - no such scalar here
            raise TypeError(f"{self.llvm_name} has no numpy dtype")
        return self.fmt.npdtype

    @property
    def bits(self) -> int:
        return self.fmt.bits

    def __str__(self) -> str:
        return self.llvm_name


HALF = ScalarType("half", FLOAT16)
FLOAT = ScalarType("float", FLOAT32)
DOUBLE = ScalarType("double", FLOAT64)

_WIDER = {HALF: FLOAT, FLOAT: DOUBLE}


def wider(t: ScalarType) -> ScalarType:
    """The next wider scalar type (``half``→``float``, ``float``→``double``)."""
    try:
        return _WIDER[t]
    except KeyError:
        raise TypeError(f"no wider type than {t}") from None


@dataclass(frozen=True)
class VectorType:
    """A fixed or scalable vector of a scalar type.

    ``<vscale x N x T>`` has N x vscale lanes at runtime; on A64FX
    (512-bit SVE) vscale = 4, so ``<vscale x 8 x half>`` holds 32 halves.
    """

    elem: ScalarType
    count: int
    scalable: bool = False

    def lanes(self, vscale: int = 1) -> int:
        return self.count * (vscale if self.scalable else 1)

    def __str__(self) -> str:
        if self.scalable:
            return f"<vscale x {self.count} x {self.elem}>"
        return f"<{self.count} x {self.elem}>"


IRType = Union[ScalarType, VectorType]


def elem_type(t: IRType) -> ScalarType:
    """Scalar element type of a scalar or vector IR type."""
    return t.elem if isinstance(t, VectorType) else t


def with_elem(t: IRType, new_elem: ScalarType) -> IRType:
    """Same shape as ``t`` but with a different scalar element type."""
    if isinstance(t, VectorType):
        return VectorType(new_elem, t.count, t.scalable)
    return new_elem
