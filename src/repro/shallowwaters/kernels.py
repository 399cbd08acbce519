"""Fused, allocation-free RHS and RK4 kernels (the perf core of Fig. 4).

The reference implementation in :mod:`repro.shallowwaters.rhs` and
:mod:`repro.shallowwaters.integration` is written for clarity: every
operator allocates (``np.roll`` plus one temporary per elementary op),
which costs ~200 allocations per RK4 step.  This module re-implements
the *same arithmetic* — the identical sequence of elementary float
operations, in the identical order — against preallocated scratch
buffers and slice-copy shifts, so a step performs zero heap allocation
beyond a handful of reused arrays.

Bit-identity is a hard contract, not an aspiration
(``tests/test_fused_kernels.py`` pins fused == unfused exactly):

* float32/float64: slice shifts produce the same values as ``np.roll``
  and every ufunc runs with ``out=`` on the same operand order, so the
  results are trivially bit-identical.

* float16 runs through a **float32 shadow**: numpy has no SIMD float16
  path (every Float16 ufunc is a scalar loop ~20x slower than float32),
  so the fused kernel keeps all fields as float16-*valued* float32
  arrays and rounds to the Float16 grid after every elementary ``+ - *``
  (:func:`round16_`).  Because Float32 carries more than ``2*11 + 2``
  significand bits, computing an elementary op in float32 and rounding
  to Float16 is bit-identical to the native Float16 op (the classic
  double-rounding-safety bound of Rump/Roux-style analyses), including
  overflow to ``inf``, signed zeros, and subnormals.  This is the
  software analogue of the paper's point that A64FX executes Float16
  arithmetic at full vector speed while commodity numpy cannot.

The scaling discipline of §III-B (scaled x unscaled products, boosted
drag constants, premultiplied tendencies) is inherited untouched — the
kernel is a transcription of :func:`repro.shallowwaters.rhs.tendencies`,
not a reformulation.

Set ``REPRO_FUSED_SW=0`` (or pass ``fused=False`` to
:class:`~repro.shallowwaters.integration.RK4Integrator`) to force the
reference path.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from .params import CastCoefficients, ShallowWaterParams
from .rhs import State

__all__ = ["FusedTendencies", "FusedRK4", "round16_", "fused_enabled", "make_fused"]

#: float32 exponent-field mask.
_EXP_MASK = np.uint32(0x7F800000)
#: sign-bit mask.
_SIGN_MASK = np.uint32(0x80000000)
#: magnitude mask (everything but the sign).
_ABS_MASK = np.uint32(0x7FFFFFFF)
#: (13 << 23) | 0x00400000 — turns the bare exponent field of ``x``
#: into the snap constant ``1.5 * 2**(e+13)``.
_SNAP_ADD = np.uint32(0x06C00000)
#: bit pattern of 0.75 = 1.5 * 2**-1 — the subnormal-range snap (its
#: float32 ulp is 2**-24, Float16's subnormal spacing).
_SNAP_MIN = np.uint32(0x3F400000)
#: bit pattern of 65504.0, the largest finite Float16; any magnitude
#: whose bits exceed this (including inf/nan) needs the overflow path.
_F16_MAX_BITS = np.uint32(0x477FE000)
#: bit pattern of the largest float32 below 2**-14 (Float16's smallest
#: normal) — the subnormal-result screen of :meth:`_ShadowPrims.mul_p2s`.
_F16_SUBMIN_TOP = np.uint32(0x387FFFFF)
#: Float16 minimum normal magnitude (for flush-to-zero masks).
_F16_MIN_NORMAL = np.float32(2.0**-14)


def fused_enabled() -> bool:
    """Process-wide kill switch (``REPRO_FUSED_SW=0`` disables fusion)."""
    return os.environ.get("REPRO_FUSED_SW", "1") != "0"


# ---------------------------------------------------------------------------
# Float16 grid rounding, computed entirely in float32
# ---------------------------------------------------------------------------
class _Rounder16:
    """Rounds float32 arrays to the Float16 value grid, in place.

    The magic sum ``(x + s) - s`` with ``s = copysign(1.5 * 2**(e+13), x)``
    (``e`` the binade of ``x``) makes the float32 sum's ulp exactly
    ``2**(e-10)`` — Float16's grid — with ties-to-even inherited from
    float32.  The 1.5 mantissa keeps the sum inside ``s``'s binade for
    every ``x`` (``1.5 + m/8192 < 2`` for ``m < 2``), which is what
    defeats the classic binade-crossing failure of magic-number
    rounding; ``s`` itself is built with four integer ops on the bit
    pattern of ``x`` (mask the exponent, add 13 to it, or-in the 1.5
    bit, copy the sign), so the whole pipeline uses only fast
    same-width ufunc loops — numpy's float16 ufuncs are scalar
    software-emulation loops an order of magnitude slower.  For
    ``|x| < 2**-14`` the snap clamps to ``0.75 = 1.5 * 2**-1``, whose
    ulp is the absolute ``2**-24`` grid (Float16's subnormal spacing);
    the two regimes coincide exactly at the boundary binade.
    Magnitudes beyond 65504 overflow to signed infinity exactly as a
    float32→float16 cast does.
    """

    def __init__(self, shape: Tuple[int, ...], flag: Optional[list] = None):
        # Scratch is flat and sliced per call, so one rounder serves
        # every array up to prod(shape) elements — (ny, nx) fields and
        # the (2/3, ny, nx) batched blocks alike.
        n = int(np.prod(shape))
        self._ti = np.empty(n, np.uint32)
        self._t2 = np.empty(n, np.uint32)
        self._vn = np.empty(n, np.float32)
        self._m = np.empty(n, np.bool_)
        self._m2 = np.empty(n, np.bool_)
        #: array operand for the subnormal snap clamp (the array-array
        #: maximum loop is measurably faster than the scalar one).
        self._snapmin = np.full(n, _SNAP_MIN, np.uint32)
        #: shared one-element cell: "no infinity has entered the state
        #: yet" — inputs to every op are finite Float16 values, whose
        #: products/sums cannot overflow float32 (or reach 2**115, where
        #: the exponent trick would wrap), so the non-finite passthrough
        #: check can be skipped.  Rounders of one stepper share the cell
        #: so an overflow in any of them dirties all.
        self._flag = flag if flag is not None else [True]

    @property
    def clean(self) -> bool:
        return self._flag[0]

    @clean.setter
    def clean(self, value: bool) -> None:
        self._flag[0] = value

    def round_(self, x: np.ndarray) -> None:
        xf = x.reshape(-1)
        n = xf.size
        b = xf.view(np.uint32)
        ti, t2, vn = self._ti[:n], self._t2[:n], self._vn[:n]
        dirty = not self.clean
        m2 = None
        np.bitwise_and(b, _ABS_MASK, out=t2)  # |x| (bits and f32 view)
        if dirty:
            # inf/nan (and astronomically large mixed-mode stage values)
            # would corrupt the magic sum; pass them through so the
            # overflow clamp below maps them like a cast would.
            m, m2 = self._m[:n], self._m2[:n]
            np.isfinite(xf, out=m2)
            np.logical_not(m2, out=m2)
            np.greater(t2, np.uint32(0x5F000000), out=m)  # |x| >= 2**63
            np.logical_or(m2, m, out=m2)
        # s = 1.5 * 2**(clamped e + 13); the magic sum runs on |x| so no
        # sign copy into s is needed (nearest-even is sign-symmetric).
        np.bitwise_and(t2, _EXP_MASK, out=ti)
        np.add(ti, _SNAP_ADD, out=ti)
        np.maximum(ti, self._snapmin[:n], out=ti)
        s = ti.view(np.float32)
        np.add(t2.view(np.float32), s, out=vn)
        np.subtract(vn, s, out=vn)
        if dirty and m2.any():
            np.copyto(vn, xf, where=m2)
        vb = vn.view(np.uint32)
        # vn >= 0 except for signed passthrough values, whose bit
        # patterns compare "big" and take the (idempotent) clamp branch.
        top = vb.max()
        np.bitwise_and(b, _SIGN_MASK, out=ti)
        np.bitwise_or(vb, ti, out=b)
        if top > _F16_MAX_BITS:
            # Beyond-65504 magnitudes round to signed infinity (nan
            # passes through: its magnitude compare is already "big").
            self.clean = False
            m = np.abs(xf) > np.float32(65504.0)
            np.copyto(xf, np.copysign(np.float32(np.inf), xf), where=m)


def round16_(x: np.ndarray) -> np.ndarray:
    """Free-standing helper: round a float32 array to the Float16 grid
    in place (allocates scratch; kernels use the pooled
    :class:`_Rounder16`).  Returns ``x``."""
    r = _Rounder16(x.shape)
    r.clean = False
    r.round_(x)
    return x


# ---------------------------------------------------------------------------
# Elementary-op layers
# ---------------------------------------------------------------------------
class _DirectPrims:
    """float32/float64: plain ufuncs with ``out=``."""

    def __init__(self, dtype: np.dtype, shape: Tuple[int, ...]):
        self.dtype = dtype
        self.rounder: Optional[_Rounder16] = None

    def scalar(self, value) -> np.floating:
        return self.dtype.type(value)

    def const(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def mul(self, a, b, out) -> None:
        np.multiply(a, b, out=out)

    def add(self, a, b, out) -> None:
        np.add(a, b, out=out)

    def sub(self, a, b, out) -> None:
        np.subtract(a, b, out=out)

    def neg(self, a, out) -> None:
        np.negative(a, out=out)

    def mul_p2s(self, a, b, out) -> None:
        """Multiply where one factor is a power-of-two scalar <= 1."""
        np.multiply(a, b, out=out)

    def mul_p2g(self, a, b, out) -> None:
        """Multiply where one factor is a power-of-two scalar >= 1."""
        np.multiply(a, b, out=out)


class _ShadowPrims(_DirectPrims):
    """Float16 semantics on float32 storage: every ``+ - *`` rounds its
    result to the Float16 grid (negation is exact and skips it)."""

    def __init__(
        self,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        flag: Optional[list] = None,
    ):
        super().__init__(np.dtype(np.float32), shape)
        self.rounder = _Rounder16(shape, flag)

    def scalar(self, value) -> np.floating:
        # Round to Float16 first (as the reference dtype cast does),
        # then carry the exact value in float32.
        return np.float32(np.float16(value))

    def const(self, arr: np.ndarray) -> np.ndarray:
        return arr.astype(np.float16).astype(np.float32)

    def mul(self, a, b, out) -> None:
        np.multiply(a, b, out=out)
        self.rounder.round_(out)

    def add(self, a, b, out) -> None:
        np.add(a, b, out=out)
        self.rounder.round_(out)

    def sub(self, a, b, out) -> None:
        np.subtract(a, b, out=out)
        self.rounder.round_(out)

    def mul_p2s(self, a, b, out) -> None:
        """Shrinking power-of-two multiply: the product of an on-grid
        value and ``2**-k`` is exact unless it lands in Float16's
        subnormal range (where the grid coarsens to ``2**-24``), so a
        three-op bit screen usually replaces the full rounding pass.
        Infinities/nans pass the screen untouched — exactly what the
        rounder's passthrough would do to them."""
        np.multiply(a, b, out=out)
        r = self.rounder
        of = out.reshape(-1)
        ti, m = r._ti[: of.size], r._m[: of.size]
        np.bitwise_and(of.view(np.uint32), _ABS_MASK, out=ti)
        # Flag 0 < |product| < 2**-14: subtract 1 so exact zero wraps
        # past every threshold instead of needing its own test.
        np.subtract(ti, np.uint32(1), out=ti)
        np.less(ti, _F16_SUBMIN_TOP, out=m)
        if m.any():
            r.round_(out)

    def mul_p2g(self, a, b, out) -> None:
        """Growing power-of-two multiply (by 2 or 4): exact on the grid
        unless the product overflows Float16; one magnitude-max screen
        usually replaces the full rounding pass (inf/nan magnitudes
        compare "big" and take the full path, which handles them)."""
        np.multiply(a, b, out=out)
        r = self.rounder
        of = out.reshape(-1)
        ti = r._ti[: of.size]
        np.bitwise_and(of.view(np.uint32), _ABS_MASK, out=ti)
        if ti.max() > _F16_MAX_BITS:
            r.round_(out)


# ---------------------------------------------------------------------------
# Slice-copy shifts (np.roll without the allocation).  Written against
# the trailing two axes so the same helper serves (ny, nx) fields and
# (k, ny, nx) batched blocks (shifting each layer independently).
# ---------------------------------------------------------------------------
def _west(a, out) -> None:  # np.roll(a, -1, axis=-1)
    out[..., :-1] = a[..., 1:]
    out[..., -1] = a[..., 0]


def _east(a, out) -> None:  # np.roll(a, 1, axis=-1)
    out[..., 1:] = a[..., :-1]
    out[..., 0] = a[..., -1]


def _north(a, out) -> None:  # np.roll(a, -1, axis=-2)
    out[..., :-1, :] = a[..., 1:, :]
    out[..., -1, :] = a[..., 0, :]


def _south(a, out) -> None:  # np.roll(a, 1, axis=-2)
    out[..., 1:, :] = a[..., :-1, :]
    out[..., 0, :] = a[..., -1, :]


def _north_reflect(a, out) -> None:
    out[..., :-1, :] = a[..., 1:, :]
    out[..., -1, :] = a[..., -1, :]


def _south_zero(a, out) -> None:
    out[..., 1:, :] = a[..., :-1, :]
    out[..., 0, :] = 0


# ---------------------------------------------------------------------------
# The fused tendency kernel
# ---------------------------------------------------------------------------
class FusedTendencies:
    """Preallocated transcription of :func:`repro.shallowwaters.rhs.tendencies`.

    One instance per (shape, dtype, boundary); ``__call__`` writes the
    per-step increments into caller-owned output buffers.  The body is
    the reference expression tree flattened into explicit elementary
    ops — any reordering would break the bit-identity contract, so the
    comments track the reference line each block mirrors.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        dtype: np.dtype,
        boundary: str,
        coeffs: CastCoefficients,
    ):
        if boundary not in ("periodic", "channel"):
            raise ValueError(f"unsupported boundary {boundary!r}")
        self.boundary = boundary
        self.shadow = dtype == np.float16
        # Prims sized for the largest batched block, (3, ny, nx); the
        # flat rounder scratch serves every smaller array too.
        p = (_ShadowPrims if self.shadow else _DirectPrims)(
            np.dtype(dtype), (3,) + shape
        )
        self.p = p
        self.compute_dtype = p.dtype
        c = coeffs
        # Scalars/arrays in the compute dtype; shadow mode carries the
        # Float16-rounded values exactly in float32.
        as_s = (lambda v: np.float32(v)) if self.shadow else (lambda v: v)
        as_a = (lambda a: a.astype(np.float32)) if self.shadow else (lambda a: a)
        self.inv_s = as_s(c.inv_s)
        self.half = as_s(c.half)
        self.quarter = p.dtype.type(0.25)
        self.four = p.dtype.type(4)
        self.cg = as_s(c.cg)
        self.cz = as_s(c.cz)
        self.ch = as_s(c.ch)
        self.cr_hi = as_s(c.cr_hi)
        self.cr_lo = as_s(c.cr_lo)
        self.cb = as_s(c.cb)
        self.cf_u = as_a(c.cf_u)
        self.cf_q = as_a(c.cf_q)
        self.cw = as_a(c.cw)
        d = self.compute_dtype
        # Scratch pool (names track the choreography in __call__).  The
        # unscaled fields live in one (3, ny, nx) block (computed with a
        # single batched multiply); pair blocks batch the independent
        # u-path/v-path ops of each section into one ufunc+rounding pass.
        self.un3 = np.empty((3,) + shape, d)
        self.un_u, self.un_v, self.un_eta = self.un3
        (self.A, self.B, self.C, self.D, self.E, self.F) = (
            np.empty(shape, d) for _ in range(6)
        )
        (self.B2, self.C2, self.P2, self.V2, self.W2) = (
            np.empty((2,) + shape, d) for _ in range(5)
        )

    # -- boundary-dependent shifts ------------------------------------------
    def _north_u(self, a, out) -> None:
        """dy_u2q / biharmonic_u north ghost (reflect in a channel)."""
        (_north if self.boundary == "periodic" else _north_reflect)(a, out)

    def _north_eta(self, a, out) -> None:
        """dy_eta2v / ay_eta2v north ghost (reflect in a channel)."""
        (_north if self.boundary == "periodic" else _north_reflect)(a, out)

    def _south_v(self, a, out) -> None:
        """dy_v2eta / ay_v2eta / biharmonic_v south ghost (zero walls)."""
        (_south if self.boundary == "periodic" else _south_zero)(a, out)

    def _south_q(self, a, out) -> None:
        """a4_q2u south ghost (zero vorticity on the wall)."""
        (_south if self.boundary == "periodic" else _south_zero)(a, out)

    # -- composite helpers ---------------------------------------------------
    # The 4-point averages are needed twice per tendency evaluation
    # (once on the scaled field, once on the unscaled one), so they run
    # on a (2, ny, nx) block — same stencil, both layers in one pass.
    def _v_bar_u2(self, v2, out2, t1, t2) -> None:
        """rhs.v_bar_u (periodic) / ChannelOps.v_bar_u, batched."""
        p = self.p
        if self.boundary == "periodic":
            # quarter * (v + south(v) + west(v) + west(south(v)))
            _south(v2, t1)
            p.add(v2, t1, out2)
            _west(v2, t2)
            p.add(out2, t2, out2)
            _west(t1, t2)
            p.add(out2, t2, out2)
        else:
            # quarter * (v + west(v) + south0(v) + west(south0(v)))
            _west(v2, t2)
            p.add(v2, t2, out2)
            _south_zero(v2, t1)
            p.add(out2, t1, out2)
            _west(t1, t2)
            p.add(out2, t2, out2)
        p.mul_p2s(self.quarter, out2, out2)

    def _u_bar_v2(self, u2, out2, t1, t2) -> None:
        """rhs.u_bar_v (periodic) / ChannelOps.u_bar_v, batched."""
        p = self.p
        if self.boundary == "periodic":
            # quarter * (u + east(u) + north(u) + north(east(u)))
            _east(u2, t1)
            p.add(u2, t1, out2)
            _north(u2, t2)
            p.add(out2, t2, out2)
            _north(t1, t2)
            p.add(out2, t2, out2)
        else:
            # quarter * (u + east(u) + north_r(u) + east(north_r(u)))
            _east(u2, t2)
            p.add(u2, t2, out2)
            _north_reflect(u2, t1)
            p.add(out2, t1, out2)
            _east(t1, t2)
            p.add(out2, t2, out2)
        p.mul_p2s(self.quarter, out2, out2)

    # Mixed-ghost shifts for the (u, v) pair block: layer 0 carries u's
    # boundary treatment (reflect), layer 1 carries v's (zero walls) —
    # the interior copy is shared, so the biharmonics batch as well.
    def _north_uv(self, a2, out2) -> None:
        if self.boundary == "periodic":
            _north(a2, out2)
        else:
            out2[..., :-1, :] = a2[..., 1:, :]
            out2[0, -1, :] = a2[0, -1, :]
            out2[1, -1, :] = 0

    def _south_uv(self, a2, out2) -> None:
        if self.boundary == "periodic":
            _south(a2, out2)
        else:
            out2[..., 1:, :] = a2[..., :-1, :]
            out2[0, 0, :] = a2[0, 0, :]
            out2[1, 0, :] = 0

    def _laplace2(self, a2, out2, t2) -> None:
        """grid.laplace / ChannelOps._laplace: ((n+s)+w)+e - 4a, on the
        (u, v) pair block."""
        p = self.p
        self._north_uv(a2, t2)
        self._south_uv(a2, out2)
        p.add(t2, out2, out2)
        _west(a2, t2)
        p.add(out2, t2, out2)
        _east(a2, t2)
        p.add(out2, t2, out2)
        p.mul_p2g(self.four, a2, t2)
        p.sub(out2, t2, out2)

    def _biharmonic2(self, a2, out2, t1, t2) -> None:
        """biharmonic_u/biharmonic_v on the (u, v) pair block."""
        self._laplace2(a2, t1, t2)
        self._laplace2(t1, out2, t2)

    # ------------------------------------------------------------------
    def __call__(self, f3, o3) -> None:
        """Write the per-step increments of the scaled state block
        ``f3 = (u, v, eta)`` into the distinct block ``o3``.

        The body is the reference expression tree flattened into
        elementary ops; independent u-path/v-path computations run
        batched on pair blocks (per-value dataflow — and therefore the
        rounding of every individual value — is untouched by the
        regrouping; the comments track the reference lines)."""
        p = self.p
        u, v, eta = f3[0], f3[1], f3[2]
        du, dv = o3[0], o3[1]
        un3 = self.un3
        un_u, un_eta = self.un_u, self.un_eta
        A, B, C, D, E, F = self.A, self.B, self.C, self.D, self.E, self.F
        B2, C2, P2, V2, W2 = self.B2, self.C2, self.P2, self.V2, self.W2

        # u_un = u * inv_s  (one scaled x one unscaled factor, §III-B)
        p.mul_p2s(f3, self.inv_s, un3)

        # zeta = (west(v) - v) - (north(u) - u)                     -> A
        _west(v, P2[0])
        self._north_u(u, P2[1])
        p.sub(P2, f3[1::-1], P2)        # rows: (.. - v), (.. - u)
        p.sub(P2[0], P2[1], A)

        # ke = half*(ax_u2eta(u*u_un) + ay_v2eta(v*v_un))           -> C
        p.mul(f3[:2], un3[:2], B2)
        _east(B2[0], C2[0])
        self._south_v(B2[1], C2[1])
        p.add(B2, C2, C2)
        p.mul_p2s(self.half, C2, C2)
        p.add(C2[0], C2[1], C)
        p.mul_p2s(self.half, C, C)

        # p = cg*eta + cz*ke                                        -> D
        p.mul(self.cg, eta, D)
        p.mul(self.cz, C, B)
        p.add(D, B, D)

        # adv_u = cf_u*vbar(v) + a4_q2u(cz*zeta)*vbar(v_un)         -> du
        # adv_v = -(cf_q*ubar(u) + a4_q2v(cz*zeta)*ubar(u_un))      -> dv
        np.copyto(V2[0], v)
        np.copyto(V2[1], self.un_v)
        self._v_bar_u2(V2, W2, B2, C2)  # (vbar(v), vbar(v_un))
        p.mul(self.cf_u, W2[0], du)
        p.mul(self.cz, A, A)            # A := cz*zeta (zeta dead)
        self._south_q(A, P2[0])
        _east(A, P2[1])
        p.add(A, P2, P2)
        p.mul_p2s(self.half, P2, P2)    # P2 = (a4_q2u, a4_q2v)(cz*zeta)
        p.mul(P2[0], W2[1], E)
        p.add(du, E, du)
        np.copyto(V2[0], u)
        np.copyto(V2[1], un_u)
        self._u_bar_v2(V2, W2, B2, C2)  # (ubar(u), ubar(u_un))
        p.mul(self.cf_q, W2[0], dv)
        p.mul(P2[1], W2[1], E)
        p.add(dv, E, dv)
        p.neg(dv, dv)

        # du -= dx_eta2u(p);  dv -= dy_eta2v(p)
        _west(D, P2[0])
        self._north_eta(D, P2[1])
        p.sub(P2, D, P2)
        p.sub(o3[:2], P2, o3[:2])
        # du -= (cr_hi*u)*cr_lo;  dv -= (cr_hi*v)*cr_lo  (boosted drag)
        p.mul(self.cr_hi, f3[:2], B2)
        p.mul_p2s(B2, self.cr_lo, B2)
        p.sub(o3[:2], B2, o3[:2])
        # du += -cb*bih_u(u) + cw;  dv -= cb*bih_v(v)
        self._biharmonic2(f3[:2], W2, V2, C2)
        p.mul(self.cb, W2, W2)
        p.sub(o3[:2], W2, o3[:2])
        p.add(du, self.cw, du)
        if self.boundary == "channel":
            dv[-1, :] = 0  # enforce_walls: no flow through the wall

        # flux_x = u * ax_eta2u(eta_un); flux_y = v * ay_eta2v(..)  -> P2
        _west(un_eta, P2[0])
        self._north_eta(un_eta, P2[1])
        p.add(un_eta, P2, P2)
        p.mul_p2s(self.half, P2, P2)
        p.mul(f3[:2], P2, P2)

        # deta = -(ch*(dx_u2eta(u)+dy_v2eta(v))
        #          + cz*(dx_u2eta(flux_x)+dy_v2eta(flux_y)))
        _east(u, C2[0])
        self._south_v(v, C2[1])
        p.sub(f3[:2], C2, C2)
        p.add(C2[0], C2[1], E)
        p.mul(self.ch, E, E)
        _east(P2[0], B2[0])
        self._south_v(P2[1], B2[1])
        p.sub(P2, B2, B2)
        p.add(B2[0], B2[1], F)
        p.mul(self.cz, F, F)
        p.add(E, F, E)
        p.neg(E, o3[2])

    # ------------------------------------------------------------------
    def flush_subnormals_(self, x: np.ndarray) -> None:
        """Shadow-mode flush_to_zero: Float16 subnormals become signed
        zero (mirrors :func:`repro.ftypes.subnormals.flush_to_zero`)."""
        _flush16_(x, self.p.rounder)


def _flush16_(x: np.ndarray, r: _Rounder16) -> None:
    """Flush Float16 subnormals of a shadow array to signed zero, using
    the scratch of a rounder with at least ``x.size`` elements."""
    xf = x.reshape(-1)
    n = xf.size
    m, m2, s = r._m[:n], r._m2[:n], r._vn[:n]
    np.abs(xf, out=s)
    np.less(s, _F16_MIN_NORMAL, out=m)
    np.not_equal(xf, 0, out=m2)
    np.logical_and(m, m2, out=m)
    if m.any():
        np.copysign(np.float32(0.0), xf, where=m, out=xf)


# ---------------------------------------------------------------------------
# Fused RK4 stepping
# ---------------------------------------------------------------------------
class FusedRK4:
    """Allocation-free RK4 over :class:`FusedTendencies`, replicating
    :class:`repro.shallowwaters.integration.RK4Integrator` bit-for-bit
    (standard / compensated / mixed updates, optional subnormal flush).
    """

    def __init__(self, params: ShallowWaterParams, coeffs: CastCoefficients,
                 state_dtype: np.dtype, shape: Tuple[int, int]):
        self.params = params
        self.dtype = params.np_dtype          # working (RHS) dtype
        self.state_dtype = state_dtype
        self.mode = params.integration
        self.shape = shape
        self.kernel = FusedTendencies(
            shape, self.dtype, params.boundary, coeffs
        )
        kr = self.kernel.p.rounder
        kflag = kr._flag if kr is not None else None
        # The state-update arithmetic is identical for u, v and eta, so
        # the three fields live in one (3, ny, nx) block and every
        # stage/increment/TwoSum op (and its Float16 rounding pass) runs
        # once over the block instead of three times per field — at
        # these array sizes the rounder is dispatch-bound, so batching
        # is a ~3x cut on its cost.
        blk = (3,) + shape
        shadow_state = self.state_dtype == np.float16
        self._sp = (
            _ShadowPrims(self.state_dtype, blk, flag=kflag)
            if shadow_state
            else _DirectPrims(np.dtype(self.state_dtype), blk)
        )
        #: mixed mode narrows the float32 state to Float16 for the RHS.
        self._narrow = self.state_dtype != self.dtype
        d = self._sp.dtype
        self._S = np.empty(blk, d)
        self._carry = (
            np.zeros(blk, d) if self.mode == "compensated" else None
        )
        self._k = [np.empty(blk, d) for _ in range(4)]
        self._stage = np.empty(blk, d)
        self._rhs_in = np.empty(blk, np.float32) if self._narrow else None
        #: block-shaped rounder for the mixed-mode state narrowing
        #: (shares the kernel rounder's clean flag).
        self._nr = _Rounder16(blk, flag=kflag) if self._narrow else None
        #: whichever block-shaped rounder exists provides the scratch
        #: for block flushes (one exists in every Float16 mode).
        self._blk_rounder = (
            self._sp.rounder if self._sp.rounder is not None else self._nr
        )
        self._t1 = np.empty(blk, d)
        self._t2 = np.empty(blk, d)
        self._flush_k = (
            params.flush_subnormals and self.dtype == np.float16
        )
        self._flush_state = (
            params.flush_subnormals and self.state_dtype == np.float16
        )

    # ------------------------------------------------------------------
    def bind(self, state: State) -> None:
        np.copyto(self._S[0], state.u)  # upcasts exactly in shadow mode
        np.copyto(self._S[1], state.v)
        np.copyto(self._S[2], state.eta)
        if self._carry is not None:
            self._carry.fill(0)
        kr = self.kernel.p.rounder
        if kr is not None:
            # Shared flag: propagates to the state/narrowing rounders.
            kr.clean = bool(np.isfinite(self._S).all())

    def current_state(self) -> State:
        if self.state_dtype == np.float16:
            # Values are exactly Float16-representable; the narrowing
            # cast only changes storage.
            return State(*(self._S[i].astype(np.float16) for i in range(3)))
        return State(self._S[0], self._S[1], self._S[2])

    # ------------------------------------------------------------------
    def _eval(self, block, out) -> None:
        """One tendency evaluation (RK stage), mirroring
        ``RK4Integrator._eval``; ``block``/``out`` are (3, ny, nx)."""
        if self._narrow:
            # Mixed mode: round the float32 state to the Float16 grid
            # (the reference's ``astype(float16)``) before the RHS.
            np.copyto(self._rhs_in, block)
            self._nr.round_(self._rhs_in)
            block = self._rhs_in
        self.kernel(block, out)
        if self._flush_k:
            _flush16_(out, self._blk_rounder)
        # Mixed mode's widening astype(float32) is the identity here:
        # shadow tendencies are already Float16-valued float32.

    def step(self) -> State:
        sp = self._sp
        half = sp.scalar(0.5)
        sixth = sp.scalar(1.0 / 6.0)
        two = sp.scalar(2.0)
        S, k, stage = self._S, self._k, self._stage

        self._eval(S, k[0])
        sp.mul_p2s(half, k[0], stage)
        sp.add(S, stage, stage)
        self._eval(stage, k[1])
        sp.mul_p2s(half, k[1], stage)
        sp.add(S, stage, stage)
        self._eval(stage, k[2])
        sp.add(S, k[2], stage)
        self._eval(stage, k[3])

        # inc = sixth * (k1 + two*(k2 + k3) + k4)       -> stage
        inc = stage
        sp.add(k[1], k[2], inc)
        sp.mul_p2g(two, inc, inc)
        sp.add(k[0], inc, inc)
        sp.add(inc, k[3], inc)
        sp.mul(sixth, inc, inc)
        if self._carry is None:
            sp.add(S, inc, S)
        else:
            # CompensatedAccumulator.add: y = inc + c;
            # s, e = two_sum(v, y); v, c = s, e
            y, c, v = inc, self._carry, S
            sp.add(y, c, y)
            s1, t2 = self._t1, self._t2
            sp.add(v, y, s1)          # s = v + y
            sp.sub(s1, y, t2)         # ap = s - y
            sp.sub(v, t2, v)          # da = v - ap  (v dead after)
            sp.sub(s1, t2, t2)        # bp = s - ap
            sp.sub(y, t2, t2)         # db = y - bp
            sp.add(v, t2, c)          # e = da + db
            np.copyto(S, s1)
        if self._flush_state:
            _flush16_(S, self._blk_rounder)
        return self.current_state()


# ---------------------------------------------------------------------------
def make_fused(
    params: ShallowWaterParams,
    coeffs: CastCoefficients,
    state_dtype: np.dtype,
    state: State,
) -> Optional[FusedRK4]:
    """A fused stepper for this configuration, or ``None`` when the
    reference path must run (exotic array types, kill switch)."""
    if not fused_enabled():
        return None
    if params.boundary not in ("periodic", "channel"):
        return None
    for arr in (state.u, state.v, state.eta):
        if type(arr) is not np.ndarray:  # Sherlog & friends
            return None
    if np.dtype(params.dtype) not in (
        np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64)
    ):
        return None
    return FusedRK4(params, coeffs, np.dtype(state_dtype), state.u.shape)
