"""Characteristic function h(lambda) = lambda - theta * M_0(lambda), its root
set in a half-plane strip, Laurent data of 1/h at each root, and the regime
classification (LAN / LAQ / LAMN / PLAMN) with the matching scaling law.

Roots are located by the argument principle on subdivided rectangles and
polished by Newton iteration; the search exploits conjugate symmetry by
scanning only the upper half strip and mirroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import (
    SignedMeasure,
    exp_moment,
    exp_moments_01_many,
    has_zero_mass,
    total_variation,
)

NEG_INF = float("-inf")

# Roots closer than this are merged (multiplicities summed); imaginary parts
# below it are snapped to the real axis.
MERGE_TOL = 1e-8

# |v*| r below this counts as the critical (LAQ) boundary: a band in units
# of 1/r, so the regime does not change under the time rescaling t -> t/r.
ZERO_TOL = 1e-8


class SpectrumError(RuntimeError):
    """Root search failed (degenerate contour or diverging subdivision)."""


@dataclass(frozen=True)
class CharRoot:
    """A characteristic root with its expansion data.

    laurent holds A_k for k = -multiplicity .. 0; p_poly are the
    coefficients (ascending powers of t) of the residue polynomial of the
    fundamental solution at this root; P_poly the coefficients of the kernel
    polynomial whose degree is m_tilde (-inf for the zero polynomial).

    The kernel polynomial is the residue polynomial of e^(lam t) lam /
    (theta h(lam)), because theta M_0(lam) = lam - h(lam).  So for theta != 0,
    m_tilde = m - 1 at a root lam != 0 and m - 2 at lam = 0 (a root exactly
    when a([-r, 0]) = 0; -inf if it is simple); for theta = 0, m_tilde = 0
    unless a([-r, 0]) = 0.
    """

    lam: complex
    multiplicity: int
    laurent: tuple[complex, ...] = ()
    p_poly: tuple[complex, ...] = ()
    P_poly: tuple[complex, ...] = ()
    m_tilde: float = NEG_INF


@dataclass(frozen=True)
class ScalingLaw:
    """Regime-dependent local scaling r_{theta,T}."""

    kind: str  # "sqrt" (T^-1/2), "poly" (T^-(m*+1)), "exp" (T^-m* e^(-v* T))
    m_star: float = NEG_INF
    v_star: float = NEG_INF

    @staticmethod
    def of(regime: str, m_star: float, v_star: float) -> "ScalingLaw":
        """sqrt for LAN, poly for LAQ (m* = 0 for -inf), exp for the rest."""
        if regime == "LAN":
            return ScalingLaw("sqrt")
        if regime == "LAQ":
            return ScalingLaw("poly", m_star=m_star if m_star != NEG_INF else 0.0)
        return ScalingLaw("exp", m_star=m_star, v_star=v_star)

    def value(self, T: float) -> float:
        if self.kind == "sqrt":
            return T**-0.5
        if self.kind == "poly":
            return T ** -(self.m_star + 1.0)
        return T**-self.m_star * math.exp(-self.v_star * T)

    def describe(self) -> str:
        if self.kind == "sqrt":
            return "T^-1/2"
        if self.kind == "poly":
            return f"T^-{self.m_star + 1:g}"
        return f"T^-{self.m_star:g}*exp({-self.v_star:.12g}*T)"


@dataclass
class RegimeReport:
    v0: float
    v_star: float
    m_star: float
    H: list[float]
    D: float | None
    regime: str  # LAN | LAQ | LAMN | PLAMN | UNCLASSIFIED
    scaling: ScalingLaw
    contributing_roots: list[CharRoot]
    roots: list[CharRoot] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def period(self) -> float | None:
        return 2.0 * math.pi / self.D if self.D else None

    def to_dict(self) -> dict:
        return {
            "v0": None if self.v0 == NEG_INF else self.v0,
            "v_star": None if self.v_star == NEG_INF else self.v_star,
            "m_star": None if self.m_star == NEG_INF else int(self.m_star),
            "H": list(self.H),
            "D": self.D,
            "period": self.period,
            "regime": self.regime,
            "scaling": self.scaling.describe(),
            "roots": [
                {
                    "re": z.lam.real,
                    "im": z.lam.imag,
                    "m": z.multiplicity,
                    "m_tilde": None if z.m_tilde == NEG_INF else int(z.m_tilde),
                }
                for z in self.roots
            ],
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# characteristic function and derivatives


def char_value(theta: float, a: SignedMeasure, lam: complex) -> complex:
    """h(lambda) = lambda - theta * integral e^(lambda u) a(du)."""
    if theta == 0.0:
        return complex(lam)
    return complex(lam) - theta * exp_moment(a, lam, 0)


def char_derivative(theta: float, a: SignedMeasure, lam: complex, k: int) -> complex:
    """k-th derivative of h at lambda (k >= 1)."""
    if not 1 <= k <= 24:
        raise SpectrumError(f"derivative order {k} unsupported")
    if k == 1:
        return 1.0 - theta * exp_moment(a, lam, 1) if theta else 1.0 + 0.0j
    return -theta * exp_moment(a, lam, k) if theta else 0.0 + 0.0j


# ---------------------------------------------------------------------------
# argument-principle zero counting


class _DegenerateContour(Exception):
    pass


_MAX_CONTOUR_POINTS = 200_000
# the most moment values one evaluation of the initial contour may hold: a
# point costs one for the atoms and degree + 2 kernel moments per density
# piece (measures._density_moments)
_MAX_CONTOUR_VALUES = 10 * _MAX_CONTOUR_POINTS


def _winding_count(theta: float, a: SignedMeasure, rect: tuple[float, float, float, float]) -> int:
    """Number of zeros (with multiplicity) inside the rectangle, via the
    total argument change of h along the positively oriented boundary.

    Initial sample spacing resolves the fastest phase rotation of the
    exponential kernel (rate <= r along the imaginary direction).  A segment
    is bisected while its phase jump exceeds pi/2 or while it is longer than
    a fraction of the local root-distance estimate |h|/|h'| (otherwise the
    phase whirl of a root hugging the contour can alias away).  The final
    integer must also survive one global midpoint doubling."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]

    def h_and_dist(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if theta == 0.0:
            hv = pts.copy()
            return hv, np.abs(pts)
        m0, m1 = exp_moments_01_many(a, pts)
        hv = pts - theta * m0
        return hv, np.abs(hv) / np.maximum(np.abs(1.0 - theta * m1), 1e-300)

    spacing = min(0.5, 1.0 / (1.0 + a.r))
    sides = list(zip(corners, corners[1:] + corners[:1]))
    if not all(math.isfinite(abs(z1 - z0) / spacing) for z0, z1 in sides):
        raise SpectrumError(f"root search contour {rect} for theta={theta} is too long to sample")
    counts = [max(8, int(math.ceil(abs(z1 - z0) / spacing))) for z0, z1 in sides]
    values = sum(counts) * (1 + sum(len(p.coeffs) + 1 for p in a.density_pieces))
    if values > _MAX_CONTOUR_VALUES:
        raise SpectrumError(
            f"initial contour of {sum(counts):.3g} points needs {values:.3g} moment values, "
            f"more than {_MAX_CONTOUR_VALUES:.3g}"
        )
    z = np.concatenate([z0 + (z1 - z0) * (np.arange(n) / n) for (z0, z1), n in zip(sides, counts)])
    h, dist = h_and_dist(z)

    def refine_until_smooth(z, h, dist):
        for _ in range(80):
            # dist = |h|/|h'| estimates the distance to the nearest root
            # (scaled by 1/multiplicity); the spec's degeneracy criterion is
            # the contour passing within 1e-6 of a root
            if np.any(dist < 1e-6) or np.any(np.abs(h) < 1e-13 * (1.0 + np.abs(z))):
                raise _DegenerateContour
            z_next, h_next, d_next = np.roll(z, -1), np.roll(h, -1), np.roll(dist, -1)
            seg_len = np.abs(z_next - z)
            bad = np.abs(np.angle(h_next / h)) > 0.5 * math.pi
            bad |= (seg_len > 0.7 * np.minimum(dist, d_next)) & (
                seg_len > 1e-7 * (1.0 + np.abs(z))
            )
            if not np.any(bad):
                return z, h, dist
            if z.size > _MAX_CONTOUR_POINTS:
                raise _DegenerateContour
            idx = np.nonzero(bad)[0]
            mids = 0.5 * (z[idx] + z_next[idx])
            hm, dm = h_and_dist(mids)
            z = np.insert(z, idx + 1, mids)
            h = np.insert(h, idx + 1, hm)
            dist = np.insert(dist, idx + 1, dm)
        raise _DegenerateContour

    prev = None
    for _ in range(6):
        z, h, dist = refine_until_smooth(z, h, dist)
        total = float(np.sum(np.angle(np.roll(h, -1) / h))) / (2.0 * math.pi)
        n = round(total)
        if abs(total - n) > 0.25:
            raise _DegenerateContour
        if prev == n:
            return int(n)
        prev = n
        if z.size * 2 > _MAX_CONTOUR_POINTS:
            return int(n)
        mids = 0.5 * (z + np.roll(z, -1))
        hm, dm = h_and_dist(mids)
        znew = np.empty(z.size * 2, dtype=complex)
        hnew = np.empty(z.size * 2, dtype=complex)
        dnew = np.empty(z.size * 2)
        znew[0::2], znew[1::2] = z, mids
        hnew[0::2], hnew[1::2] = h, hm
        dnew[0::2], dnew[1::2] = dist, dm
        z, h, dist = znew, hnew, dnew
    raise _DegenerateContour


def count_zeros(
    theta: float,
    a: SignedMeasure,
    re_lo: float,
    re_hi: float,
    im_lo: float,
    im_hi: float,
    _rng: np.random.Generator | None = None,
) -> tuple[int, tuple[float, float, float, float]]:
    """Argument-principle zero count over a rectangle.  Returns the count and
    the rectangle actually used (edges are jittered by up to 1e-4 when the
    contour runs into a root)."""
    rng = _rng if _rng is not None else np.random.default_rng(0)
    rect = (re_lo, re_hi, im_lo, im_hi)
    for attempt in range(4):
        try:
            return _winding_count(theta, a, rect), rect
        except _DegenerateContour:
            if attempt == 3:
                break
            eps = rng.uniform(-1e-4, 1e-4, size=4)
            rect = (re_lo + eps[0], re_hi + eps[1], im_lo + eps[2], im_hi + eps[3])
    raise SpectrumError("contour degenerate")


# ---------------------------------------------------------------------------
# root search


def _newton_polish(
    theta: float, a: SignedMeasure, z0: complex, m: int, diag: float
) -> complex | None:
    """Newton on h (m = 1) or on h^(m-1) (m > 1), started at the centre z0 of
    a box with diagonal diag; None if not converged or as soon as an iterate
    lies farther than diag from z0 (h is never evaluated out there, where
    the exponential moments can overflow)."""
    z = complex(z0)
    for _ in range(80):
        if m == 1:
            g = char_value(theta, a, z)
        else:
            g = char_derivative(theta, a, z, m - 1)
        gp = char_derivative(theta, a, z, m)
        if gp == 0:
            return None
        step = g / gp
        z = z - step
        if not abs(z - z0) <= diag:  # also catches inf and NaN
            return None
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            return z
    return z if abs(step) <= 1e-12 * (1.0 + abs(z)) else None


def _root_residual_ok(theta: float, a: SignedMeasure, z: complex) -> bool:
    return abs(char_value(theta, a, z)) <= 1e-9 * (1.0 + abs(z))


def roots_in_strip(theta: float, a: SignedMeasure, c: float) -> list[CharRoot]:
    """All characteristic roots with Re(lambda) >= c, with multiplicities.

    For theta = 0 the root set is {0}.  Otherwise the roots in the strip are
    confined to |lambda| <= |theta| ||a|| e^(|c| r) and are found by
    subdividing rectangles on argument-principle counts, Newton polish,
    merging of sub-1e-8 clusters, and conjugate mirroring of the upper
    half-strip scan.  A non-finite theta or c is refused, and so is a bound
    too large to sample (`_winding_count`).
    """
    if not (math.isfinite(theta) and math.isfinite(c)):
        raise SpectrumError(f"root search needs a finite theta and strip, got theta={theta}, c={c}")
    if theta == 0.0:
        return [CharRoot(0.0 + 0.0j, 1)] if c <= 0.0 else []
    tv = total_variation(a)
    bound = abs(theta) * tv * math.exp(min(abs(c) * a.r, 700.0)) + abs(c) + 1.0
    v_max = abs(theta) * tv + 1.0
    if c > v_max:
        return []
    rng = np.random.default_rng(12345)
    margin = 3e-4 * (1.0 + abs(c))
    axis_pad = 0.0171
    rect0 = (c - margin, v_max + 0.0133, -axis_pad, bound + 0.0119)

    found: list[tuple[complex, int]] = []
    budget = [0]

    def cluster_count(z: complex, n: int) -> int:
        """Zero count in a small box around the polished root z."""
        pad = 1e-4 * (1.0 + abs(z))
        for _ in range(3):
            try:
                return _winding_count(theta, a, (z.real - pad, z.real + pad, z.imag - pad, z.imag + pad))
            except _DegenerateContour:
                pad *= 2.7
        return -1

    def process(rect, n):
        budget[0] += 1
        if budget[0] > 1_000_000:
            raise SpectrumError("search diverged")
        if n == 0:
            return
        if n < 0:
            raise SpectrumError("search diverged")
        re_lo, re_hi, im_lo, im_hi = rect
        w, h = re_hi - re_lo, im_hi - im_lo
        diag = math.hypot(w, h)
        if diag <= 1.5:
            z0 = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            z = _newton_polish(theta, a, z0, n, diag)
            if (
                z is not None
                and re_lo - 1e-7 <= z.real <= re_hi + 1e-7
                and im_lo - 1e-7 <= z.imag <= im_hi + 1e-7
                and _root_residual_ok(theta, a, z)
                and cluster_count(z, n) == n
            ):
                found.append((z, n))
                return
        if diag < 1e-7:
            found.append((complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi)), n))
            return
        # bisect the longer side; re-draw the cut position if the contour
        # lands on a root (keeps the two halves exactly complementary)
        for attempt in range(8):
            frac = 0.5 if attempt == 0 else float(rng.uniform(0.35, 0.65))
            if w >= h:
                cut = re_lo + frac * w
                first = (re_lo, cut, im_lo, im_hi)
                second = (cut, re_hi, im_lo, im_hi)
            else:
                cut = im_lo + frac * h
                first = (re_lo, re_hi, im_lo, cut)
                second = (re_lo, re_hi, cut, im_hi)
            try:
                n1 = _winding_count(theta, a, first)
            except _DegenerateContour:
                continue
            process(first, n1)
            process(second, n - n1)
            return
        raise SpectrumError("contour degenerate")

    n0, rect0 = count_zeros(theta, a, *rect0, _rng=rng)
    process(rect0, n0)

    # snap near-real roots, merge tight clusters, mirror the upper half scan
    snapped = [(complex(z.real, 0.0) if abs(z.imag) <= MERGE_TOL else z, m) for z, m in found]
    merged: list[tuple[complex, int]] = []
    for z, m in snapped:
        for i, (zi, mi) in enumerate(merged):
            if abs(z - zi) <= MERGE_TOL:
                merged[i] = ((zi * mi + z * m) / (mi + m), mi + m)
                break
        else:
            merged.append((z, m))
    mirrored = list(merged)
    for z, m in merged:
        if z.imag > axis_pad and all(abs(z.conjugate() - zi) > 1e-7 for zi, _ in mirrored):
            mirrored.append((z.conjugate(), m))
    cutoff = c - 1e-9 * (1.0 + abs(c))
    result = [CharRoot(z, m) for z, m in mirrored if z.real >= cutoff]
    result.sort(key=lambda rt: (-rt.lam.real, abs(rt.lam.imag), -rt.lam.imag))
    return result


# ---------------------------------------------------------------------------
# Laurent coefficients and root data


def laurent_coeffs(
    theta: float, a: SignedMeasure, lam: complex, m: int, K: int = 0
) -> list[complex]:
    """Coefficients A_{-m} .. A_K of the Laurent series of 1/h at the root."""
    lam = complex(lam)
    if abs(char_value(theta, a, lam)) > 1e-8 * (1.0 + abs(lam)):
        raise SpectrumError(f"{lam} is not a root (residual too large)")
    n_coeff = K + m + 1  # b_0 .. b_{K+m}
    # Taylor coefficients h_j = h^(j)(lam)/j! for j = m .. m + n_coeff - 1
    hj = [
        char_derivative(theta, a, lam, j) / math.factorial(j) for j in range(m, m + n_coeff)
    ]
    if abs(hj[0]) < 1e-10:
        raise SpectrumError("multiplicity inconsistent")
    # series inversion of h(z)/(z-lam)^m
    b = [1.0 / hj[0]]
    for i in range(1, n_coeff):
        acc = 0.0 + 0.0j
        for j in range(1, i + 1):
            acc += hj[j] * b[i - j]
        b.append(-acc / hj[0])
    return b


def _at_zero(a: SignedMeasure, lam: complex) -> bool:
    """lam is the root at 0 that a vanishing a([-r, 0]) puts there."""
    return abs(lam) <= MERGE_TOL and has_zero_mass(a)


def _kernel_degree(theta: float, a: SignedMeasure, root: CharRoot) -> float:
    """m_tilde from the multiplicity (see CharRoot)."""
    if theta == 0.0:
        return NEG_INF if has_zero_mass(a) else 0.0
    deg = root.multiplicity - (2 if _at_zero(a, root.lam) else 1)
    return float(deg) if deg >= 0 else NEG_INF


def build_root_data(theta: float, a: SignedMeasure, root: CharRoot) -> CharRoot:
    """Fill Laurent coefficients, the residue polynomial, the kernel
    polynomial and its degree for a located root: P_l = (lam A_{-1-l} +
    A_{-2-l}) / (theta l!) with A_k = 0 below k = -m and lam exactly 0 at the
    zero root (see CharRoot); P = (a([-r, 0]),) for theta = 0."""
    lam, m = complex(root.lam), root.multiplicity
    A = laurent_coeffs(theta, a, lam, m)  # A_{-m} .. A_0
    p_poly = tuple(A[m - 1 - ell] / math.factorial(ell) for ell in range(m))
    if theta == 0.0:
        P = (0j if has_zero_mass(a) else exp_moment(a, 0.0, 0),)
    else:
        z = 0.0 if _at_zero(a, lam) else lam
        B = [0j, *A]  # A_{-m-1} .. A_0
        P = tuple((z * B[m - ell] + B[m - 1 - ell]) / (theta * math.factorial(ell)) for ell in range(m))
    degree = max((float(ell) for ell, c in enumerate(P) if c != 0.0), default=NEG_INF)
    return CharRoot(lam=lam, multiplicity=m, laurent=tuple(A), p_poly=p_poly, P_poly=P, m_tilde=degree)


# ---------------------------------------------------------------------------
# common divisor of the contributing frequencies


def real_gcd(H, tol: float = 1e-8) -> float | None:
    """Largest d such that every h in H is within tol*max(H) of an integer
    multiple of d, by the Euclidean algorithm on reals; None when the
    multiples would exceed 1e6 (treated as incommensurable)."""
    H = [float(h) for h in H]
    if not H or any(h <= 0 for h in H):
        raise ValueError("real_gcd needs a nonempty list of positive reals")
    if not 0.0 < tol <= 1e-4:
        raise ValueError("tol must lie in (0, 1e-4]")
    thresh = tol * max(H)
    g = H[0]
    for h in H[1:]:
        x, y = max(g, h), min(g, h)
        while y > thresh:
            x, y = y, math.fmod(x, y)
        g = x
    for h in H:
        k = round(h / g)
        if k > 1_000_000 or abs(h - k * g) > thresh:
            return None
    return g


# ---------------------------------------------------------------------------
# regime classification


def classify(
    theta: float,
    a: SignedMeasure,
    regime_hint: str | None = None,
) -> RegimeReport:
    """Locate the deciding roots, compute (v0, v*, m*, H, D), and tag the
    asymptotic regime with its scaling law.

    Cut lines c = 0, -1/r, -2/r, ... descend to the floor -10/r, so the work
    is invariant under the time rescaling t -> t/r.  Only a simple zero root
    has a zero kernel polynomial (see CharRoot), so the descent passes a cut
    only when the strip above it holds no other root, and theta = 0 (root
    set {0} at every cut) stops at the first.  The report lists the roots
    above the last cut with their m_tilde; only contributing_roots carry
    Laurent data.  With no nonzero kernel polynomial down to the floor,
    v* = -inf with a warning.  The regime is LAQ for |v*| r <= ZERO_TOL, LAN
    below that band and LAMN or PLAMN above it.
    """
    notes: list[str] = []
    c_floor = -10.0 / a.r
    for k in range(11):
        roots = [replace(rt, m_tilde=_kernel_degree(theta, a, rt)) for rt in roots_in_strip(theta, a, -k / a.r)]
        if theta == 0.0 or any(rt.m_tilde >= 0 for rt in roots):
            break
    v0 = max((rt.lam.real for rt in roots), default=NEG_INF)

    qual = [rt for rt in roots if rt.m_tilde >= 0]
    if qual:
        v_star = max(rt.lam.real for rt in qual)
        at_vstar = [rt for rt in qual if abs(rt.lam.real - v_star) <= ZERO_TOL * (1 + abs(v_star))]
        m_star = max(rt.m_tilde for rt in at_vstar)
        contributing = [build_root_data(theta, a, rt) for rt in at_vstar if rt.m_tilde == m_star]
    else:
        v_star, m_star, contributing = NEG_INF, NEG_INF, []
        if not roots:
            notes.append(
                f"no characteristic roots found above the cut floor {c_floor:g}; "
                "v0 and v* reported as -inf"
            )
        elif theta != 0.0:
            notes.append(
                f"no root with a nonzero kernel polynomial above the cut floor {c_floor:g}; "
                "v* reported as -inf"
            )

    H = sorted(rt.lam.imag for rt in contributing if rt.lam.imag > ZERO_TOL)
    D = None
    if v_star == NEG_INF or v_star * a.r < -ZERO_TOL:
        regime = "LAN"
    elif abs(v_star) * a.r <= ZERO_TOL:
        regime = "LAQ"
    elif not H:
        regime = "LAMN"
    else:
        # tolerance scaled so every frequency sits within 1e-8 (absolute)
        # of an integer multiple of the reported divisor
        D = real_gcd(H, tol=min(1e-8, 1e-8 / max(H)))
        if D is not None:
            regime = "PLAMN"
        else:
            regime = "UNCLASSIFIED"
            notes.append("contributing frequencies have no common divisor")

    report = RegimeReport(
        v0=v0,
        v_star=v_star,
        m_star=m_star,
        H=H,
        D=D,
        regime=regime,
        scaling=ScalingLaw.of(regime, m_star, v_star),
        contributing_roots=contributing,
        roots=roots,
        warnings=notes,
    )
    return _apply_hint(report, regime_hint, notes)


def _apply_hint(report: RegimeReport, hint: str | None, notes: list[str]) -> RegimeReport:
    if hint is None:
        return report
    hint = hint.upper()
    if hint not in ("LAN", "LAQ", "LAMN", "PLAMN"):
        raise ValueError(f"unknown regime hint {hint!r}")
    if hint != report.regime:
        notes.append(f"regime {report.regime} overridden to {hint} by hint")
        report.regime = hint
        report.scaling = ScalingLaw.of(hint, report.m_star, report.v_star)
        if hint in ("LAMN", "PLAMN") and not report.v_star > 0.0:
            trend = "grows with T" if report.v_star < 0.0 else "is 1 for every T"
            notes.append(
                f"v* = {report.v_star:.12g} <= 0: the rate exp(-v* T) of the forced scaling "
                f"{report.scaling.describe()} {trend}"
            )
    return report
