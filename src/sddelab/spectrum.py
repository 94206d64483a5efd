"""Characteristic function h(lambda) = lambda - theta * M_0(lambda), its root
set in a half-plane strip, Laurent data of 1/h at each root, and the regime
classification (LAN / LAQ / LAMN / PLAMN) with the matching scaling law.

Roots are located by the argument principle on subdivided rectangles of one
root region and polished by Newton iteration on the unit delay, time in
units of r; a root is listed only once Newton certifies it.  It scans only
the upper half strip and mirrors it: a real root has imaginary part exactly
0 and a pair is an exact conjugate mirror, so whether a root is real is
decided here alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import (
    MAX_MOMENT_ORDER,
    SignedMeasure,
    exp_moment,
    exp_moment_bound,
    exp_moments_01_many,
    has_zero_mass,
)
from .measures import DensityPiece, _poly_abs_defint

NEG_INF = float("-inf")

# Imaginary parts below this are snapped to the real axis, and a root this
# close to 0 is the zero root of a measure with a([-r, 0]) = 0.
MERGE_TOL = 1e-8

# |v*| r below this counts as the critical (LAQ) boundary: a band in units
# of 1/r, so the regime does not change under the time rescaling t -> t/r.
ZERO_TOL = 1e-8

REGIME_HINTS = ("LAN", "LAQ", "LAMN", "PLAMN")  # what a hint may force, in any case


class SpectrumError(RuntimeError):
    """Root search failed (degenerate or over-long contour, diverging subdivision)."""


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
    return char_derivative(theta, a, lam, 0)


def char_derivative(theta: float, a: SignedMeasure, lam: complex, k: int) -> complex:
    """k-th derivative of h at lambda, h itself for k = 0."""
    if not 0 <= k <= MAX_MOMENT_ORDER:
        raise SpectrumError(f"derivative order {k} unsupported")
    if k >= 2:
        return -theta * exp_moment(a, lam, k) if theta else 0.0 + 0.0j
    lead = complex(lam) if k == 0 else 1.0 + 0.0j
    return lead - theta * exp_moment(a, lam, k) if theta else lead


# ---------------------------------------------------------------------------
# argument-principle zero counting


class _DegenerateContour(Exception):
    pass


_MAX_CONTOUR_POINTS = 200_000
# the most moment values one evaluation of the initial contour may hold: a
# point costs one for the atoms and degree + 2 kernel moments per density
# piece (measures.exp_moments)
_MAX_CONTOUR_VALUES = 10 * _MAX_CONTOUR_POINTS


def _winding_count(
    theta: float, a: SignedMeasure, rect: tuple[float, float, float, float]
) -> tuple[int, complex]:
    """Number n of zeros (with multiplicity) inside the rectangle, via the
    total argument change of h along the positively oriented boundary, and
    their sum s = (1/2 pi i) * contour integral of z h'/h dz (Delves & Lyness
    1967), so s / n is the zeros' centroid.

    On the unit delay the initial sample spacing 0.5 resolves the fastest
    phase rotation of the exponential kernel (rate <= 1 along Im).  A segment
    is bisected while its phase jump exceeds pi/2 or while it is longer than
    a fraction of the local root-distance estimate |h|/|h'| (otherwise the
    phase whirl of a root hugging the contour can alias away).  The final
    integer must also survive one global midpoint doubling.  s comes from
    the values n was counted on: the trapezoid rule in log h on that final
    contour, the sum of (z_i + z_(i+1))/2 * log(h_(i+1)/h_i), plus its
    Euler-Maclaurin end correction (z_(i+1) - z_i)^2/12 * (g_(i+1) - g_i)
    with g = h'/h, which makes it fourth order; all over 2 pi i."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]

    def h_and_slope(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m0, m1 = exp_moments_01_many(a, pts)
        return pts - theta * m0, 1.0 - theta * m1

    sides = list(zip(corners, corners[1:] + corners[:1]))
    lengths = [abs(z1 - z0) / 0.5 for z0, z1 in sides]
    width = 1 + sum(len(p.coeffs) + 1 for p in a.density_pieces)
    if not math.isfinite(sum(lengths) * width):  # the budget formats it as a float
        raise SpectrumError(f"root search contour {rect} for theta={theta} is too long to sample")
    counts = [max(8, math.ceil(x)) for x in lengths]
    values = sum(counts) * width
    if values > _MAX_CONTOUR_VALUES:
        raise SpectrumError(
            f"initial contour of {sum(counts):.3g} points needs {values:.3g} moment values, "
            f"more than {_MAX_CONTOUR_VALUES:.3g}"
        )
    z = np.concatenate([z0 + (z1 - z0) * (np.arange(n) / n) for (z0, z1), n in zip(sides, counts)])
    h, hp = h_and_slope(z)

    def refine_until_smooth(z, h, hp):
        """The refined contour and the step of log h along each segment."""
        for _ in range(80):
            # dist = |h|/|h'| estimates the distance to the nearest root
            # (scaled by 1/multiplicity); the spec's degeneracy criterion is
            # the contour passing within 1e-6 of a root
            dist = np.abs(h) / np.maximum(np.abs(hp), 1e-300)
            if np.any(dist < 1e-6) or np.any(np.abs(h) < 1e-13 * (1.0 + np.abs(z))):
                raise _DegenerateContour
            z_next, h_next, d_next = _next(z), _next(h), _next(dist)
            seg_len = np.abs(z_next - z)
            dlog = np.log(h_next / h)  # its imaginary part is the phase step
            bad = np.abs(dlog.imag) > 0.5 * math.pi
            bad |= (seg_len > 0.7 * np.minimum(dist, d_next)) & (
                seg_len > 1e-7 * (1.0 + np.abs(z))
            )
            if not np.any(bad):
                return z, h, hp, dlog
            if z.size > _MAX_CONTOUR_POINTS:
                raise SpectrumError(
                    f"root search contour {rect} for theta={theta} needs more than {_MAX_CONTOUR_POINTS} points"
                )
            idx = np.nonzero(bad)[0]
            mids = 0.5 * (z[idx] + z_next[idx])
            hm, hpm = h_and_slope(mids)
            z, h, hp = _insert_after(idx, (z, mids), (h, hm), (hp, hpm))
        raise _DegenerateContour

    prev = None
    for _ in range(6):
        z, h, hp, dlog = refine_until_smooth(z, h, hp)
        total = float(np.sum(dlog.imag)) / (2.0 * math.pi)
        n = round(total)
        if abs(total - n) > 0.25:
            raise _DegenerateContour
        z_next = _next(z)
        if prev == n or z.size * 2 > _MAX_CONTOUR_POINTS:
            g = hp / h
            terms = 0.5 * (z + z_next) * dlog + (z_next - z) ** 2 / 12.0 * (_next(g) - g)
            return int(n), complex(np.sum(terms) / (2j * math.pi))
        prev = n
        mids = 0.5 * (z + z_next)
        hm, hpm = h_and_slope(mids)
        z, h, hp = (np.column_stack(pair).ravel() for pair in ((z, mids), (h, hm), (hp, hpm)))
    raise _DegenerateContour


def _next(x: np.ndarray) -> np.ndarray:
    """The following point of each point of a closed contour."""
    out = np.empty_like(x)
    out[:-1] = x[1:]
    out[-1] = x[0]
    return out


def _insert_after(idx: np.ndarray, *pairs: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """np.insert(x, idx + 1, new) for each (x, new) of pairs, with idx sorted
    and unique: new[k] lands right after x[idx[k]] (at the end for the last
    index).  All arrays take their slots from one position vector."""
    n = pairs[0][0].size
    new_pos = idx + np.arange(1, idx.size + 1)
    old = np.ones(n + idx.size, dtype=bool)
    old[new_pos] = False
    out = []
    for x, new in pairs:
        grown = np.empty(n + idx.size, dtype=x.dtype)
        grown[old] = x
        grown[new_pos] = new
        out.append(grown)
    return out


def count_zeros(
    theta: float, a: SignedMeasure, re_lo: float, re_hi: float, im_lo: float, im_hi: float
) -> tuple[int, tuple[float, float, float, float]]:
    """Argument-principle zero count over a rectangle, on the unit delay.
    Returns the count and the rectangle actually used (edges are jittered by
    up to 1e-4 / r when the contour runs into a root)."""
    unit = tuple(x * a.r for x in (re_lo, re_hi, im_lo, im_hi))
    (n, _), rect = _jittered_count(theta * a.r, _unit_delay(a), unit, np.random.default_rng(0))
    return n, tuple(x / a.r for x in rect)


def _jittered_count(theta, a, rect, rng) -> tuple[tuple[int, complex], tuple]:
    """(count, root sum) of `_winding_count` and the rectangle they hold for,
    its edges jittered from rng as `count_zeros` says."""
    edges = np.array(rect)
    for _ in range(4):
        try:
            return _winding_count(theta, a, rect), rect
        except _DegenerateContour:
            rect = tuple((edges + rng.uniform(-1e-4, 1e-4, size=4)).tolist())
    raise SpectrumError("contour degenerate")


# ---------------------------------------------------------------------------
# root search


def _newton_polish(
    theta: float, a: SignedMeasure, z0: complex, m: int, radius: float
) -> complex | None:
    """Newton on h^(m-1) (h itself for m = 1) from z0; None if not converged
    or as soon as an iterate lies farther than radius from z0 (h is never
    evaluated out there, where the exponential moments can overflow).  It
    returns once a step falls below 1e-15 (1 + |z|), or below 1e-12 (1 + |z|)
    without shrinking: the iterates then dither at the rounding floor of h,
    and more steps would not move them closer."""
    z = complex(z0)
    prev = math.inf
    for _ in range(80):
        g = char_derivative(theta, a, z, m - 1)
        gp = char_derivative(theta, a, z, m)
        if gp == 0:
            return None
        step = g / gp
        z = z - step
        if not abs(z - z0) <= radius:  # also catches inf and NaN
            return None
        size = abs(step)
        if size <= 1e-15 * (1.0 + abs(z)) or prev <= size <= 1e-12 * (1.0 + abs(z)):
            return z
        prev = size
    return z if size <= 1e-12 * (1.0 + abs(z)) else None


def _root_residual_ok(theta: float, a: SignedMeasure, z: complex) -> bool:
    return abs(char_value(theta, a, z)) <= 1e-9 * (1.0 + abs(z))


def _unit_delay(a: SignedMeasure) -> SignedMeasure:
    """a_1(B) = a(r B) on [-1, 0]: atoms at u / r, pieces on [lo / r, hi / r]
    with coefficients c_k r^(k + 1), ends clamped into [-1, 0]."""
    r = a.r
    atoms = tuple((min(max(u / r, -1.0), 0.0), w) for u, w in a.atoms)
    pieces = tuple(
        DensityPiece(max(p.lo / r, -1.0), min(p.hi / r, 0.0), tuple(x * r**k for k, x in enumerate(p.coeffs, 1)))
        for p in a.density_pieces
    )
    return SignedMeasure(1.0, atoms, pieces)


def roots_in_strip(theta: float, a: SignedMeasure, c: float) -> list[CharRoot]:
    """All characteristic roots with Re(lambda) >= c, with multiplicities.

    The time change t -> t / r makes them the roots of theta r on the unit
    delay (`_unit_delay`) with Re >= c r, divided by r.  The search runs
    there, in one length scale (at r = 1 the map is the identity bit for bit),
    so theta, a and c below are the unit delay's.  For theta = 0 the root set
    is {0}.  Otherwise h = 0 puts every root of the strip in the disc around
    theta a({0}) of radius |theta| * integral over [-1, 0) of e^(gamma |u|)
    |a|(du), gamma = max(0, -c), and in |lambda| <= rho, the positive root of
    rho^2 = alpha rho + beta, where |theta M_0| <= alpha + beta / |lambda| on
    the strip (`measures.exp_moment_bound`: alpha from the atoms, beta from
    the densities, whose moments fall as 1/|lambda|).  No contour is counted
    when this root region lies left of the cut; otherwise the first box is
    its upper-half bounding box, padded by about 1.  Boxes are bisected on
    argument-principle counts, each carrying its count n and root sum s (the
    second half's pair by subtraction).  Newton starts at the centroid s / n,
    moved into the box, when n = 1 or h passes the residual test there (an
    n-fold root, which s places to rounding); it stays within the box's
    diagonal and must end in the box, and only an n-fold root is recounted.
    Then imaginary parts below MERGE_TOL snap to 0 and the upper half-strip
    scan is mirrored: real roots are exactly real and pairs exact mirrors,
    which `classify` and the limit-law samplers rely on.  A non-finite theta
    or c is refused, and so is a contour too long to sample."""
    if not (math.isfinite(theta) and math.isfinite(c)):
        raise SpectrumError(f"root search needs a finite theta and strip, got theta={theta}, c={c}")
    r, theta, a, c = a.r, theta * a.r, _unit_delay(a), c * a.r  # from here on, the unit delay
    if theta == 0.0:
        return [CharRoot(0.0 + 0.0j, 1)] if c <= 0.0 else []
    gamma = max(0.0, -c)
    alpha, beta = (abs(theta) * x for x in exp_moment_bound(a, gamma))
    rho = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0 * beta))
    centre = theta * sum(w for u, w in a.atoms if u == 0.0)
    # |centre| + the disc's radius: alpha, plus each piece's |p| grown by e^(gamma |lo|)
    reach = alpha + abs(theta) * sum(
        math.exp(min(-gamma * p.lo, 700.0)) * _poly_abs_defint(p.coeffs, p.lo, p.hi) for p in a.density_pieces
    )
    radius = reach - abs(centre)
    right = min(centre + radius, rho)  # the root region's right edge
    cutoff = c - 1e-9 * (1.0 + abs(c))
    if right < cutoff:
        return []
    rng = np.random.default_rng(12345)
    margin = 3e-4 * (1.0 + abs(c))
    rect0 = (c - margin, right + 1.0133, -0.0171, min(radius, rho) + 1.0119)

    found: list[tuple[complex, int]] = []
    budget = [0]

    def cluster_count(z: complex) -> int:
        """Zero count in a small box around the polished root z."""
        pad = 1e-4 * (1.0 + abs(z))
        for _ in range(3):
            try:
                return _winding_count(theta, a, (z.real - pad, z.real + pad, z.imag - pad, z.imag + pad))[0]
            except _DegenerateContour:
                pad *= 2.7
        return -1

    def process(rect, n, root_sum):
        budget[0] += 1
        if n == 0:
            return
        re_lo, re_hi, im_lo, im_hi = rect
        w, h = re_hi - re_lo, im_hi - im_lo
        diag = math.hypot(w, h)
        # no contour within 1e-6 of a root is counted: a tiny box holding one is a fault
        if n < 0 or budget[0] > 1_000_000 or diag < 1e-7:
            raise SpectrumError("search diverged")
        mean = root_sum / n
        z0 = complex(min(max(mean.real, re_lo), re_hi), min(max(mean.imag, im_lo), im_hi))
        if n == 1 or _root_residual_ok(theta, a, z0):
            z = _newton_polish(theta, a, z0, n, diag)
            if (
                z is not None
                and re_lo <= z.real <= re_hi
                and im_lo <= z.imag <= im_hi
                and _root_residual_ok(theta, a, z)
                and (n == 1 or cluster_count(z) == n)
            ):
                found.append((z, n))
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
                n1, s1 = _winding_count(theta, a, first)
            except _DegenerateContour:
                continue
            process(first, n1, s1)
            process(second, n - n1, root_sum - s1)
            return
        raise SpectrumError("contour degenerate")

    (n0, s0), rect0 = _jittered_count(theta, a, rect0, rng)
    process(rect0, n0, s0)

    # snap near-real roots, mirror the upper half scan
    snapped = [(complex(z.real, 0.0) if abs(z.imag) <= MERGE_TOL else z, m) for z, m in found]
    upper = [(z, m) for z, m in snapped if z.imag >= 0.0]
    mirrored = upper + [(z.conjugate(), m) for z, m in upper if z.imag > 0.0]
    mirrored.sort(key=lambda zm: (-zm[0].real, abs(zm[0].imag), -zm[0].imag))
    return [CharRoot(complex(z.real / r, z.imag / r), m) for z, m in mirrored if z.real >= cutoff]


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


def _kernel_degree(a: SignedMeasure, root: CharRoot) -> float:
    """m_tilde from the multiplicity (see CharRoot), at theta = 0 too."""
    deg = root.multiplicity - (2 if _at_zero(a, root.lam) else 1)
    return float(deg) if deg >= 0 else NEG_INF


def build_root_data(theta: float, a: SignedMeasure, root: CharRoot) -> CharRoot:
    """Fill Laurent coefficients, the residue polynomial and the kernel
    polynomial for a located root: P_l = (lam A_{-1-l} + A_{-2-l}) /
    (theta l!) with A_k = 0 below k = -m and lam exactly 0 at the zero root
    (see CharRoot); P = (a([-r, 0]),) for theta = 0.  Its degree m_tilde is
    the multiplicity rule `_kernel_degree`, the index of P's last nonzero
    coefficient."""
    lam, m = complex(root.lam), root.multiplicity
    A = laurent_coeffs(theta, a, lam, m)  # A_{-m} .. A_0
    p_poly = tuple(A[m - 1 - ell] / math.factorial(ell) for ell in range(m))
    if theta == 0.0:
        P = (0j if has_zero_mass(a) else exp_moment(a, 0.0, 0),)
    else:
        z = 0.0 if _at_zero(a, lam) else lam
        B = [0j, *A]  # A_{-m-1} .. A_0
        P = tuple((z * B[m - ell] + B[m - 1 - ell]) / (theta * math.factorial(ell)) for ell in range(m))
    return CharRoot(lam, m, tuple(A), p_poly, P, _kernel_degree(a, root))


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


def in_lan_band(v_star: float, r: float) -> bool:
    """The LAN band of `classify`: v* r < -ZERO_TOL, v* = -inf included."""
    return v_star == NEG_INF or v_star * r < -ZERO_TOL


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
        roots = [replace(rt, m_tilde=_kernel_degree(a, rt)) for rt in roots_in_strip(theta, a, -k / a.r)]
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

    H = sorted(rt.lam.imag for rt in contributing if rt.lam.imag > 0.0)
    D = None
    if in_lan_band(v_star, a.r):
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
    if hint not in REGIME_HINTS:
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
