"""Finite signed measures on [-r, 0]: atoms + piecewise-polynomial density.
A density given by samples on a uniform grid is fitted to polynomial pieces
when the measure is built, so every measure has the same representation.

All integral functionals the rest of the package consumes live here:
total variation, tail masses a([-t, 0]) and the exponential moments
M_j(lambda) = integral of u^j e^(lambda u) a(du).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

# Minimum grid size accepted for sampled densities.
MIN_SAMPLED_GRID = 33

# Sampled densities: Chebyshev fit degree per piece (global-u monomials turn
# ill-conditioned near degree 30) and the fit residual, relative to
# max|values|, above which a piece is bisected.
FIT_DEGREE = 20
FIT_RTOL = 1e-12

# Highest moment order M_j (and so derivative order of h) that is supported.
MAX_MOMENT_ORDER = 24


class MeasureError(ValueError):
    """Invalid measure descriptor or out-of-domain argument."""


@contextlib.contextmanager
def json_document(d, what: str, error: type[Exception]):
    """Reads the JSON document `what` in the with block: a document that is no
    object, a missing field or a value of the wrong type is `error`."""
    if not isinstance(d, dict):
        raise error(f"{what} must be a JSON object, got {type(d).__name__}")
    try:
        yield
    except KeyError as exc:
        raise error(f"{what} needs field {exc}") from exc
    except TypeError as exc:
        raise error(f"{what} has a value of the wrong type: {exc}") from exc


@dataclass(frozen=True)
class DensityPiece:
    lo: float
    hi: float
    coeffs: tuple[float, ...]  # c0 + c1*u + c2*u^2 + ... on [lo, hi]


@dataclass(frozen=True)
class SignedMeasure:
    """Finite signed measure on [-r, 0].

    atoms: ((location, weight), ...) with locations in [-r, 0], weights != 0.
    density_pieces: piecewise-polynomial absolutely-continuous part, pairwise
        disjoint interiors.
    """

    r: float
    atoms: tuple[tuple[float, float], ...] = ()
    density_pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise MeasureError(f"delay horizon r must be positive, got {self.r}")
        for u, w in self.atoms:
            if not (-self.r - 1e-12 <= u <= 1e-12):
                raise MeasureError(f"atom location {u} outside [-r, 0]")
            if w == 0.0:
                raise MeasureError("atom weights must be nonzero")
            if not math.isfinite(w):
                raise MeasureError(f"atom at u = {u} has a non-finite weight {w}")
        pieces = sorted(self.density_pieces, key=lambda p: p.lo)
        for p in pieces:
            if not (p.lo < p.hi):
                raise MeasureError(f"degenerate density piece [{p.lo}, {p.hi}]")
            if not (-self.r - 1e-12 <= p.lo and p.hi <= 1e-12):
                raise MeasureError(f"density piece [{p.lo}, {p.hi}] outside [-r, 0]")
            if not (p.coeffs and all(math.isfinite(c) for c in p.coeffs)):
                raise MeasureError(f"density piece [{p.lo}, {p.hi}] needs finite coefficients, got {list(p.coeffs)}")
        for left, right in zip(pieces, pieces[1:]):
            if right.lo < left.hi - 1e-12:
                raise MeasureError("density pieces must have disjoint interiors")
        if not self.atoms and total_variation(self) == 0.0:
            raise MeasureError("measure must not be identically zero")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point_masses(r: float, *atoms: tuple[float, float]) -> "SignedMeasure":
        return SignedMeasure(r=r, atoms=tuple(atoms))

    @staticmethod
    def polynomial_density(r: float, pieces) -> "SignedMeasure":
        return SignedMeasure(
            r=r, density_pieces=tuple(DensityPiece(lo, hi, tuple(c)) for lo, hi, c in pieces)
        )

    @staticmethod
    def sampled_density(r: float, values) -> "SignedMeasure":
        """Density sampled on a uniform grid over [-r, 0] (see _fit_samples)."""
        return SignedMeasure(r=r, density_pieces=_fit_samples(r, values))

    # -- JSON descriptor ---------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "SignedMeasure":
        with json_document(d, "measure descriptor", MeasureError):
            r = float(d["r"])
            atoms = tuple((float(a["u"]), float(a["w"])) for a in d.get("atoms", []))
            pieces = tuple(
                DensityPiece(float(p["lo"]), float(p["hi"]), tuple(float(c) for c in p["coeffs"]))
                for p in d.get("density", [])
            )
            sampled = d.get("sampled")
            if sampled:
                if pieces:
                    raise MeasureError("at most one of 'density' / 'sampled'")
                vals = sampled["expr_values"]
                if "n" in sampled and int(sampled["n"]) != len(vals):
                    raise MeasureError("sampled.n disagrees with len(expr_values)")
                pieces = _fit_samples(r, vals)
            return SignedMeasure(r, atoms, pieces)

    def to_dict(self) -> dict:
        d: dict = {"r": self.r}
        if self.atoms:
            d["atoms"] = [{"u": u, "w": w} for u, w in self.atoms]
        if self.density_pieces:
            d["density"] = [
                {"lo": p.lo, "hi": p.hi, "coeffs": list(p.coeffs)} for p in self.density_pieces
            ]
        return d


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients are ascending powers of u)


def _poly_defint(coeffs, lo, hi):
    """Integral of p over [lo, hi]; coefficient rows of shape (deg + 1, n)
    integrate elementwise against lo and hi of shape (n,)."""
    anti = P.polyint(coeffs)
    return P.polyval(hi, anti, tensor=False) - P.polyval(lo, anti, tensor=False)


def _poly_abs_defint(coeffs, lo, hi):
    """Integral of |p(u)| over [lo, hi]: split at the real roots inside."""
    arr = np.asarray(coeffs, dtype=float)
    if not np.any(arr):
        return 0.0
    pts = [lo, hi]
    if arr.size > 1:
        roots = np.roots(arr[::-1])
        for z in roots:
            if abs(z.imag) < 1e-12 and lo < z.real < hi:
                pts.append(float(z.real))
    pts = sorted(set(pts))
    return sum(abs(_poly_defint(coeffs, a, b)) for a, b in zip(pts, pts[1:]))


# ---------------------------------------------------------------------------
# sampled densities


def _fit_samples(r: float, values) -> tuple[DensityPiece, ...]:
    """Polynomial pieces through density values sampled on a uniform grid
    over [-r, 0].

    Each piece is a Chebyshev least-squares fit of degree <= FIT_DEGREE to its
    samples, converted to global-u coefficients.  Trailing Chebyshev
    coefficients below 1% of the tolerance FIT_RTOL * max|values| are
    dropped first: they are rounding noise, which the conversion would
    amplify.  A piece is bisected at its middle sample while the converted
    coefficients miss one of its samples by more than the tolerance; a piece
    of 3 samples is interpolated exactly, so the bisection always ends."""
    vals = np.asarray(values, dtype=float)
    if not r > 0:
        raise MeasureError(f"delay horizon r must be positive, got {r}")
    if vals.size < MIN_SAMPLED_GRID or not np.all(np.isfinite(vals)):
        raise MeasureError(f"sampled density needs >= {MIN_SAMPLED_GRID} finite values")
    grid = np.linspace(-r, 0.0, vals.size)
    tol = FIT_RTOL * float(np.max(np.abs(vals)))
    pieces = []
    todo = [(0, vals.size - 1)]  # sample index ranges, leftmost on top
    while todo:
        i, k = todo.pop()
        u, v = grid[i : k + 1], vals[i : k + 1]
        cheb = np.polynomial.Chebyshev.fit(u, v, min(FIT_DEGREE, k - i)).trim(0.01 * tol)
        coeffs = cheb.convert(kind=np.polynomial.Polynomial).coef
        if k - i <= 2 or np.max(np.abs(P.polyval(u, coeffs) - v)) <= tol:
            pieces.append(DensityPiece(float(u[0]), float(u[-1]), tuple(coeffs.tolist())))
        else:
            mid = (i + k) // 2
            todo += [(mid, k), (i, mid)]
    return tuple(pieces)


# ---------------------------------------------------------------------------
# exponential-moment kernels: I_k = integral over [lo, hi] of u^k e^(lam u) du
#
# Each takes an array of lambda values and returns I_0..I_kmax as rows.  The
# parts recursion B_k = k I_{k-1} + lam I_k (B_k the boundary term) is only
# used upward where it is relative-error stable, i.e. when the per-step
# factor k / (|lam| max|u|) stays <= 1/2.  Every smaller |lam|, lam = 0
# included, uses Gauss-Legendre quadrature (no 1/lam anywhere) of one order
# per call, the one its largest |lam| needs, rounded up to a multiple of 16
# (at most 400 nodes), from `_leggauss_cached`, the package's one source of
# Gauss-Legendre rules.  `exp_moments` is their one consumer: a piece with
# coefficients c gives M_j as c . (I_j, ..., I_{j+deg}).


def _ik_upward(lam, kmax: int, lo: float, hi: float) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    elam_hi, elam_lo = np.exp(lam * hi), np.exp(lam * lo)
    out = np.empty((kmax + 1, lam.size), dtype=complex)
    out[0] = (elam_hi - elam_lo) / lam
    for k in range(1, kmax + 1):
        bk = hi**k * elam_hi - lo**k * elam_lo
        out[k] = (bk - k * out[k - 1]) / lam
    return out


def _leggauss_cached(n: int, _cache={}) -> tuple[np.ndarray, np.ndarray]:
    if n not in _cache:
        _cache[n] = np.polynomial.legendre.leggauss(n)
    return _cache[n]


def _ik_gauss(lam, kmax: int, lo: float, hi: float) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # one rule for the call: the order its largest |lam| needs, rounded up
    # to a multiple of 16 so that calls share rules; more nodes only add
    # accuracy for these entire integrands
    need = kmax + 20 + math.ceil(1.6 * float(np.max(np.abs(lam))) * half)
    t, w = _leggauss_cached(min(-(-need // 16) * 16, 400))
    x = mid + half * t
    weighted = np.exp(np.multiply.outer(lam, x)) * (w * half)
    return np.vander(x, kmax + 1, increasing=True).T @ weighted.T


def _exp_kernel_moments(lam, kmax: int, lo: float, hi: float) -> np.ndarray:
    """I_0..I_kmax over [lo, hi] at every lambda, shape (kmax + 1,) + lam.shape;
    each element goes through its numerically safe branch."""
    lam = np.asarray(lam, dtype=complex)
    flat = lam.ravel()
    upward = np.abs(flat) * max(abs(lo), abs(hi)) >= 2.0 * (kmax + 1)
    out = np.empty((kmax + 1, flat.size), dtype=complex)
    for mask, branch in ((upward, _ik_upward), (~upward, _ik_gauss)):
        if mask.any():
            out[:, mask] = branch(flat[mask], kmax, lo, hi)
    return out.reshape((kmax + 1,) + lam.shape)


# ---------------------------------------------------------------------------
# public operations


def total_variation(a: SignedMeasure) -> float:
    """Total variation |a|([-r, 0])."""
    tv = sum(abs(w) for _, w in a.atoms)
    for p in a.density_pieces:
        tv += _poly_abs_defint(p.coeffs, p.lo, p.hi)
    return float(tv)


def tail_mass(a: SignedMeasure, t: float) -> float:
    """a([-t, 0]) with both endpoints closed."""
    if not (-1e-12 <= t <= a.r + 1e-12):
        raise MeasureError(f"tail_mass needs t in [0, r], got {t}")
    t = min(max(t, 0.0), a.r)
    total = sum(w for u, w in a.atoms if u >= -t)
    for p in a.density_pieces:
        lo = max(p.lo, -t)
        if lo < p.hi:
            total += _poly_defint(p.coeffs, lo, p.hi)
    return float(total)


def has_zero_mass(a: SignedMeasure) -> bool:
    """a([-r, 0]) = 0 to rounding, relative to |a| so that rescaling a does not
    change the answer: then lambda = 0 is a root for every theta."""
    return abs(tail_mass(a, a.r)) <= 1e-12 * total_variation(a)


def exp_moment_bound(a: SignedMeasure, gamma: float) -> tuple[float, float]:
    """(A, B) with |M_0(lambda)| <= A + B / |lambda| wherever Re(lambda) >=
    -gamma, gamma >= 0.  There |e^(lambda u)| <= e^(gamma |u|) on [-r, 0]; A
    bounds the atoms, and one integration by parts bounds a density piece by
    its boundary values and the total variation of p (Bellman & Cooke 1963,
    ch. 12).  A term past the float range is inf."""

    def grown(x: float, u: float) -> float:  # |x| e^(gamma |u|), 0 for x = 0
        if x == 0.0:
            return 0.0
        t = math.log(abs(x)) + gamma * abs(u)
        return math.exp(t) if t < 709.0 else math.inf

    A = sum(grown(w, u) for u, w in a.atoms)
    B = 0.0
    for p in a.density_pieces:
        at = P.polyval([p.lo, p.hi], p.coeffs)
        B += grown(at[0], p.lo) + grown(at[1], p.hi)
        B += grown(_poly_abs_defint(P.polyder(p.coeffs), p.lo, p.hi), p.lo)
    return float(A), float(B)


def exp_moments(a: SignedMeasure, lams, orders: tuple[int, ...]) -> list:
    """M_j(lambda) = integral of u^j e^(lambda u) a(du) for each j in orders,
    at a number (scalar arithmetic) or at every element of an array.  The
    atoms share one exponential per atom, the density pieces one kernel
    evaluation per piece, and the density sum is added to the atom sum last."""
    if not 0 <= min(orders) <= max(orders) <= MAX_MOMENT_ORDER:
        raise MeasureError(f"moment orders {orders} out of supported range")
    out = [0j] * len(orders)
    for u, w in a.atoms:
        e = np.exp(lams * u)
        for row, j in enumerate(orders):
            out[row] += w * u**j * e
    if a.density_pieces:
        dens = np.zeros((len(orders),) + np.shape(lams), dtype=complex)
        for p in a.density_pieces:
            c = np.asarray(p.coeffs)
            iks = _exp_kernel_moments(lams, max(orders) + c.size - 1, p.lo, p.hi)
            for row, j in enumerate(orders):
                dens[row] += np.tensordot(c, iks[j : j + c.size], axes=1)
        out = [m + d for m, d in zip(out, dens)]
    return out


def exp_moment(a: SignedMeasure, lam: complex, j: int = 0) -> complex:
    """M_j(lambda) at one lambda."""
    return complex(exp_moments(a, complex(lam), (j,))[0])


def exp_moments_01_many(a: SignedMeasure, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M_0, M_1) over an array of lambda values (hot path of the contour
    winding counts)."""
    return tuple(exp_moments(a, np.asarray(lams, dtype=complex), (0, 1)))
