"""Direct samplers for the limiting (score, information) laws of the three
regimes, used as reference distributions in Monte Carlo tests.  Each draw
is a finite Gaussian vector and fixed quadratic forms in it.

LAN: (sqrt(J) Z, J) with deterministic J.  LAQ: quadratic functionals of
independent standard (complex) Wiener processes Z on [0,1], one per distinct
contributing frequency, each the Brownian-bridge expansion
Z(s) = xi_0 s + sum_{k<=K} xi_k sqrt(2) sin(k pi s)/(k pi), which has
Z(1) = xi_0 exactly.  The matrices of its quadratic forms are integrals of
exponential polynomials on [0,1], computed in closed form on each call as a
diagonal plus a low-rank part (and, for the imaginary part of a complex Z,
the dense antisymmetric part of the Ito matrix).  A block of draws is
reduced by row sums whose bits depend neither on the block's size nor on the
BLAS thread count.  LAMN/PLAMN: one mixed-normal
law, whose random information is a quadratic form in the limit variables
U_j = X0(0) + theta * (initial-path mixing integral) + G_j, where the
G_j = int_0^inf e^(-lam_j s) dW are jointly Gaussian with
E[G_j G_k] = 1/(lam_j + lam_k) and E[G_j conj(G_k)] = 1/(lam_j + conj(lam_k)).
LAMN is its case of one real contributing root, with no frequency and no
phase.  `spectrum.roots_in_strip` returns real roots with Im exactly 0 and
pairs as exact conjugates, so the samplers compare Im exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import DelayStencil, Grid
from .measures import SignedMeasure
from .simulate import InitialPath
from .spectrum import RegimeReport


class LimitLawError(RuntimeError):
    pass


def _contributing(report: RegimeReport):
    if not report.contributing_roots:
        raise LimitLawError(f"regime {report.regime} has no contributing roots")
    m_star = int(report.m_star)
    return m_star, [(complex(rt.lam), rt.P_poly[m_star]) for rt in report.contributing_roots]


# ---------------------------------------------------------------------------
# LAN


def sample_lan_many(J: float, n: int, rng: np.random.Generator):
    if J <= 0:
        raise LimitLawError("LAN limit needs J > 0")
    z = rng.standard_normal(n)
    return np.sqrt(J) * z, np.full(n, float(J))


# ---------------------------------------------------------------------------
# LAQ

# terms of the Brownian-bridge expansion of each LAQ Wiener process
LAQ_TERMS = 256
# draws whose bridge coefficients are held at once
LAQ_ROWS = 256


# (-i)^q for q mod 4, exactly
_MINUS_I_POW = (1.0, -1j, -1.0, 1j)


def _bridge_parts(m: int, K: int):
    """k = 1, .., K, alpha_k, f_k and the coefficient matrices P, C, D of
    the closed forms of `_bridge_forms` and `_bridge_anti`."""
    k = np.arange(1, K + 1, dtype=float)
    nu = np.pi * k
    alpha = math.factorial(m) / nu ** (m + 1) * _MINUS_I_POW[(m + 1) % 4]
    sign = np.where(k % 2, -1.0, 1.0)  # e^(i nu)
    mu = np.empty((K, m + 2), dtype=complex)
    mu[:, 0] = (sign - 1.0) / (1j * nu)
    for p in range(1, m + 2):
        mu[:, p] = (sign - p * mu[:, p - 1]) / (1j * nu)
    r2 = math.sqrt(2.0)
    # rows: psi_0, .., psi_K; columns: s^0, .., s^(m+1)
    P = np.zeros((K + 1, m + 2))
    P[0, m + 1] = -1.0 / (m + 1)
    for j in range(m + 1):
        q = m + 1 - j  # alpha_k (i nu)^j / j! = m!/j! (-i)^q / nu^q
        P[1:, j] = r2 * math.factorial(m) / math.factorial(j) * _MINUS_I_POW[q % 4].real / nu**q
    C = np.zeros((K + 1, m + 2))
    C[1:] = r2 * (alpha[:, None] * mu).real
    D = np.empty((K + 1, m + 2))
    D[0] = 1.0 / np.arange(1, m + 3)
    D[1:] = r2 * mu.real
    f = (4.0 / np.pi) * (1j * alpha).real * k
    return k, alpha, f, P, C, D


def _bridge_forms(m: int, K: int):
    """(G, N_sym) for the K-term bridge expansion, where
    G = int_0^1 psi psi^T and N = int_0^1 psi e'^T, psi_k(s) =
    int_0^s (s-u)^m e_k'(u) du, e_0(s) = s and e_k(s) = sqrt(2) sin(k pi s)/(k pi).
    G and the symmetric part N_sym of N come as diagonal plus low rank,
    (d, [U; V]) for diag(d) + U^T V + V^T U with U and V of shape (r, K+1),
    r <= 2m + 3; `_bridge_anti` gives the antisymmetric part.

    In closed form: psi_0 = s^(m+1)/(m+1) and, with nu = k pi and
    alpha_k = m!/(i nu)^(m+1), psi_k = T_k - poly_k with
    T_k = sqrt(2) Re(alpha_k e^(i nu s)) and poly_k its Taylor part of degree
    <= m.  Writing psi = T - P (1, s, .., s^(m+1)), every entry is a sum of
    mu_p(n pi) = int_0^1 s^p e^(i n pi s) ds, with
    mu_p = (e^(i nu) - p mu_(p-1))/(i nu) and mu_0(n pi) = 1 at n = 0, 0 at
    even n and 2i/(n pi) at odd n.  So G = XX + Q P^T + P Q^T with
    Q = P H/2 - C, and N = XY - P D^T, where C = int T s^p, D = int e' s^p,
    H is the Hilbert matrix, XX = int T T^T = diag(|alpha_k|^2) (alpha_k is
    real for every k or imaginary for every k, and the trigonometric cross
    terms fall on odd n) and XY = int T e'^T.  XY is diag(Re alpha_k), its
    column 0 C[:, 0] and, where j + k is odd, f_j/(j^2 - k^2) with
    f_k = (4/pi) Re(i alpha_k) k: f = 0 for odd m and f_k = f_1 k^(-m) for
    even m, so the symmetric part (f_j - f_k)/(2(j^2 - k^2)) is 0 for m = 0
    and has rank m for even m >= 2."""
    k, alpha, f, P, C, D = _bridge_parts(m, K)
    H = 1.0 / (np.arange(m + 2)[:, None] + np.arange(m + 2) + 1.0)

    # low-rank factors as C-order rows [U; V] of shape (2r, K+1)
    G = (np.concatenate(([0.0], np.abs(alpha) ** 2)), np.ascontiguousarray(np.hstack((P @ H / 2.0 - C, P)).T))

    # N_sym - diag(Re alpha): the column-0 term, -P D^T and, for even m,
    # (f_j - f_k)/(2(x_j - x_k)) = -(f_1/2) sum_{i<m/2} x_j^(i-m/2) x_k^(-1-i)
    # on the odd j + k, x = k^2, split as (even j, odd k) + (odd j, even k)
    e0 = np.eye(1, K + 1)
    us, vs = [C[:, :1].T / 2.0, -P.T / 2.0], [e0, D.T]
    if m % 2 == 0:
        x = k * k
        odd = np.concatenate(([0.0], k % 2))
        even = np.concatenate(([0.0], 1.0 - k % 2))
        for i in range(m // 2):
            xu = np.concatenate(([0.0], -f[0] / 4.0 * x ** (i - m // 2)))
            xv = np.concatenate(([0.0], x ** (-1.0 - i)))
            us.append(np.vstack((xu * even, xu * odd)))
            vs.append(np.vstack((xv * odd, xv * even)))
    return G, (np.concatenate(([0.0], alpha.real)), np.ascontiguousarray(np.vstack(us + vs)))


def _bridge_anti(m: int, K: int) -> np.ndarray:
    """N_anti = (N - N^T)/2 of `_bridge_forms`, dense: the antisymmetric
    part of the column-0 term and of -P D^T as one product of rank 2m + 6,
    plus (f_j + f_k)/(2(x_j - x_k)) on the odd j + k, which is w - w^T for
    w_jk = f_j/(2(x_j - x_k)) (0 for odd m).  Only a complex Z reads it."""
    k, _, f, P, C, D = _bridge_parts(m, K)
    e0 = np.eye(K + 1, 1)
    N_anti = np.hstack((C[:, :1], e0, P, D)) / 2.0 @ np.hstack((e0, -C[:, :1], -D, P)).T
    if m % 2 == 0:
        w = (k * k)[:, None] - k * k
        w[::2, ::2] = w[1::2, 1::2] = np.inf  # same parity
        np.divide(f[:, None] / 2.0, w, out=w)
        N_anti[1:, 1:] += w
        N_anti[1:, 1:] -= w.T
    return N_anti


def _quadratic(g: np.ndarray, gg: np.ndarray, form) -> np.ndarray:
    """xi^T F xi for each row xi of g (gg = g*g), with F = diag(d) + U^T V +
    V^T U given as form = (d, [U; V]).  Every sum runs by einsum within a
    row, in an order that depends neither on the number of rows nor on BLAS
    (a matrix-vector or skinny matrix product's does)."""
    d, UV = form
    guv = np.einsum("...j,rj->...r", g, UV)
    r = UV.shape[0] // 2
    return np.einsum("...j,j->...", gg, d) + 2.0 * np.einsum("...r,...r->...", guv[..., :r], guv[..., r:])


def _trace(form) -> float:
    d, UV = form
    r = UV.shape[0] // 2
    return float(np.sum(d) + 2.0 * np.einsum("rj,rj->", UV[:r], UV[r:]))


def _bridge_pair(g: np.ndarray, m: int, forms, anti=None) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^1 Z_m dconj(Z) as an Ito integral, int_0^1 |Z_m|^2 ds) for rows
    of bridge coefficients xi, from their real normals: g of shape (n, K+1)
    is xi of a real Z, and g = (g0, g1) of shape (2, n, K+1) gives
    xi = (g0 + i g1)/sqrt(2) of a complex Z.  forms = _bridge_forms(m, K).
    A real g sees only G and N_sym, so it needs no product of size K+1;
    xi N conj(xi) = (g0 N_sym g0 + g1 N_sym g1)/2 + i g1 N_anti g0 adds one
    real product g1 @ N_anti for a complex Z, with anti = _bridge_anti(m, K).
    Subtracting tr N centres the delta (the expansion's own integral is
    Stratonovich), and 1/((2m+1)(2m+2)) - tr G is the mean of the
    information's truncated tail."""
    G, N_sym = forms
    gg = g * g
    quad = _quadratic(g, gg, N_sym)
    energy = _quadratic(g, gg, G)
    if g.ndim == 3:
        cross = np.einsum("ij,ij->i", g[1] @ anti, g[0])
        quad = (quad[0] + quad[1]) / 2.0 + 1j * cross
        energy = (energy[0] + energy[1]) / 2.0
    return quad - _trace(N_sym), energy + 1.0 / ((2 * m + 1) * (2 * m + 2)) - _trace(G)


def _row_blocks(n: int):
    """[lo, hi) blocks of LAQ_ROWS draws.  A lone trailing row joins the
    block before it: a one-row einsum sums in another order than a row of a
    matrix, and any other block shape keeps the bits of one (n, K+1) draw."""
    cuts = list(range(0, n, LAQ_ROWS)) + [n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return zip(cuts, cuts[1:])


def sample_laq_many(
    theta: float,
    a: SignedMeasure,
    report: RegimeReport,
    n: int,
    rng: np.random.Generator,
):
    """(delta, info) draws of the critical-regime limit law.  The bridge
    coefficients are drawn and reduced LAQ_ROWS draws at a time, so memory
    does not grow with n."""
    if report.regime != "LAQ":
        raise LimitLawError(f"sample_laq_many needs an LAQ report, got {report.regime}")
    m_star, roots = _contributing(report)
    phis = sorted({abs(lam.imag) for lam, _ in roots})
    forms = _bridge_forms(m_star, LAQ_TERMS)
    anti = _bridge_anti(m_star, LAQ_TERMS) if phis[-1] > 0.0 else None
    delta = np.zeros(n, dtype=complex)
    info = np.zeros(n)
    for phi in phis:
        ito = np.empty(n, dtype=complex if phi else float)
        energy = np.empty(n)
        for lo, hi in _row_blocks(n):
            shape = (2, hi - lo, LAQ_TERMS + 1) if phi else (hi - lo, LAQ_TERMS + 1)
            ito[lo:hi], energy[lo:hi] = _bridge_pair(rng.standard_normal(shape), m_star, forms, anti)
        for lam, c in roots:
            if abs(lam.imag) != phi:
                continue
            # a lower conjugate root sees the conjugate process
            delta += c * (np.conj(ito) if lam.imag < 0.0 else ito)
            info += abs(c) ** 2 * energy
    resid = float(np.max(np.abs(delta.imag), initial=0.0))
    if resid > 1e-8 * (1.0 + float(np.max(np.abs(delta.real), initial=0.0))):
        raise LimitLawError(
            f"LAQ delta has imaginary residual {resid:g}; conjugate pairing broken"
        )
    return delta.real, info


# ---------------------------------------------------------------------------
# initial-path mixing term of U


def _initial_mix(theta: float, a: SignedMeasure, x0: InitialPath, lam: complex) -> complex:
    """theta * integral over a(du) of integral_u^0 e^(-lam (s-u)) X0(s) ds.
    The inner integral is e^(lam u) (G(0) - G(u)) with the cumulative
    trapezoid G(u) = int_-r^u e^(-lam s) X0(s) ds on 4096 panels; the outer
    one is `DelayStencil` on that grid, exact against each density piece."""
    if theta == 0.0 or not any(x0.values):
        return 0.0 + 0.0j
    s = np.linspace(-a.r, 0.0, 4097)
    integrand = np.exp(-lam * s) * x0.eval(s, a.r)
    G = np.concatenate([[0.0 + 0.0j], np.cumsum(np.diff(s) * (integrand[1:] + integrand[:-1]) / 2.0)])
    return theta * DelayStencil(a, Grid(a.r, 4096, 1)).apply(np.exp(lam * s) * (G[-1] - G), 4096)


# ---------------------------------------------------------------------------
# LAMN and PLAMN: one mixed-normal law


def sample_lamn_many(
    theta: float, a: SignedMeasure, report: RegimeReport, x0: InitialPath, n: int, rng: np.random.Generator
):
    """(delta, info) draws of the LAMN law: the mixed-normal law of one real
    contributing root, where J = c^2 U^2/(2 v*)."""
    if report.regime != "LAMN":
        raise LimitLawError(f"sample_lamn_many needs an LAMN report, got {report.regime}")
    lam, c = _contributing(report)[1][0]
    if lam.imag != 0.0 or abs(c.imag) > 1e-8 * (1.0 + abs(c)):
        raise LimitLawError("LAMN requires a single real contributing root")
    return _mixed_normal(theta, a, report, x0, 0.0, n, rng)


def sample_plamn_many(
    theta: float, a: SignedMeasure, report: RegimeReport, x0: InitialPath, d: float, n: int, rng: np.random.Generator
):
    """(delta, info) draws of the periodic mixed-normal law at phase d; an
    LAMN report draws the one-real-root case."""
    if report.regime not in ("PLAMN", "LAMN"):
        raise LimitLawError(f"sample_plamn_many needs a PLAMN report, got {report.regime}")
    return _mixed_normal(theta, a, report, x0, d, n, rng)


def _mixed_normal(
    theta: float, a: SignedMeasure, report: RegimeReport, x0: InitialPath, d: float, n: int, rng: np.random.Generator
):
    """(delta, info) draws of the mixed-normal law at phase d.  A real root
    enters amp(t) = sum_j Re(b_j e^(-i phi_j t)) with weight 1, a conjugate
    pair as twice its upper root, and J = int_0^inf e^(-2 v* t) amp(t)^2 dt
    is a quadratic form in the b_j."""
    if not math.isfinite(d):
        raise LimitLawError(f"the {report.regime} phase d must be finite, got {d}")
    _, roots = _contributing(report)
    v = report.v_star
    if not v > 0.0:
        raise LimitLawError(f"{report.regime} needs v* > 0, got v* = {v:.17g}")
    kept = [(lam, c, 1.0) for lam, c in roots if lam.imag == 0.0]
    kept += [(lam, c, 2.0) for lam, c in roots if lam.imag > 0.0]
    lam = np.array([k[0] for k in kept])
    phi = lam.imag
    p = lam.size

    # (Re G, Im G) from E[G_j G_k] and E[G_j conj(G_k)]; singular for real roots
    S = 1.0 / (lam[:, None] + lam[None, :])
    H = 1.0 / (lam[:, None] + np.conj(lam)[None, :])
    cov = 0.5 * np.block([[(H + S).real, (S - H).imag], [(S + H).imag, (H - S).real]])
    ev, V = np.linalg.eigh(cov)
    X = rng.standard_normal((n, 2 * p)) @ (V * np.sqrt(np.clip(ev, 0.0, None))).T
    u_det = float(x0.eval(np.array(0.0), a.r)) + np.array([_initial_mix(theta, a, x0, lj) for lj in lam])
    U = u_det + X[:, :p] + 1j * X[:, p:]
    b = U * np.array([w * c for _, c, w in kept]) * np.exp(1j * phi * d)

    A = 1.0 / (2.0 * v + 1j * (phi[:, None] + phi[None, :]))
    B = 1.0 / (2.0 * v + 1j * (phi[:, None] - phi[None, :]))
    J = 0.5 * np.sum((b @ A) * b + (b @ B) * np.conj(b), axis=1).real
    z = rng.standard_normal(n)
    return z * np.sqrt(J), J
