"""First-order characteristic systems and dispersion cones.

Builds the explicit 4x4 (scalar field) and 6x6 (electromagnetic field)
quasilinear systems for plane-wave analysis on constant backgrounds,
solves the quartic dispersion relation for the wave frequency, and
cross-validates eigenvalues of the system matrices against the roots of
the covariant cones.

Conventions: metric diag(-1,1,1,1); spatial Levi-Civita with
eps[0,1,2] = +1; electric and magnetic components E^i = F^{0i},
B^i = (1/2) eps^{ijk} F_{jk}.  Wave covectors are written p = (p0, n)
with n a unit spatial normal, and the characteristic speed of a mode is
lam = -p0 / |n|.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadUsage,
    DegenerateQuartic,
    DegenerateSystem,
    DomainError,
    KindError,
    ModeCollision,
)
from .jets import InvariantPoint, Jet3, power, richardson_central
from .lagrangians import Kind, LagrangianModel

_TINY = 1e-300
DEGENERACY_RTOL = 1e-12
COINCIDENCE_RTOL = 1e-8

# spatial Levi-Civita symbol, eps[i,j,k]
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0

# Minkowski metric; equal to its inverse, so it raises and lowers indices
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _vec3(v) -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(out)):
        raise DomainError("vector components must be finite")
    return out


@dataclass(frozen=True)
class FieldBackground:
    """Constant background state: either a scalar-field gradient
    sigma_mu = (A,B,C,D) or an electromagnetic pair (E, B)."""

    kind: str
    sigma: np.ndarray | None = None
    E: np.ndarray | None = None
    B: np.ndarray | None = None

    @classmethod
    def scalar(cls, A: float, B: float, C: float, D: float) -> "FieldBackground":
        sig = np.asarray([A, B, C, D], dtype=float)
        if not np.all(np.isfinite(sig)):
            raise DomainError("background components must be finite")
        return cls(kind="scalar", sigma=sig)

    @classmethod
    def vector(cls, E, B) -> "FieldBackground":
        return cls(kind="vector", E=_vec3(E), B=_vec3(B))

    @property
    def A(self) -> float:
        return float(self.sigma[0])

    @property
    def sigma_spatial(self) -> np.ndarray:
        return self.sigma[1:]

    @property
    def z(self) -> float:
        s = self.sigma
        return 0.5 * float(-s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2)

    @property
    def alpha(self) -> float:
        return float(self.B @ self.B - self.E @ self.E)

    @property
    def beta(self) -> float:
        return float(-(self.B @ self.E))

    def state(self) -> np.ndarray:
        """Background as the state vector of its characteristic system."""
        if self.kind == "scalar":
            return self.sigma.copy()
        return np.concatenate([self.E, self.B])

    def point(self, kind: Kind) -> InvariantPoint:
        if kind is Kind.Scalar:
            if self.kind != "scalar":
                raise KindError("scalar model needs a scalar background")
            return InvariantPoint.scalar(self.z)
        if self.kind != "vector":
            raise KindError("field-strength model needs an (E, B) background")
        if kind is Kind.VectorAlpha:
            return InvariantPoint.alpha(self.alpha)
        if kind is Kind.VectorAlphaBeta:
            return InvariantPoint.alpha_beta(self.alpha, self.beta)
        raise KindError(f"no invariant point for kind {kind.value!r} "
                        "on a pure field-strength background")

    def f_upper(self) -> np.ndarray:
        """Field-strength matrix F^{mu nu} of a vector background."""
        if self.kind != "vector":
            raise KindError("field strength is defined for (E, B) backgrounds")
        F = np.zeros((4, 4))
        F[0, 1:] = self.E
        F[1:, 0] = -self.E
        F[1:, 1:] = np.einsum("ijk,k->ij", _EPS3, self.B)
        return F


def unit_direction(nhat) -> np.ndarray:
    n = _vec3(nhat)
    norm = float(np.linalg.norm(n))
    if norm < _TINY:
        raise DomainError("wave direction must be nonzero")
    return n / norm


def rotation_to_x1(nhat) -> np.ndarray:
    """Proper rotation Q with Q @ nhat = (1,0,0)."""
    n = unit_direction(nhat)
    if abs(n[0] - 1.0) < 1e-15 and abs(n[1]) < 1e-15 and abs(n[2]) < 1e-15:
        return np.eye(3)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(n)))] = 1.0
    r2 = seed - n * (seed @ n)
    r2 /= np.linalg.norm(r2)
    r3 = np.cross(n, r2)
    return np.array([n, r2, r3])


@dataclass
class CharSystem:
    """A quasilinear system dU/dt + M(n) dU/dx_n = 0 reduced so the
    time matrix is the identity, with its eigen data along one
    direction.

    `matrix` is M(n) in the original (unrotated) state coordinates;
    `ai` holds the three per-axis matrices when the construction gives
    them; `rebuild` maps a perturbed state vector to the matrix at that
    state, used for mode-exceptionality probes.
    """

    n: int
    state: np.ndarray
    nhat: np.ndarray | None
    matrix: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float
    ai: tuple[np.ndarray, ...] | None = None
    theta: float | None = None
    poly: tuple[float, float] | None = None
    quartic: tuple[float, float, float, float] | None = None
    zero_multiplicity: int = 0
    rebuild: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def from_builder(cls, state,
                     builder: Callable[[np.ndarray], np.ndarray]) -> "CharSystem":
        """Wrap an arbitrary state -> matrix map (e.g. a 1x1 scalar
        conservation law) so the mode probes below apply to it."""
        st = np.atleast_1d(np.asarray(state, dtype=float))
        M = np.atleast_2d(np.asarray(builder(st), dtype=float))
        w, V, left, cond = _eig_sorted(M)
        return cls(n=M.shape[0], state=st, nhat=None, matrix=M,
                   eigenvalues=w, right=V, left=left, cond=cond,
                   zero_multiplicity=_zero_count(w),
                   rebuild=lambda s: np.atleast_2d(
                       np.asarray(builder(s), dtype=float)))


def sorted_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of M ordered by real, then imaginary part, with the
    right eigenvectors as columns in the same order."""
    w, V = np.linalg.eig(M)
    order = np.lexsort((w.imag, w.real))
    return w[order], V[:, order]


def nearly_real(x: np.ndarray) -> bool:
    """Whether the imaginary parts of x are rounding noise relative to
    its real parts."""
    return bool(np.max(np.abs(x.imag)) <= 1e-10 * (1.0 + np.max(np.abs(x.real))))


def _eig_sorted(M: np.ndarray):
    w, V = sorted_eig(M)
    if w.size and nearly_real(w):
        w = w.real
        V = V.real if np.max(np.abs(V.imag)) <= 1e-10 else V
    cond = float(np.linalg.cond(V))
    left = _left_eigenvectors(M, w, V, cond)
    return w, V, left, cond


def _left_eigenvectors(M: np.ndarray, w: np.ndarray, V: np.ndarray,
                       cond: float) -> np.ndarray:
    """Rows biorthonormal to the columns of V where possible.

    With a well-conditioned eigenbasis, inv(V) is the exact dual basis
    (it also disentangles repeated-but-diagonalizable eigenvalues).  A
    defective system (e.g. the constraint modes of the 6x6 field system
    at generic backgrounds) makes V singular, so fall back to matching
    eigenvectors of the transpose mode by mode; simple modes still get
    a proper normalized left row, defective ones keep unit norm.
    """
    if cond < 1e8:
        return np.linalg.inv(V)
    _, U = sorted_eig(M.T)
    left = np.zeros_like(np.asarray(V, dtype=U.dtype).T)
    for i in range(len(w)):
        row = U[:, i]
        d = row @ V[:, i]
        if abs(d) > 1e-10:
            row = row / d
        left[i] = row
    if nearly_real(left):
        left = left.real
    return left


def _zero_count(w: np.ndarray) -> int:
    scale = 1.0 + (np.max(np.abs(w)) if w.size else 0.0)
    return int(np.sum(np.abs(w) < COINCIDENCE_RTOL * scale))


def _scalar_axis_matrices(A: float, s: np.ndarray, L1: float, L2: float,
                          theta: float) -> list[np.ndarray]:
    mats = []
    for i in range(3):
        M = np.zeros((4, 4))
        M[0, 0] = -2.0 * A * s[i] * L2 / theta
        for j in range(3):
            M[0, j + 1] = (s[i] * s[j] * L2 + (L1 if i == j else 0.0)) / theta
        M[i + 1, 0] = -1.0
        mats.append(M)
    return mats


def _scalar_theta(A: float, jet: Jet3, tol: float) -> float:
    theta = A * A * jet.faa - jet.fa
    scale = abs(A * A * jet.faa) + abs(jet.fa)
    if not abs(theta) > tol * scale:
        raise DegenerateSystem(
            "time-evolution reduction fails: A^2 L'' - L' vanishes "
            f"(theta={theta:.3e}, scale={scale:.3e})")
    return theta


def scalar_system(bg: FieldBackground, model: LagrangianModel,
                  nhat=(1.0, 0.0, 0.0),
                  tol: float = DEGENERACY_RTOL) -> CharSystem:
    """4x4 characteristic system of a scalar-field model on a constant
    gradient background, along the wave normal nhat."""
    if model.kind is not Kind.Scalar:
        raise KindError("scalar_system needs a model in the field invariant z")
    point = bg.point(Kind.Scalar)
    jet = model.jet_at(point)
    L1, L2 = jet.fa, jet.faa
    theta = _scalar_theta(bg.A, jet, tol)

    n = unit_direction(nhat)
    Q = rotation_to_x1(n)
    T = np.eye(4)
    T[1:, 1:] = Q

    s_rot = Q @ bg.sigma_spatial
    M_rot = _scalar_axis_matrices(bg.A, s_rot, L1, L2, theta)[0]
    matrix = T.T @ M_rot @ T
    w, V, left, cond = _eig_sorted(matrix)

    a1 = 2.0 * bg.A * s_rot[0] * L2 / theta
    a2 = (s_rot[0] ** 2 * L2 + L1) / theta

    def rebuild(state: np.ndarray) -> np.ndarray:
        A2 = float(state[0])
        s2 = np.asarray(state[1:], dtype=float)
        z2 = 0.5 * (-A2 * A2 + float(s2 @ s2))
        jet2 = model.jet_at(InvariantPoint.scalar(z2))
        theta2 = _scalar_theta(A2, jet2, tol)
        M2 = _scalar_axis_matrices(A2, Q @ s2, jet2.fa, jet2.faa, theta2)[0]
        return T.T @ M2 @ T

    return CharSystem(
        n=4, state=bg.state(), nhat=n, matrix=matrix, eigenvalues=w,
        right=V, left=left, cond=cond,
        ai=tuple(_scalar_axis_matrices(bg.A, bg.sigma_spatial, L1, L2, theta)),
        theta=theta, poly=(float(a1), float(a2)),
        zero_multiplicity=_zero_count(w), rebuild=rebuild)


def _vector_blocks(E: np.ndarray, B: np.ndarray, L1: float, L2: float,
                   axis: int):
    eps = _EPS3[axis]
    epsB = eps @ B
    P = 2.0 * L2 * np.outer(E, E) - L1 * np.eye(3)
    Qb = -2.0 * L2 * np.outer(E, B)
    S = 2.0 * L2 * np.outer(epsB, E)
    R = -2.0 * L2 * np.outer(epsB, B) - L1 * eps
    sig = -eps
    return P, Qb, S, R, sig


def _vector_reduced(E: np.ndarray, B: np.ndarray, L1: float, L2: float,
                    axis: int, tol: float) -> np.ndarray:
    P, Qb, S, R, sig = _vector_blocks(E, B, L1, L2, axis)
    sv = np.linalg.svd(P, compute_uv=False)
    if sv[0] < _TINY or sv[-1] <= tol * sv[0]:
        raise DegenerateSystem(
            "electric block of the time matrix is singular "
            f"(singular values {sv[0]:.3e}..{sv[-1]:.3e})")
    Pinv = np.linalg.inv(P)
    top_left = Pinv @ (S - Qb @ sig)
    top_right = Pinv @ R
    return np.block([[top_left, top_right],
                     [sig, np.zeros((3, 3))]])


def vector_system(bg: FieldBackground, model: LagrangianModel,
                  nhat=(1.0, 0.0, 0.0),
                  tol: float = DEGENERACY_RTOL) -> CharSystem:
    """6x6 characteristic system for L(alpha) electrodynamics on a
    constant (E, B) background, along the wave normal nhat."""
    if model.kind is not Kind.VectorAlpha:
        raise KindError("vector_system needs a model in the invariant "
                        "alpha alone")
    jet = model.jet_at(bg.point(Kind.VectorAlpha))
    L1, L2 = jet.fa, jet.faa

    n = unit_direction(nhat)
    Q = rotation_to_x1(n)
    T = np.zeros((6, 6))
    T[:3, :3] = Q
    T[3:, 3:] = Q

    W_rot = _vector_reduced(Q @ bg.E, Q @ bg.B, L1, L2, 0, tol)
    matrix = T.T @ W_rot @ T
    w, V, left, cond = _eig_sorted(matrix)

    coeffs = np.poly(matrix)
    coeffs = np.real_if_close(coeffs, tol=1000)
    quartic = (float(np.real(coeffs[4])), float(np.real(coeffs[3])),
               float(np.real(coeffs[2])), float(np.real(coeffs[1])))

    ai = tuple(_vector_reduced(bg.E, bg.B, L1, L2, axis, tol)
               for axis in range(3))

    def rebuild(state: np.ndarray) -> np.ndarray:
        E2 = np.asarray(state[:3], dtype=float)
        B2 = np.asarray(state[3:], dtype=float)
        a2 = float(B2 @ B2 - E2 @ E2)
        jet2 = model.jet_at(InvariantPoint.alpha(a2))
        W2 = _vector_reduced(Q @ E2, Q @ B2, jet2.fa, jet2.faa, 0, tol)
        return T.T @ W2 @ T

    return CharSystem(
        n=6, state=bg.state(), nhat=n, matrix=matrix, eigenvalues=w,
        right=V, left=left, cond=cond, ai=ai, quartic=quartic,
        zero_multiplicity=_zero_count(w), rebuild=rebuild)


def biorthogonality_defect(system: CharSystem) -> float:
    """Max |L_I R_J - delta_IJ| with the identity time matrix."""
    G = system.left @ system.right
    return float(np.max(np.abs(G - np.eye(system.n))))


# --- covariant cones ----------------------------------------------------------


def scalar_cone_matrix(jet: Jet3, bg: FieldBackground) -> np.ndarray:
    """G^{mu nu} = eta L' + sigma^mu sigma^nu L'' of a scalar model on a
    constant gradient background; its cone is G^{mu nu} p_mu p_nu = 0."""
    sigma_up = np.array([-bg.sigma[0], *bg.sigma[1:]])
    return ETA * jet.fa + np.outer(sigma_up, sigma_up) * jet.faa


def scalar_cone(jet: Jet3 | LagrangianModel, bg: FieldBackground, p) -> float:
    """G^{mu nu} p_mu p_nu for a scalar model: eta L' + sigma sigma L''
    contracted twice with the covector p."""
    if isinstance(jet, LagrangianModel):
        jet = jet.jet_at(bg.point(Kind.Scalar))
    p = np.asarray(p, dtype=float).reshape(4)
    return float(p @ scalar_cone_matrix(jet, bg) @ p)


def scalar_cone_fn(model: LagrangianModel,
                   bg: FieldBackground) -> Callable[[np.ndarray], tuple[float, float]]:
    G = scalar_cone_matrix(model.jet_at(bg.point(Kind.Scalar)), bg)
    G_abs = np.abs(G)

    def cone(p) -> tuple[float, float]:
        p = np.asarray(p, dtype=float).reshape(4)
        return float(p @ G @ p), float(np.abs(p) @ G_abs @ np.abs(p)) + _TINY

    return cone


def u_and_g(F: np.ndarray, p: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """U^mu = F^{lam mu} p_lam with its lowered form U_mu, and the cone
    invariants u = U.U and g = p.p."""
    U_up = F.T @ p
    U_dn = ETA @ U_up
    return U_up, U_dn, float(U_up @ U_dn), float(p @ ETA @ p)


def field_cone_fn(bg: FieldBackground,
                  form: Callable[[float, float, float, float], tuple[float, float]]
                  ) -> Callable[[np.ndarray], tuple[float, float]]:
    """p -> form(u, g, u_abs, g_abs) on an (E, B) background, where
    u_abs = sum U_mu^2 and g_abs = sum p_mu^2 are the absolute-value
    counterparts of u and g used for normalization."""
    F = bg.f_upper()

    def cone(p) -> tuple[float, float]:
        p = np.asarray(p, dtype=float).reshape(4)
        U_up, _, u, g = u_and_g(F, p)
        return form(u, g, float(U_up @ U_up), float(p @ p))

    return cone


def alpha_cone_fn(model: LagrangianModel,
                  bg: FieldBackground) -> Callable[[np.ndarray], tuple[float, float]]:
    """Dispersion function 2 u L'' + g L' for L(alpha) models, returned
    as p -> (raw value, normalization scale)."""
    jet = model.jet_at(bg.point(Kind.VectorAlpha))
    L1, L2 = jet.fa, jet.faa
    return field_cone_fn(bg, lambda u, g, u_abs, g_abs: (
        2.0 * u * L2 + g * L1,
        2.0 * u_abs * abs(L2) + g_abs * abs(L1) + _TINY))


def quartic_form(K: float, P: float,
                 R: float) -> Callable[..., tuple[float, float]]:
    """The dispersion quartic K u^2 + u g P + g^2 R as a field_cone_fn
    form: (u, g, u_abs, g_abs) -> (value, sum of absolute term sizes)."""
    return lambda u, g, u_abs, g_abs: (
        K * u * u + u * g * P + g * g * R,
        abs(K) * u_abs ** 2 + u_abs * g_abs * abs(P)
        + g_abs ** 2 * abs(R) + _TINY)


def quartic_cone_fn(model: LagrangianModel,
                    bg: FieldBackground) -> Callable[[np.ndarray], tuple[float, float]]:
    """Full two-invariant dispersion function K u^2 + u g P + g^2 R."""
    point = bg.point(model.kind)
    K, P, R = point_cone_coefficients(model.jet_at(point), point)
    return field_cone_fn(bg, quartic_form(K, P, R))


def cone_coefficients(La, Laa, Lab, Lbb, a, b):
    """Coefficients K, P, R of the dispersion quartic K u^2 + u g P + g^2 R
    from the L-partials at the invariant point (a, b).  The arguments may
    be floats or Jet3 values; with jets the (a, b)-gradients of K, P, R
    come out exactly."""
    K = Laa * Lbb - power(Lab, 2)
    P = 2.0 * La * (Laa + 0.25 * Lbb) - a * K
    R = La * (La + 2.0 * b * Lab - 0.5 * a * Lbb) - b * b * K
    return K, P, R


def degeneracy_scales(Laa: float, Lab: float, Lbb: float, K: float, P: float,
                      R: float) -> tuple[float, float]:
    """Magnitudes against which K and the pair-splitting discriminant
    P^2 - 4KR count as zero, within DEGENERACY_RTOL."""
    return abs(Laa * Lbb) + power(Lab, 2), P * P + abs(4.0 * K * R)


def point_cone_coefficients(jet: Jet3, point: InvariantPoint
                            ) -> tuple[float, float, float]:
    """K, P, R of a model's jet at one invariant point."""
    b = point.b if point.b is not None else 0.0
    K, P, R = cone_coefficients(jet.fa, jet.faa, jet.fab, jet.fbb, point.a, b)
    return float(K), float(P), float(R)


@dataclass(frozen=True)
class FresnelRoots:
    """Four frequency roots of the dispersion quartic along one
    direction, sorted by real part."""

    roots: np.ndarray
    coincident_with: tuple[int, int, int, int]
    birefringent: bool
    coeffs: np.ndarray

    def real_roots(self) -> np.ndarray:
        return self.roots.real


def _quadratic_roots(coeffs: np.ndarray) -> np.ndarray:
    top = float(np.max(np.abs(coeffs)))
    if top < _TINY:
        raise DegenerateQuartic(
            "dispersion factor vanishes identically; propagation "
            "is undetermined at this background")
    if abs(coeffs[0]) <= 1e-14 * top:
        raise DegenerateQuartic(
            "leading quartic coefficient vanishes; a root escapes to "
            "infinity at this background")
    return np.roots(coeffs)


def fresnel_roots(jet: Jet3 | LagrangianModel, bg: FieldBackground,
                  nhat=(1.0, 0.0, 0.0)) -> FresnelRoots:
    """Solve K u^2 + u g P + g^2 R = 0 for the frequency p0 with the
    spatial covector fixed to the unit normal.

    The quartic is a quadratic form in (u, g), so it factors exactly
    into two quadratics in p0; each factor is solved by its companion
    matrix.  Factoring keeps genuinely coincident root pairs together
    at machine precision instead of the half-precision splitting a
    direct quartic solve produces, while leaving real splittings
    untouched.  Within the degeneracy tolerance |P^2 - 4KR| is treated
    as exactly zero (perfect-square branch).
    """
    if isinstance(jet, LagrangianModel):
        if jet.kind not in (Kind.VectorAlpha, Kind.VectorAlphaBeta):
            raise KindError("dispersion quartic needs a field-strength model")
        point = bg.point(jet.kind)
        model_jet = jet.jet_at(point)
    else:
        point = bg.point(Kind.VectorAlphaBeta)
        model_jet = jet
    K, P, R = point_cone_coefficients(model_jet, point)
    k_scale, d_scale = degeneracy_scales(model_jet.faa, model_jet.fab,
                                         model_jet.fbb, K, P, R)

    n = unit_direction(nhat)
    E, B = bg.E, bg.B
    nxB = np.cross(n, B)
    u_poly = np.array([float(E @ E), -2.0 * float(E @ nxB),
                       float(nxB @ nxB) - float(E @ n) ** 2])
    g_poly = np.array([-1.0, 0.0, 1.0])

    coeffs = (K * np.convolve(u_poly, u_poly)
              + P * np.convolve(u_poly, g_poly)
              + R * np.convolve(g_poly, g_poly))

    if abs(K) > DEGENERACY_RTOL * k_scale + _TINY:
        delta = P * P - 4.0 * K * R
        if abs(delta) <= DEGENERACY_RTOL * d_scale:
            delta = 0.0
        sq = np.sqrt(complex(delta))
        h_pair = ((-P + sq) / (2.0 * K), (-P - sq) / (2.0 * K))
        factors = [np.array([u_poly[0] + h, u_poly[1], u_poly[2] - h])
                   for h in h_pair]
    elif abs(P) > _TINY:
        # K = 0: the quartic is g (u P + g R)
        factors = [g_poly.astype(complex),
                   np.array([u_poly[0] * P - R, u_poly[1] * P,
                             u_poly[2] * P + R], dtype=complex)]
    elif abs(R) > _TINY:
        # only the metric cone survives, doubled
        factors = [g_poly.astype(complex), g_poly.astype(complex)]
    else:
        raise DegenerateQuartic(
            "dispersion polynomial vanishes identically; propagation "
            "is undetermined at this background")

    roots = np.sort_complex(np.concatenate([_quadratic_roots(f)
                                            for f in factors]))

    tol_c = COINCIDENCE_RTOL * (1.0 + float(np.max(np.abs(roots))))
    partner = [-1, -1, -1, -1]
    for i in range(4):
        for j in range(4):
            if i != j and abs(roots[i] - roots[j]) < tol_c:
                partner[i] = j
                break
    two_pairs = (abs(roots[0] - roots[1]) < tol_c
                 and abs(roots[2] - roots[3]) < tol_c)
    return FresnelRoots(roots=roots, coincident_with=tuple(partner),
                        birefringent=not two_pairs, coeffs=coeffs)


# --- mode probes ----------------------------------------------------------------


def exceptionality_per_mode(system: CharSystem, index: int,
                            step: float = 1e-5) -> float:
    """Directional derivative of eigenvalue `index` along its own
    (unit) right eigenvector, by rebuilding the system at perturbed
    states; central difference plus one Richardson step."""
    if system.rebuild is None:
        raise BadUsage("system carries no state -> matrix rebuild map")
    w = np.real(system.eigenvalues)
    if not 0 <= index < system.n:
        raise BadUsage(f"mode index {index} out of range for n={system.n}")
    h = step * (1.0 + float(np.linalg.norm(system.state)))
    others = np.delete(w, index)
    if others.size:
        spacing = float(np.min(np.abs(others - w[index])))
        if spacing < 10.0 * h:
            raise ModeCollision(
                f"eigenvalue spacing {spacing:.3e} below 10h={10 * h:.3e}; "
                "the mode gradient is untrustworthy")

    R = np.real(system.right[:, index])
    R = R / np.linalg.norm(R)
    L_row = system.left[index]

    def tracked(t: float) -> float:
        M = system.rebuild(system.state + t * R)
        w2, V2 = np.linalg.eig(M)
        overlaps = np.abs(L_row @ V2)
        j = int(np.argmax(overlaps))
        return float(np.real(w2[j]))

    return richardson_central(tracked, h)


def crosscheck_cone_vs_eigen(system: CharSystem,
                             cone: Callable[[np.ndarray], tuple[float, float]],
                             nhat=None) -> float:
    """Insert each nonzero eigenvalue as p = (-lam, nhat) into the
    covariant cone; return the max normalized cone value."""
    n = unit_direction(nhat if nhat is not None else system.nhat)
    w = np.real(system.eigenvalues)
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    worst = 0.0
    for lam in w:
        if abs(lam) < COINCIDENCE_RTOL * scale:
            continue
        raw, ref = cone(np.array([-lam, *n]))
        worst = max(worst, abs(raw) / (ref + _TINY))
    return worst


# --- CSV export ------------------------------------------------------------------


def fresnel_scan_rows(model: LagrangianModel,
                      solved: Sequence[tuple[FieldBackground, np.ndarray,
                                             FresnelRoots]]
                      ) -> tuple[list[str], list[list]]:
    """Rows of the dispersion-root scan: one row per root per solved
    (background, unit normal, roots) triple."""
    header = ["model", "Ex", "Ey", "Ez", "Bx", "By", "Bz",
              "nx", "ny", "nz", "root_index", "p0",
              "coincident_with", "birefringent_flag"]
    rows: list[list] = []
    for bg, n, fr in solved:
        for i in range(4):
            rows.append([
                model.name,
                repr(float(bg.E[0])), repr(float(bg.E[1])), repr(float(bg.E[2])),
                repr(float(bg.B[0])), repr(float(bg.B[1])), repr(float(bg.B[2])),
                repr(float(n[0])), repr(float(n[1])), repr(float(n[2])),
                i, repr(float(fr.roots[i].real)),
                fr.coincident_with[i], str(fr.birefringent).lower(),
            ])
    return header, rows


def write_csv(path: str, header: list[str], rows) -> None:
    """Write one header line and then every row of an iterable."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scan_csv(path: str, header: list[str], rows: list[list]) -> None:
    write_csv(path, header, rows)
