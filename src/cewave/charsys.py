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
import io
import math
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
from .jets import (
    InvariantPoint,
    Jet2,
    Jet3,
    distinct,
    power,
    richardson_central,
)
from .lagrangians import Kind, LagrangianModel, builtin_names

_TINY = 1e-300
DEGENERACY_RTOL = 1e-12
COINCIDENCE_RTOL = 1e-8

# spatial Levi-Civita symbol, eps[i,j,k]
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0

# Minkowski metric; equal to its inverse, so it raises and lowers indices
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def scalar_z(A: float, B: float, C: float, D: float) -> float:
    """The invariant z = (1/2) sigma_mu sigma^mu of a gradient (A, B, C, D).
    Squares are taken with ** (libm pow), which can differ from x*x in
    the last bit; every z of a scalar background comes from here."""
    return 0.5 * float(-A ** 2 + B ** 2 + C ** 2 + D ** 2)


def _vec3(v) -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(out)):
        raise DomainError("vector components must be finite")
    return out


@dataclass(frozen=True)
class FieldBackground:
    """Constant background state: either a scalar-field gradient
    sigma_mu = (A,B,C,D) or an electromagnetic pair (E, B)."""

    sigma: np.ndarray | None = None
    E: np.ndarray | None = None
    B: np.ndarray | None = None

    @classmethod
    def scalar(cls, A: float, B: float, C: float, D: float) -> "FieldBackground":
        sig = np.asarray([A, B, C, D], dtype=float)
        if not np.all(np.isfinite(sig)):
            raise DomainError("background components must be finite")
        return cls(sigma=sig)

    @classmethod
    def vector(cls, E, B) -> "FieldBackground":
        return cls(E=_vec3(E), B=_vec3(B))

    @property
    def A(self) -> float:
        return float(self.sigma[0])

    @property
    def sigma_spatial(self) -> np.ndarray:
        return self.sigma[1:]

    @property
    def z(self) -> float:
        return scalar_z(*self.sigma)

    @property
    def alpha(self) -> float:
        return float(self.B @ self.B - self.E @ self.E)

    @property
    def beta(self) -> float:
        return float(-(self.B @ self.E))

    def state(self) -> np.ndarray:
        """Background as the state vector of its characteristic system."""
        if self.E is None:
            return self.sigma.copy()
        return np.concatenate([self.E, self.B])

    def point(self, kind: Kind) -> InvariantPoint:
        if kind is Kind.Scalar:
            if self.sigma is None:
                raise KindError("scalar model needs a scalar background")
            return InvariantPoint(z=self.z)
        if self.E is None:
            raise KindError("field-strength model needs an (E, B) background")
        if kind is Kind.VectorAlpha:
            return InvariantPoint(a=self.alpha)
        if kind is Kind.VectorAlphaBeta:
            return InvariantPoint(a=self.alpha, b=self.beta)
        raise KindError(f"no invariant point for kind {kind.value!r} "
                        "on a pure field-strength background")

    def f_upper(self) -> np.ndarray:
        """Field-strength matrix F^{mu nu} of a vector background."""
        if self.E is None:
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

    `matrix` is M(n) in the original (unrotated) state coordinates and
    `rebuild` is the state -> matrix map that made it; the mode probes
    rebuild the system at perturbed states through it.
    """

    n: int
    state: np.ndarray
    matrix: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float
    rebuild: Callable[[np.ndarray], np.ndarray]
    nhat: np.ndarray | None = None
    zero_multiplicity: int = 0

    @classmethod
    def from_builder(cls, state, builder: Callable[[np.ndarray], np.ndarray],
                     nhat=None) -> "CharSystem":
        """The system of an arbitrary state -> matrix map (e.g. a 1x1
        scalar conservation law) at ``state``, taken along the wave
        normal ``nhat`` when the map has one."""
        def rebuild(s: np.ndarray) -> np.ndarray:
            return np.atleast_2d(np.asarray(builder(s), dtype=float))

        st = np.atleast_1d(np.asarray(state, dtype=float))
        M = rebuild(st)
        w, V, left, cond = _eig_sorted(M)
        return cls(n=M.shape[0], state=st, matrix=M,
                   eigenvalues=w, right=V, left=left, cond=cond,
                   rebuild=rebuild, nhat=nhat,
                   zero_multiplicity=_zero_count(w))


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


def _scalar_row0(A: float, s, L1: float, L2: float,
                 theta: float) -> list[float]:
    """Row 0 of the scalar system's matrix along x1: the entry of the
    time component A, then one entry per spatial component s[j], which
    is (s[0] s[j] L'' + L' [j = 0]) / theta with 0.0 added for j > 0."""
    s0, *rest = s
    row = [-2.0 * A * s0 * L2 / theta, (s0 * s0 * L2 + L1) / theta]
    for sj in rest:
        row.append((s0 * sj * L2 + 0.0) / theta)
    return row


def _scalar_theta(A: float, jet: Jet2 | Jet3) -> float:
    theta = A * A * jet.faa - jet.fa
    scale = abs(A * A * jet.faa) + abs(jet.fa)
    if not abs(theta) > DEGENERACY_RTOL * scale:
        raise DegenerateSystem(
            "time-evolution reduction fails: A^2 L'' - L' vanishes "
            f"(theta={theta:.3e}, scale={scale:.3e})")
    return theta


def scalar_axis_entries(model: LagrangianModel, A: float,
                        B: float) -> tuple[float, float]:
    """The entries (m00, m01) of ``scalar_axis_block``'s first row, as
    Python floats; its second row is always (-1.0, 0.0).  The block
    reads L' and L'' alone, so they come from the model's order-2 jet in
    z, whose slots are those of ``jet_at``, and with the same operations
    as the full matrix, so their bits equal the entries sliced from it.
    Adding 0.0 makes a zero entry +0.0, as the rotation product in
    scalar_system leaves it: LAPACK orders eigenpairs by the sign of a
    zero."""
    if not (math.isfinite(A) and math.isfinite(B)):
        raise DomainError("background components must be finite")
    jet = model.jet2_at(scalar_z(A, B, 0.0, 0.0))
    m00, m01 = _scalar_row0(A, (B,), jet.fa, jet.faa, _scalar_theta(A, jet))
    return m00 + 0.0, m01 + 0.0


def scalar_axis_block(model: LagrangianModel, A: float,
                      B: float) -> np.ndarray:
    """Leading 2x2 block of ``scalar_system``'s matrix along x1 on the
    gradient (A, B, 0, 0), for a model of kind Scalar, with the bits of
    the block sliced from the full matrix (see scalar_axis_entries)."""
    m00, m01 = scalar_axis_entries(model, A, B)
    return np.array([[m00, m01], [-1.0, 0.0]])


def _scalar_axis_matrix(model: LagrangianModel, Q: np.ndarray,
                        state: np.ndarray) -> np.ndarray:
    """The 4x4 scalar system's matrix along x1 at the gradient ``state``
    with its spatial part rotated by Q; the jet is taken at the
    gradient's own z."""
    bg = FieldBackground.scalar(*state)
    jet = model.jet_at(bg.point(Kind.Scalar))
    M = np.zeros((4, 4))
    M[0] = _scalar_row0(bg.A, Q @ bg.sigma_spatial, jet.fa, jet.faa,
                        _scalar_theta(bg.A, jet))
    M[1, 0] = -1.0
    return M


def _vector_axis_matrix(model: LagrangianModel, Q: np.ndarray,
                        state: np.ndarray) -> np.ndarray:
    """The 6x6 L(alpha) system's matrix along x1 at the fields
    ``state`` = (E, B) rotated by Q: the flux blocks of the E and B
    equations, reduced by the inverse of the electric time block P."""
    bg = FieldBackground.vector(state[:3], state[3:])
    jet = model.jet_at(bg.point(Kind.VectorAlpha))
    L1, L2 = jet.fa, jet.faa
    E, B = Q @ bg.E, Q @ bg.B
    eps = _EPS3[0]
    epsB = eps @ B
    P = 2.0 * L2 * np.outer(E, E) - L1 * np.eye(3)
    Qb = -2.0 * L2 * np.outer(E, B)
    S = 2.0 * L2 * np.outer(epsB, E)
    R = -2.0 * L2 * np.outer(epsB, B) - L1 * eps
    sig = -eps
    sv = np.linalg.svd(P, compute_uv=False)
    if sv[0] < _TINY or sv[-1] <= DEGENERACY_RTOL * sv[0]:
        raise DegenerateSystem(
            "electric block of the time matrix is singular "
            f"(singular values {sv[0]:.3e}..{sv[-1]:.3e})")
    Pinv = np.linalg.inv(P)
    return np.block([[Pinv @ (S - Qb @ sig), Pinv @ R],
                     [sig, np.zeros((3, 3))]])


def _rotated_system(state: np.ndarray, nhat,
                    axis_matrix: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray]) -> CharSystem:
    """The system along nhat whose matrix at a state is the x1-axis
    matrix of the rotated state, rotated back.  The state is an optional
    scalar followed by spatial 3-vectors, and Q = rotation_to_x1(nhat)
    turns each of those vectors."""
    n = unit_direction(nhat)
    Q = rotation_to_x1(n)
    T = np.eye(len(state))
    for start in range(len(state) % 3, len(state), 3):
        T[start:start + 3, start:start + 3] = Q
    return CharSystem.from_builder(
        state, lambda s: T.T @ axis_matrix(Q, s) @ T, nhat=n)


def scalar_system(bg: FieldBackground, model: LagrangianModel,
                  nhat=(1.0, 0.0, 0.0)) -> CharSystem:
    """4x4 characteristic system of a scalar-field model on a constant
    gradient background, along the wave normal nhat."""
    if model.kind is not Kind.Scalar:
        raise KindError("scalar_system needs a model in the field invariant z")
    bg.point(Kind.Scalar)  # KindError unless bg is a gradient background
    return _rotated_system(
        bg.state(), nhat, lambda Q, s: _scalar_axis_matrix(model, Q, s))


def vector_system(bg: FieldBackground, model: LagrangianModel,
                  nhat=(1.0, 0.0, 0.0)) -> CharSystem:
    """6x6 characteristic system for L(alpha) electrodynamics on a
    constant (E, B) background, along the wave normal nhat."""
    if model.kind is not Kind.VectorAlpha:
        raise KindError("vector_system needs a model in the invariant "
                        "alpha alone")
    bg.point(Kind.VectorAlpha)  # KindError unless bg is an (E, B) background
    return _rotated_system(
        bg.state(), nhat, lambda Q, s: _vector_axis_matrix(model, Q, s))


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


def u_and_g(F: np.ndarray, p: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """U^mu = F^{lam mu} p_lam with its lowered form U_mu, and the cone
    invariants u = U.U and g = p.p."""
    U_up = F.T @ p
    U_dn = ETA @ U_up
    return U_up, U_dn, float(U_up @ U_dn), float(p @ ETA @ p)


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


@dataclass(frozen=True)
class FresnelRoots:
    """Four frequency roots of the dispersion quartic along one
    direction, sorted by real part."""

    roots: np.ndarray
    coincident_with: tuple[int, int, int, int]
    birefringent: bool


# why a row of a FresnelBatch has no roots; FresnelBatch.unusable indexes it
_UNUSABLE = (
    None,
    "dispersion quartic coefficients are not finite at this background",
    "dispersion polynomial vanishes identically; propagation is "
    "undetermined at this background",
    "dispersion factor vanishes identically; propagation is undetermined "
    "at this background",
    "leading quartic coefficient vanishes; a root escapes to infinity at "
    "this background",
)

# the metric cone g = p.p as a quadratic in p0 along a unit normal
_METRIC_FACTOR = np.array([-1.0, 0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class FresnelBatch:
    """Dispersion roots of a stack of backgrounds, one row each: the
    fields E and B and the normal n as given (N x 3), the four roots
    sorted by real part (N x 4, NaN on an unusable row), the index of
    each root's coincident partner or -1, the birefringence flag, and
    ``unusable``, the nonzero reason code of a row without roots."""

    E: np.ndarray
    B: np.ndarray
    n: np.ndarray
    roots: np.ndarray
    coincident_with: np.ndarray
    birefringent: np.ndarray
    unusable: np.ndarray

    def __len__(self) -> int:
        return len(self.roots)

    def take(self, rows) -> "FresnelBatch":
        """The rows an index array or boolean mask selects."""
        return FresnelBatch(*(field[rows] for field in vars(self).values()))

    @staticmethod
    def concat(batches: Sequence["FresnelBatch"]) -> "FresnelBatch":
        fields = zip(*(vars(b).values() for b in batches))
        return FresnelBatch(*map(np.concatenate, fields))

    def error(self, row: int) -> DegenerateQuartic | None:
        """The error that leaves row ``row`` without roots, if any."""
        code = int(self.unusable[row])
        return DegenerateQuartic(_UNUSABLE[code]) if code else None


def _quadratic_roots(C: np.ndarray) -> np.ndarray:
    """Roots of the stacked quadratics C[..., 0] p0^2 + C[..., 1] p0 +
    C[..., 2] with nonzero leading coefficients, bit for bit those of
    ``np.roots`` on each row: one stacked ``eigvals`` of the companion
    matrices [[-c1/c0, -c2/c0], [1, 0]], except that, as ``np.roots``
    does, a zero c2 leaves the 1 x 1 companion [-c1/c0] and an exact
    zero root, and zero c1 and c2 leave two zero roots."""
    top_row = -C[..., 1:] / C[..., :1]
    companion = np.zeros(C.shape[:-1] + (2, 2), dtype=complex)
    companion[..., 0, :] = top_row
    companion[..., 1, 0] = 1.0
    roots = np.linalg.eigvals(companion)
    trailing = C[..., 2] == 0
    roots[trailing] = [0.0, 0.0]
    linear = trailing & (C[..., 1] != 0)
    roots[linear, 0] = top_row[linear, 0]
    return roots


# the kinds of model that have a dispersion quartic
FIELD_KINDS = (Kind.VectorAlpha, Kind.VectorAlphaBeta)


def _check_field_model(model: LagrangianModel) -> None:
    if model.kind not in FIELD_KINDS:
        raise KindError("dispersion quartic needs a field-strength model, "
                        "such as the builtins "
                        + ", ".join(builtin_names(FIELD_KINDS)))


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v divided by its norm (the bits of np.linalg.norm of
    the row)."""
    return v / np.sqrt(np.vecdot(v, v))[:, None]


@np.errstate(all="ignore")
def fresnel_batch(model: LagrangianModel, E, B, nhat) -> FresnelBatch:
    """Solve K u^2 + u g P + g^2 R = 0 for the frequency p0 at each row of
    the stacked fields E and B (N x 3), with the spatial covector fixed
    to the row's normal nhat made unit.

    The quartic is a quadratic form in (u, g), so it factors exactly
    into two quadratics in p0; each factor is solved by its companion
    matrix.  Factoring keeps genuinely coincident root pairs together
    at machine precision instead of the half-precision splitting a
    direct quartic solve produces, while leaving real splittings
    untouched.  Within the degeneracy tolerance |P^2 - 4KR| is treated
    as exactly zero (perfect-square branch).

    A row has no roots (a nonzero ``unusable``) when K, P, R or a factor
    coefficient is not finite, or when the quartic or a factor
    degenerates.  Inside a ``DomainMask`` a background outside the
    model's domain carries NaN, and so has no roots; outside one it
    raises DomainError.  A power that leaves the double range at any
    row raises FloatOverflow for the whole stack.
    """
    _check_field_model(model)
    E, B, nhat = (np.asarray(v, dtype=float).reshape(-1, 3)
                  for v in (E, B, nhat))
    a = np.vecdot(B, B) - np.vecdot(E, E)
    b = -np.vecdot(B, E)
    if model.kind is Kind.VectorAlpha:
        point, b = InvariantPoint(a=a), 0.0
    else:
        point = InvariantPoint(a=a, b=b)
    jet = model.jet_at(point)
    K, P, R = cone_coefficients(jet.fa, jet.faa, jet.fab, jet.fbb, a, b)
    k_scale, d_scale = degeneracy_scales(jet.faa, jet.fab, jet.fbb, K, P, R)
    K, P, R, k_scale, d_scale = np.broadcast_arrays(K, P, R, k_scale,
                                                    d_scale, a)[:5]

    if not np.isfinite(nhat).all():
        raise DomainError("vector components must be finite")
    if (np.sqrt(np.vecdot(nhat, nhat)) < _TINY).any():
        raise DomainError("wave direction must be nonzero")
    n = unit_rows(nhat)
    nxB = np.cross(n, B)
    u0 = np.vecdot(E, E)
    u1 = -2.0 * np.vecdot(E, nxB)
    u2 = np.vecdot(nxB, nxB) - power(np.vecdot(E, n), 2)

    # the K != 0 factors u + h g for the two roots h of K h^2 - P h + R
    delta = P * P - 4.0 * K * R
    delta[np.abs(delta) <= DEGENERACY_RTOL * d_scale] = 0.0
    sq = np.sqrt(delta.astype(complex))
    h = np.stack([-P + sq, -P - sq], axis=-1) / (2.0 * K)[:, None]
    C = np.empty(h.shape + (3,), dtype=complex)
    C[..., 0] = u0[:, None] + h
    C[..., 1] = u1[:, None]
    C[..., 2] = u2[:, None] - h

    quadratic = np.abs(K) > DEGENERACY_RTOL * k_scale + _TINY
    # K = 0: the quartic is g (u P + g R)
    linear = ~quadratic & (np.abs(P) > _TINY)
    # only the metric cone survives, doubled
    metric = ~quadratic & ~linear & (np.abs(R) > _TINY)
    C[~quadratic, 0] = _METRIC_FACTOR
    C[linear, 1] = np.stack([u0 * P - R, u1 * P, u2 * P + R],
                            axis=-1)[linear]
    C[metric, 1] = _METRIC_FACTOR

    top = np.abs(C).max(axis=-1)
    vanishes = top < _TINY
    # np.abs of a complex array may differ from abs() of one value in
    # the last bit; np.hypot gives the bits of the latter
    escapes = np.hypot(C[..., 0].real, C[..., 0].imag) <= 1e-14 * top
    unusable = np.select(
        [~np.isfinite([K, P, R]).all(axis=0), ~(quadratic | linear | metric),
         ~np.isfinite(C).all(axis=(1, 2)), vanishes[:, 0], escapes[:, 0],
         vanishes[:, 1], escapes[:, 1]],
        [1, 2, 1, 3, 4, 3, 4], 0)
    C[unusable != 0] = _METRIC_FACTOR  # eigvals takes finite input only
    roots = np.sort_complex(_quadratic_roots(C).reshape(-1, 4))
    roots[unusable != 0] = np.nan

    tol_c = COINCIDENCE_RTOL * (1.0 + np.abs(roots).max(axis=-1))
    gap = roots[:, :, None] - roots[:, None, :]
    close = np.hypot(gap.real, gap.imag) < tol_c[:, None, None]
    close[:, range(4), range(4)] = False
    partner = np.where(close.any(axis=-1), close.argmax(axis=-1), -1)
    two_pairs = close[:, 0, 1] & close[:, 2, 3]
    return FresnelBatch(E=E, B=B, n=nhat, roots=roots,
                        coincident_with=partner, birefringent=~two_pairs,
                        unusable=unusable)


def fresnel_roots(model: LagrangianModel, bg: FieldBackground,
                  nhat=(1.0, 0.0, 0.0)) -> FresnelRoots:
    """The dispersion roots along nhat at one background: the batch of
    one of ``fresnel_batch``, raising where that row has no roots."""
    _check_field_model(model)
    bg.point(model.kind)  # KindError unless bg is an (E, B) background
    batch = fresnel_batch(model, bg.E, bg.B, np.reshape(nhat, (1, 3)))
    error = batch.error(0)
    if error is not None:
        raise error
    return FresnelRoots(roots=batch.roots[0],
                        coincident_with=tuple(batch.coincident_with[0].tolist()),
                        birefringent=bool(batch.birefringent[0]))


# --- mode probes ----------------------------------------------------------------


def exceptionality_per_mode(system: CharSystem, index: int) -> float:
    """Directional derivative of eigenvalue `index` along its own
    (unit) right eigenvector, by rebuilding the system at perturbed
    states; central difference plus one Richardson step.  The step is
    1e-5 (1 + |state|), or a tenth of the distance to the nearest other
    eigenvalue if that is less; a mode within COINCIDENCE_RTOL
    (1 + |state|) of another has no trustworthy gradient."""
    w = np.real(system.eigenvalues)
    if not 0 <= index < system.n:
        raise BadUsage(f"mode index {index} out of range for n={system.n}")
    scale = 1.0 + float(np.linalg.norm(system.state))
    h = 1e-5 * scale
    others = np.delete(w, index)
    if others.size:
        spacing = float(np.min(np.abs(others - w[index])))
        if spacing < COINCIDENCE_RTOL * scale:
            raise ModeCollision(
                f"eigenvalue spacing {spacing:.3e} below "
                f"{COINCIDENCE_RTOL * scale:.3e}; the mode gradient is "
                "untrustworthy")
        h = min(h, spacing / 10.0)

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


def crosscheck_cone_vs_eigen(system: CharSystem, H) -> float:
    """Insert each nonzero eigenvalue as p = (-lam, system.nhat) into the
    dispersion function H; return the max of |H| over its magnitude."""
    n = unit_direction(system.nhat)
    w = np.real(system.eigenvalues)
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    worst = 0.0
    for lam in w:
        if abs(lam) < COINCIDENCE_RTOL * scale:
            continue
        p = np.array([-lam, *n])
        worst = max(worst, abs(H.value(None, p)) / (H.magnitude(None, p)
                                                    + _TINY))
    return worst


# --- CSV export ------------------------------------------------------------------


def fresnel_scan_rows(model: LagrangianModel, batch: FresnelBatch
                      ) -> tuple[list[str], list[np.ndarray]]:
    """Header and data columns of the dispersion-root scan, for write_csv:
    one row per root of each background of ``batch``, in root order."""
    header = ["model", "Ex", "Ey", "Ez", "Bx", "By", "Bz",
              "nx", "ny", "nz", "root_index", "p0",
              "coincident_with", "birefringent_flag"]
    count = len(batch)
    name = io.StringIO()
    csv.writer(name, lineterminator="").writerow([model.name])
    columns = [np.full(4 * count, name.getvalue())]
    columns += [np.repeat(c, 4) for c in (*batch.E.T, *batch.B.T, *batch.n.T)]
    columns += [np.tile(np.arange(4), count), batch.roots.real.ravel(),
                batch.coincident_with.ravel(),
                np.repeat(batch.birefringent, 4)]
    return header, columns


# Rows per block of a written table: the writers render and write one
# block of rows at a time (field texts, row texts, write), so the text
# they hold at once does not grow with the table.
ROW_BLOCK = 1024


def float_texts(column, spelling: dict[str, str] | None = None) -> list[str]:
    """repr of each value of a float column, with ``spelling`` renaming
    the non-finite literals 'nan', 'inf' and '-inf' (JSON writes them
    as NaN, Infinity and -Infinity).

    Each distinct bit pattern is written once (grid coordinates and
    constant columns repeat); bits, not values, keep -0.0 apart from 0.0.
    """
    values, index = distinct(column)
    text = list(map(float.__repr__, values.tolist()))
    if spelling and not np.isfinite(values).all():
        text = [spelling.get(t, t) for t in text]
    return np.array(text, dtype=object)[index].tolist()


def _field_texts(column: np.ndarray) -> list[str]:
    """A block of a column as CSV fields, spelled by dtype: floats as
    float_texts, bools true/false, else str (ints, quoted names)."""
    if column.dtype.kind == "f":
        return float_texts(column)
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    return list(map(str, column.tolist()))


def write_csv(path: str, header: list[str], columns) -> None:
    """Write a header and then equal-length data columns, one ROW_BLOCK of
    rows at a time: each row's field texts joined by commas and ended by
    CRLF, the bytes csv.writer writes for texts it would not quote."""
    columns = [np.asarray(c) for c in columns]
    # up to the longest column, so a shorter one ends a block early and
    # the row zip raises
    rows = max(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, rows, ROW_BLOCK):
            texts = [_field_texts(c[start:start + ROW_BLOCK]) for c in columns]
            fh.writelines(",".join(row) + "\r\n"
                          for row in zip(*texts, strict=True))


def write_scan_csv(path: str, header: list[str], columns) -> None:
    """Write the columns of fresnel_scan_rows."""
    write_csv(path, header, columns)
