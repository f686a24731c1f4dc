"""Kernel analysis of metric-discontinuity equations.

A second-order discontinuity pi_{mu nu} in the metric across a surface
with normal covector phi must satisfy the leading-order discontinuity
of the field equations together with the harmonic-gauge constraint
2 pi^{mu nu} phi_mu - pi phi^nu = 0.  Stacking both as one linear
operator on the D(D+1)/2 independent components of pi turns "which
surfaces can carry a discontinuity" into a rank question: a nontrivial
kernel marks a characteristic surface.  For the three families built
here (Einstein, curvature-squared with couplings (p, q), and f(R)),
null normals are the ones that enlarge the kernel.

Everything lives on a flat metric diag(-1, 1, ..., 1): the algebra is
pointwise in the tensors, so a flat background loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, ZeroCouplings, ZeroCoupling, ZeroCovector

RANK_RTOL = 1e-10
NULL_RTOL = 1e-10
MIN_NONNULL_Q = 0.1


def eta(D: int) -> np.ndarray:
    g = np.eye(D)
    g[0, 0] = -1.0
    return g


def sym_pairs(D: int) -> list[tuple[int, int]]:
    """Index pairs (a <= b) enumerating independent symmetric components."""
    return [(a, b) for a in range(D) for b in range(a, D)]


def sym_dim(D: int) -> int:
    return D * (D + 1) // 2


def pi_from_components(c, D: int) -> np.ndarray:
    """Symmetric matrix from its upper-triangle component vector."""
    c = np.asarray(c, dtype=float).reshape(sym_dim(D))
    P = np.zeros((D, D))
    for k, (a, b) in enumerate(sym_pairs(D)):
        P[a, b] = c[k]
        P[b, a] = c[k]
    return P


def components_from_pi(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    D = P.shape[0]
    return np.array([P[a, b] for a, b in sym_pairs(D)])


def _check_covector(phi, D: int | None = None) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if D is not None and len(phi) != D:
        raise BadParams(f"covector has {len(phi)} components, expected {D}")
    if len(phi) < 4:
        raise BadParams("need spacetime dimension D >= 4")
    if not np.all(np.isfinite(phi)):
        raise BadParams("covector contains non-finite entries")
    if not np.any(phi):
        raise ZeroCovector("surface normal covector is identically zero")
    return phi


def covector_q(phi) -> float:
    phi = np.asarray(phi, dtype=float)
    return float(phi @ eta(len(phi)) @ phi)


def classify_covector(phi) -> str:
    phi = np.asarray(phi, dtype=float)
    scale = float(phi @ phi)
    if abs(covector_q(phi)) < NULL_RTOL * (scale + 1e-300):
        return "NullDirection"
    return "NonNull"


# --- theory-specific discontinuity tensors -------------------------------------------


def gauge_vector(phi, P: np.ndarray) -> np.ndarray:
    """Harmonic-gauge discontinuity 2 pi^{mu nu} phi_mu - pi phi^nu,
    returned with the free index up."""
    phi = np.asarray(phi, dtype=float)
    D = len(phi)
    g = eta(D)
    P_upup = g @ P @ g
    trace = float(np.trace(g @ P))
    phi_up = g @ phi
    return 2.0 * (P_upup @ phi) - trace * phi_up


def einstein_tensor_disc(phi, P: np.ndarray) -> np.ndarray:
    """Leading discontinuity of the Einstein tensor, all indices down,
    assembled term by term with no gauge identities substituted."""
    phi = np.asarray(phi, dtype=float)
    D = len(phi)
    g = eta(D)
    P_mixed = g @ P          # pi^lam_nu
    v = phi @ P_mixed        # phi_lam pi^lam_nu
    Q = float(phi @ g @ phi)
    trace = float(np.trace(P_mixed))
    phiphi_pi = float(phi @ g @ P @ g @ phi)
    t = (np.outer(phi, v) + np.outer(v, phi)
         - np.outer(phi, phi) * trace
         - Q * P
         - g * (phiphi_pi - Q * trace))
    return 0.5 * t


def quadratic_tensor_disc(p: float, q: float, phi, P: np.ndarray) -> np.ndarray:
    """Leading discontinuity tensor of curvature-squared gravity with
    couplings (p, q), harmonic gauge already used in its derivation.

    (p, q) multiply, up to normalization, the action p Ric^2 - q R^2;
    the tensor is its leading symbol in harmonic gauge,
    Q [(p/2 - q) tr phi phi - (p/2) Q pi - (p/4 - q) Q tr g].  Its
    g-trace, Q^2 tr [(D-1) q - p D/4], vanishes at the conformal ratio
    p/q = 4(D-1)/D (p = 3q at D = 4), the Weyl-squared action.  There
    the linearized conformal gauge mode pi = phi phi + Q/(D-2) g
    satisfies the gauge rows and is annihilated for every normal, so
    non-null normals keep a one-dimensional kernel.  PAPER.md does not
    fix this convention; under p Ric^2 + q R^2 the sign of q here would
    flip."""
    phi = np.asarray(phi, dtype=float)
    D = len(phi)
    g = eta(D)
    Q = float(phi @ g @ phi)
    trace = float(np.trace(g @ P))
    inner = (0.5 * (p - 2.0 * q) * np.outer(phi, phi) * trace
             - 0.5 * p * Q * P
             - 0.5 * (0.5 * p - 2.0 * q) * Q * trace * g)
    return Q * inner


def fr_tensor_disc(f2: float, phi, P: np.ndarray) -> np.ndarray:
    """Leading discontinuity tensor of an f(R) action, proportional to
    the second derivative of f at the background curvature."""
    phi = np.asarray(phi, dtype=float)
    D = len(phi)
    g = eta(D)
    Q = float(phi @ g @ phi)
    trace = float(np.trace(g @ P))
    phiphi_pi = float(phi @ g @ P @ g @ phi)
    return (Q * g - np.outer(phi, phi)) * (phiphi_pi - Q * trace) * f2


# --- operator assembly ----------------------------------------------------------------


def _assemble(phi, D: int, tensor_fn) -> np.ndarray:
    phi = _check_covector(phi, D)
    pairs = sym_pairs(D)
    n = sym_dim(D)
    op = np.zeros((D + n, n))
    for k in range(n):
        c = np.zeros(n)
        c[k] = 1.0
        P = pi_from_components(c, D)
        op[:D, k] = gauge_vector(phi, P)
        t = tensor_fn(phi, P)
        op[D:, k] = [t[a, b] for a, b in pairs]
    return op


def einstein_operator(phi, D: int = 4) -> np.ndarray:
    """Stacked gauge + Einstein discontinuity operator,
    shape (D + D(D+1)/2, D(D+1)/2)."""
    return _assemble(phi, D, einstein_tensor_disc)


def quadratic_operator(p: float, q: float, phi, D: int = 4) -> np.ndarray:
    if p == 0.0 and q == 0.0:
        raise ZeroCouplings("couplings (p, q) = (0, 0) leave no equations")
    return _assemble(phi, D,
                     lambda f, P: quadratic_tensor_disc(p, q, f, P))


def fr_operator(f2: float, phi, D: int = 4) -> np.ndarray:
    if f2 == 0.0:
        raise ZeroCoupling("f'' = 0 degenerates to the Einstein case; "
                           "use einstein_operator")
    return _assemble(phi, D, lambda f, P: fr_tensor_disc(f2, f, P))


# --- kernel analysis -------------------------------------------------------------------


def _row_normalized(op: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit norm.  The gauge rows are linear
    in the covector while the equation rows carry higher powers, so
    without this the singular-value threshold would depend on the
    covector's overall scale; the kernel itself is untouched."""
    op = np.asarray(op, dtype=float)
    norms = np.linalg.norm(op, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return op / safe


@dataclass(frozen=True)
class KernelReport:
    kernel_dim: int
    singular_values: np.ndarray
    classification: str

    @classmethod
    def from_operator(cls, op: np.ndarray, phi) -> "KernelReport":
        dim, sv = _kernel(op)
        return cls(kernel_dim=dim, singular_values=sv,
                   classification=classify_covector(phi))


def _kernel(op: np.ndarray) -> tuple[int, np.ndarray]:
    """Numerical kernel dimension of the row-normalized operator, with
    its singular values."""
    sv = np.linalg.svd(_row_normalized(op), compute_uv=False)
    s_max = float(sv[0]) if len(sv) else 0.0
    return int(np.sum(sv < RANK_RTOL * (s_max + 1e-300))), sv


def kernel_dim(op: np.ndarray) -> int:
    return _kernel(op)[0]


def einstein_trace_coeff(D: int) -> float:
    """Coefficient c(D) in trace(delta G) = c(D) Q pi for gauge-bound
    discontinuities.  Derived, not fitted: trace(delta G) =
    (1 - D/2) delta R with delta R = phi phi pi - Q pi, and the harmonic
    gauge sets phi phi pi = Q pi / 2, so c(D) = (D - 2)/4."""
    return (D - 2.0) / 4.0


# --- gauge projection and contraction identities ---------------------------------------


def gauge_rows(phi, D: int) -> np.ndarray:
    phi = _check_covector(phi, D)
    n = sym_dim(D)
    rows = np.zeros((D, n))
    for k in range(n):
        c = np.zeros(n)
        c[k] = 1.0
        rows[:, k] = gauge_vector(phi, pi_from_components(c, D))
    return rows


def gauge_project(phi, P: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a symmetric discontinuity onto the
    subspace satisfying the gauge constraint."""
    phi = np.asarray(phi, dtype=float)
    D = len(phi)
    rows = gauge_rows(phi, D)
    c = components_from_pi(P)
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > RANK_RTOL * (float(sv[0]) + 1e-300)))
    null_basis = vt[rank:]
    return pi_from_components(null_basis.T @ (null_basis @ c), D)


def identity_checks(phi, P: np.ndarray) -> tuple[float, float]:
    """Residuals of the two contraction identities implied by the gauge
    constraint: the symmetric phi-contraction combination and the
    double-contraction half-trace relation.  Both are normalized by the
    natural magnitude |phi|^2 max|pi|."""
    phi = np.asarray(phi, dtype=float)
    P = np.asarray(P, dtype=float)
    D = len(phi)
    g = eta(D)
    v = phi @ (g @ P)
    trace = float(np.trace(g @ P))
    Q = float(phi @ g @ phi)
    phiphi_pi = float(phi @ g @ P @ g @ phi)
    scale = float(phi @ phi) * (np.max(np.abs(P)) + 1e-300)
    first = np.outer(phi, v) + np.outer(v, phi) - np.outer(phi, phi) * trace
    res1 = float(np.max(np.abs(first))) / scale
    res2 = abs(phiphi_pi - 0.5 * Q * trace) / scale
    return res1, res2


# --- Monte-Carlo survey ------------------------------------------------------------------


def random_null_covector(rng: np.random.Generator, D: int) -> np.ndarray:
    while True:
        v = rng.uniform(-1.0, 1.0, size=D - 1)
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return np.concatenate([[norm], v])


def random_nonnull_covector(rng: np.random.Generator, D: int) -> np.ndarray:
    while True:
        phi = rng.uniform(-1.0, 1.0, size=D)
        if abs(covector_q(phi)) > MIN_NONNULL_Q:
            return phi


def _histogram(dims: list[int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for d in sorted(set(dims)):
        out[str(d)] = dims.count(d)
    return out


def theory_operator_factory(theory: str, D: int, p: float = 1.0,
                            q: float = 0.0, f2: float = 1.0):
    theory = theory.lower()
    if theory == "einstein":
        return lambda phi: einstein_operator(phi, D)
    if theory == "quadratic":
        return lambda phi: quadratic_operator(p, q, phi, D)
    if theory == "fr":
        return lambda phi: fr_operator(f2, phi, D)
    raise BadParams(f"unknown gravity theory '{theory}'; expected "
                    "einstein, quadratic, or fr")


def kernel_survey(theory: str, D: int, trials: int,
                  rng: np.random.Generator, p: float = 1.0,
                  q: float = 0.0, f2: float = 1.0) -> dict:
    """Kernel-dimension histograms over random null and non-null
    surface normals for one theory."""
    if trials < 1:
        raise BadParams("survey needs at least one trial")
    factory = theory_operator_factory(theory, D, p=p, q=q, f2=f2)
    null_dims = []
    nonnull_dims = []
    for _ in range(trials):
        null_dims.append(kernel_dim(factory(random_null_covector(rng, D))))
        nonnull_dims.append(
            kernel_dim(factory(random_nonnull_covector(rng, D))))
    report = {
        "theory": theory.lower(),
        "D": int(D),
        "trials": int(trials),
        "null_kernel_dims": _histogram(null_dims),
        "nonnull_kernel_dims": _histogram(nonnull_dims),
    }
    if theory.lower() == "quadratic":
        report["p"] = float(p)
        report["q"] = float(q)
    if theory.lower() == "fr":
        report["f2"] = float(f2)
    return report


# --- probe record -------------------------------------------------------------------------


@dataclass(frozen=True)
class GravityProbe:
    """One discontinuity experiment: a surface normal, a symmetric
    discontinuity, and the theory it is probed against."""

    D: int
    phi: np.ndarray
    pi: np.ndarray
    theory: str
    Q: float
    trace: float

    @classmethod
    def build(cls, phi, pi, theory: str = "einstein") -> "GravityProbe":
        phi = _check_covector(phi)
        D = len(phi)
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (D, D):
            raise BadParams(f"discontinuity tensor has shape {pi.shape}, "
                            f"expected ({D}, {D})")
        if not np.allclose(pi, pi.T, atol=1e-12):
            raise BadParams("discontinuity tensor must be symmetric")
        g = eta(D)
        return cls(D=D, phi=phi, pi=pi, theory=theory,
                   Q=float(phi @ g @ phi), trace=float(np.trace(g @ pi)))

    def __post_init__(self):
        g = eta(self.D)
        scale = float(self.phi @ self.phi) + 1e-300
        if abs(self.Q - float(self.phi @ g @ self.phi)) > 1e-10 * scale:
            raise BadParams("stored Q does not match the covector")
        t_scale = float(np.max(np.abs(self.pi))) + 1e-300
        if abs(self.trace - float(np.trace(g @ self.pi))) > 1e-10 * t_scale:
            raise BadParams("stored trace does not match the tensor")
