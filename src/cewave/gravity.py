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

The operator is linear in pi, so broadcasting tensor formulas turn T
normals (T, 1, D) and the symmetric basis stack (n, D, D) into
operators (T, D + n, n): D gauge rows, then n upper-triangle tensor
entries; stacked SVDs rank them.  Q is one dot product per normal:
on null normals it is ~1e-16 rounding noise that sets the curvature-
squared null kernel, and a batched contraction rounds some of it to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadParams, InternalCheckError, NumericalError,
                     ZeroCouplings, ZeroCoupling, ZeroCovector)

RANK_RTOL = 1e-10
NULL_RTOL = 1e-10
MIN_NONNULL_Q = 0.1
GAUGE_MODE_RTOL = 1e-10
# smallest row norm whose squared entries sum in the normal double range
_MIN_ROW_NORM = float(np.sqrt(np.finfo(float).tiny))
_BLOCK = 16   # normals per survey step; bounds the (T, n, D, D) temporaries


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
    """Symmetric matrices from upper-triangle component vectors (..., n)."""
    c = np.asarray(c, dtype=float)
    a, b = np.triu_indices(D)
    P = np.zeros(c.shape[:-1] + (D, D))
    P[..., a, b] = P[..., b, a] = c
    return P


def components_from_pi(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    return P[(...,) + np.triu_indices(P.shape[-1])]


def _check_dimension(D: int) -> None:
    if D < 4:
        raise BadParams("need spacetime dimension D >= 4")


def _check_covector(phi, D: int | None = None) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if D is not None and len(phi) != D:
        raise BadParams(f"covector has {len(phi)} components, expected {D}")
    _check_dimension(len(phi))
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
# Each takes phi (..., D) and P (..., D, D) with broadcasting leading axes.


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _scalars(phi, P):
    """phi, eta, and Q (one dot per normal), pi^lam_lam and phi phi pi,
    each shaped (..., 1, 1) to broadcast against tensors."""
    phi = np.asarray(phi, dtype=float)
    g = eta(phi.shape[-1])
    Q = [covector_q(f) for f in phi.reshape(-1, len(g))]
    up = (phi @ g)[..., None, :]
    return (phi, g, np.reshape(Q, phi.shape[:-1] + (1, 1)),
            np.trace(g @ P, axis1=-2, axis2=-1)[..., None, None],
            up @ P @ np.swapaxes(up, -1, -2))


def _phi_pi_terms(phi, P, g, trace):
    """phi v + v phi - phi phi pi^lam_lam, v_nu = phi_lam pi^lam_nu."""
    v = (phi[..., None, :] @ (g @ P))[..., 0, :]
    return _outer(phi, v) + _outer(v, phi) - _outer(phi, phi) * trace


def gauge_vector(phi, P: np.ndarray) -> np.ndarray:
    """Harmonic-gauge discontinuity 2 pi^{mu nu} phi_mu - pi phi^nu,
    returned with the free index up."""
    phi = np.asarray(phi, dtype=float)
    g = eta(phi.shape[-1])
    trace = np.trace(g @ P, axis1=-2, axis2=-1)[..., None]
    return 2.0 * (g @ P @ g @ phi[..., None])[..., 0] - trace * (phi @ g)


def einstein_tensor_disc(phi, P: np.ndarray) -> np.ndarray:
    """Leading discontinuity of the Einstein tensor, all indices down,
    assembled term by term with no gauge identities substituted."""
    phi, g, Q, trace, phiphi_pi = _scalars(phi, P)
    t = (_phi_pi_terms(phi, P, g, trace)
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
    phi, g, Q, trace, _ = _scalars(phi, P)
    inner = (0.5 * (p - 2.0 * q) * _outer(phi, phi) * trace
             - 0.5 * p * Q * P
             - 0.5 * (0.5 * p - 2.0 * q) * Q * trace * g)
    return Q * inner


def fr_tensor_disc(f2: float, phi, P: np.ndarray) -> np.ndarray:
    """Leading discontinuity tensor of an f(R) action, proportional to
    the second derivative of f at the background curvature."""
    phi, g, Q, trace, phiphi_pi = _scalars(phi, P)
    return (Q * g - _outer(phi, phi)) * (phiphi_pi - Q * trace) * f2


# --- operator assembly ----------------------------------------------------------------


def _theory(theory: str, p: float = 1.0, q: float = 0.0, f2: float = 1.0):
    """(tensor(phi, P), whether its rows must annihilate pure-gauge modes;
    not curvature-squared ones, whose tensor substitutes harmonic gauge)."""
    theory = theory.lower()
    if theory == "einstein":
        return einstein_tensor_disc, True
    if theory == "quadratic":
        if not (np.isfinite(p) and np.isfinite(q)):
            raise BadParams(f"couplings (p, q) = ({p:g}, {q:g}) must be "
                            "finite")
        if p == 0.0 and q == 0.0:
            raise ZeroCouplings("couplings (p, q) = (0, 0) leave no equations")
        return (lambda phi, P: quadratic_tensor_disc(p, q, phi, P)), False
    if theory == "fr":
        if not np.isfinite(f2):
            raise BadParams(f"f'' = {f2:g} must be finite")
        if f2 == 0.0:
            raise ZeroCoupling("f'' = 0 degenerates to the Einstein case; "
                               "use einstein_operator")
        return (lambda phi, P: fr_tensor_disc(f2, phi, P)), True
    raise BadParams(f"unknown gravity theory '{theory}'; expected "
                    "einstein, quadratic, or fr")


def _check_gauge_modes(phis: np.ndarray, eq: np.ndarray) -> None:
    """Linearized diffeomorphism invariance: equation rows eq (T, n, n)
    annihilate the pure-gauge modes phi xi + xi phi of phis (T, D)."""
    e = np.eye(phis.shape[-1])
    modes = components_from_pi(_outer(phis[:, None], e)
                               + _outer(e, phis[:, None]))   # (T, D, n)
    residual = np.abs(eq @ np.swapaxes(modes, 1, 2)).max(axis=(1, 2))
    scale = np.abs(eq).max(axis=(1, 2)) * np.abs(modes).max(axis=(1, 2))
    for phi, r in zip(phis, residual / scale):
        if r > GAUGE_MODE_RTOL:
            raise InternalCheckError(f"equation rows miss the pure-gauge modes"
                                     f" of {phi.tolist()}: residual {r:.3g}")


def _operators(tensor, gauge_invariant: bool, phis: np.ndarray) -> np.ndarray:
    """Operators (T, D + n, n) of validated normals phis (T, D)."""
    T, D = phis.shape
    basis = pi_from_components(np.eye(sym_dim(D)), D)
    a, b = np.triu_indices(D)
    ops = np.empty((T, D + len(a), len(a)))
    ops[:, :D] = np.swapaxes(gauge_vector(phis[:, None], basis), 1, 2)
    ops[:, D:] = np.swapaxes(tensor(phis[:, None], basis)[..., a, b], 1, 2)
    if gauge_invariant:
        _check_gauge_modes(phis, ops[:, D:])
    return ops


def einstein_operator(phi, D: int = 4) -> np.ndarray:
    """Stacked gauge + Einstein discontinuity operator,
    shape (D + D(D+1)/2, D(D+1)/2)."""
    return _operators(*_theory("einstein"), _check_covector(phi, D)[None])[0]


def quadratic_operator(p: float, q: float, phi, D: int = 4) -> np.ndarray:
    return _operators(*_theory("quadratic", p=p, q=q),
                      _check_covector(phi, D)[None])[0]


def fr_operator(f2: float, phi, D: int = 4) -> np.ndarray:
    return _operators(*_theory("fr", f2=f2), _check_covector(phi, D)[None])[0]


# --- kernel analysis -------------------------------------------------------------------


def _row_normalized(op: np.ndarray) -> np.ndarray:
    """Scale each nonzero row to unit norm.  The gauge rows are linear
    in the covector while the equation rows carry higher powers, so
    without this the singular-value threshold would depend on the
    covector's overall scale; the kernel itself is untouched.  A
    nonzero row whose norm overflows or underflows (huge or tiny
    couplings) cannot be normalized and raises NumericalError: dividing
    by an infinite or zero norm would change the kernel."""
    op = np.asarray(op, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(op, axis=-1, keepdims=True)
    in_range = (norms >= _MIN_ROW_NORM) & (norms < np.inf)
    if (~in_range & (op != 0.0).any(axis=-1, keepdims=True)).any():
        raise NumericalError("an operator row's norm leaves the double "
                             "range; the couplings are too large or too "
                             "small to normalize")
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
        return cls(kernel_dim=int(dim), singular_values=sv,
                   classification=classify_covector(phi))


def _kernel(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerical kernel dimensions of row-normalized operators
    (..., m, n), with their singular values, in one stacked SVD."""
    sv = np.linalg.svd(_row_normalized(op), compute_uv=False)
    return np.sum(sv < RANK_RTOL * (sv[..., :1] + 1e-300), axis=-1), sv


def kernel_dim(op: np.ndarray) -> int:
    return int(_kernel(op)[0])


def einstein_trace_coeff(D: int) -> float:
    """Coefficient c(D) in trace(delta G) = c(D) Q pi for gauge-bound
    discontinuities.  Derived, not fitted: trace(delta G) =
    (1 - D/2) delta R with delta R = phi phi pi - Q pi, and the harmonic
    gauge sets phi phi pi = Q pi / 2, so c(D) = (D - 2)/4."""
    return (D - 2.0) / 4.0


# --- gauge projection ------------------------------------------------------------------


def gauge_rows(phi, D: int) -> np.ndarray:
    phi = _check_covector(phi, D)
    return gauge_vector(phi, pi_from_components(np.eye(sym_dim(D)), D)).T


def gauge_project(phi, P: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a symmetric discontinuity onto the
    subspace satisfying the gauge constraint."""
    _, sv, vt = np.linalg.svd(gauge_rows(phi, len(phi)))
    rank = int(np.sum(sv > RANK_RTOL * (float(sv[0]) + 1e-300)))
    null_basis = vt[rank:]
    c = null_basis.T @ (null_basis @ components_from_pi(P))
    return pi_from_components(c, len(phi))


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


def _histogram(dims: np.ndarray) -> dict[str, int]:
    values, counts = np.unique(dims, return_counts=True)
    return {str(d): int(c) for d, c in zip(values, counts)}


def kernel_survey(theory: str, D: int, trials: int,
                  rng: np.random.Generator, p: float = 1.0,
                  q: float = 0.0, f2: float = 1.0) -> dict:
    """Kernel-dimension histograms over random null and non-null surface
    normals for one theory, drawn first (a null then a non-null one per
    trial), then assembled and solved in batches of _BLOCK normals."""
    if trials < 1:
        raise BadParams("survey needs at least one trial")
    spec, theory = _theory(theory, p, q, f2), theory.lower()
    # before any draw: a null normal needs at least one spatial component
    _check_dimension(D)
    phis = [draw(rng, D) for _ in range(trials)
            for draw in (random_null_covector, random_nonnull_covector)]
    phis = np.array([_check_covector(phi, D) for phi in phis])
    # a coupling near the double range can overflow the operators;
    # _row_normalized turns that into a NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        dims = np.concatenate([_kernel(_operators(*spec,
                                                  phis[s:s + _BLOCK]))[0]
                               for s in range(0, len(phis), _BLOCK)])
    report = {
        "theory": theory,
        "D": int(D),
        "trials": int(trials),
        "null_kernel_dims": _histogram(dims[0::2]),
        "nonnull_kernel_dims": _histogram(dims[1::2]),
    }
    report.update({"quadratic": {"p": float(p), "q": float(q)},
                   "fr": {"f2": float(f2)}}.get(theory, {}))
    return report
