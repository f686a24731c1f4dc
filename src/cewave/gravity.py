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
entries; stacked SVDs rank them.  Each tensor formula takes an entry
selection at = (a, b) and then computes only those entries, (T, n, n)
instead of (T, n, D, D), by the same elementwise operations, so they
equal the full tensor's bit for bit.  eta, the triangle indices, the
basis and its contractions with eta are built once per D and kept
read-only in small caches.

A survey draws, checks and contracts its normals as arrays: the
uniforms of up to 128 normals per call, re-laid after a rejection so the
generator yields the values a per-normal loop would (see
``_draw_normals``).  Q is one
dot product per normal, ``_q``, stacked as a matmul of (1, D) rows and
(D, 1) columns: on null normals it is ~1e-16 rounding noise that sets
the curvature-squared null kernel, and a batched contraction (einsum,
a sum over an axis) rounds some of it to 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadParams, InternalCheckError, NumericalError,
                     ZeroCouplings, ZeroCoupling, ZeroCovector)
from .jets import TINY

RANK_RTOL = 1e-10
NULL_RTOL = 1e-10
MIN_NONNULL_Q = 0.1
GAUGE_MODE_RTOL = 1e-10
# smallest row norm whose squared entries sum in the normal double range
_MIN_ROW_NORM = float(np.sqrt(np.finfo(float).tiny))
_BLOCK = 16   # normals per survey step; bounds the (T, n, n) entry arrays
_MIN_NULL_NORM = 1e-3   # a null normal's spatial part is redrawn below this
_FRAMES = 8   # dimensions whose eta and symmetric frame stay cached
_DRAW_SLOTS = 128   # normals per draw call; bounds the re-laying per rejection
# a survey takes about 1 ms per trial at D = 10 (one Xeon core), so
# cli.MAX_TRIALS trials at D = MAX_DIMENSION end in under two minutes
MAX_DIMENSION = 10


@lru_cache(maxsize=_FRAMES)
def eta(D: int) -> np.ndarray:
    """The flat metric diag(-1, 1, ..., 1), built once per D; read-only."""
    g = np.eye(D)
    g[0, 0] = -1.0
    g.setflags(write=False)
    return g


def pi_from_components(c, D: int) -> np.ndarray:
    """Symmetric matrices from upper-triangle component vectors (..., n)."""
    c = np.asarray(c, dtype=float)
    a, b = np.triu_indices(D)
    P = np.zeros(c.shape[:-1] + (D, D))
    P[..., a, b] = P[..., b, a] = c
    return P


@lru_cache(maxsize=_FRAMES)
def _frame(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle indices (a, b) and the symmetric basis stack
    (n, D, D) of dimension D, built once per D; read-only."""
    a, b = np.triu_indices(D)
    basis = pi_from_components(np.eye(len(a)), D)
    for x in (a, b, basis):
        x.setflags(write=False)
    return a, b, basis


def _check_dimension(D: int) -> None:
    if D < 4:
        raise BadParams("need spacetime dimension D >= 4")
    if D > MAX_DIMENSION:
        raise BadParams(f"spacetime dimension D (--D) is {D}; at most "
                        f"{MAX_DIMENSION} is taken")


def _check_normals(phis: np.ndarray) -> np.ndarray:
    """Normals phis (T, D), raising for the first one that is non-finite
    or identically zero."""
    nonfinite = ~np.isfinite(phis).all(axis=-1)
    zero = ~phis.any(axis=-1)
    first = np.argmax(nonfinite | zero)
    if nonfinite[first]:
        raise BadParams("covector contains non-finite entries")
    if zero[first]:
        raise ZeroCovector("surface normal covector is identically zero")
    return phis


def _check_covector(phi, D: int | None = None) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).reshape(-1)
    if D is not None and len(phi) != D:
        raise BadParams(f"covector has {len(phi)} components, expected {D}")
    _check_dimension(len(phi))
    return _check_normals(phi[None])[0]


def _q(phi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q = phi eta phi of normals phi (..., D), shaped (..., 1, 1): per
    normal a (1, D) @ (D, 1) product, which numpy hands to the same dot
    as phi @ g @ phi."""
    return (phi @ g)[..., None, :] @ phi[..., :, None]


def covector_q(phi) -> float:
    phi = _check_covector(phi)
    return float(_q(phi, eta(len(phi)))[0, 0])


def classify_covector(phi) -> str:
    phi = _check_covector(phi)
    scale = float(phi @ phi)
    if abs(covector_q(phi)) < NULL_RTOL * (scale + TINY):
        return "NullDirection"
    return "NonNull"


# --- theory-specific discontinuity tensors -------------------------------------------
# Each takes phi (..., D) and P (..., D, D) with broadcasting leading axes;
# given at = (a, b) it returns only the tensor's entries [..., a, b].


def _outer(x, y, at=None):
    """x y^T (..., D, D), or its entries x_a y_b when at = (a, b) selects
    them."""
    if at is None:
        return x[..., :, None] * y[..., None, :]
    return x[..., at[0]] * y[..., at[1]]


def _entries(x, at):
    """x (..., D, D), or its entries x[..., a, b] when at = (a, b)."""
    return x if at is None else x[..., at[0], at[1]]


def _eta_contractions(g, P):
    """g P, its trace pi^lam_lam and g P g."""
    gP = g @ P
    return gP, np.trace(gP, axis1=-2, axis2=-1), gP @ g


@lru_cache(maxsize=_FRAMES)
def _basis_contractions(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_eta_contractions of the symmetric basis stack (n, D, D), which
    every survey block contracts, built once per D; read-only."""
    out = _eta_contractions(eta(D), _frame(D)[2])
    for x in out:
        x.setflags(write=False)
    return out


def _contractions(g, P):
    """_eta_contractions of P, taken from the per-D cache when P is the
    symmetric basis stack."""
    if P is _frame(len(g))[2]:
        return _basis_contractions(len(g))
    return _eta_contractions(g, P)


def _scalars(phi, P, at=None):
    """phi, eta, Q (one dot per normal, ``_q``) and pi^lam_lam, the
    scalars shaped (..., 1, 1) to broadcast against tensors, or (..., 1)
    against their entries at = (a, b)."""
    phi = np.asarray(phi, dtype=float)
    g = eta(phi.shape[-1])
    Q, trace = _q(phi, g), _contractions(g, P)[1][..., None, None]
    if at is not None:
        Q, trace = Q[..., 0], trace[..., 0]
    return phi, g, Q, trace


def _phiphi_pi(phi, g, P, at=None):
    """phi phi pi = up P up^T of the upper-index normal up, shaped as
    the ``_scalars``."""
    up = (phi @ g)[..., None, :]
    s = up @ P @ np.swapaxes(up, -1, -2)
    return s if at is None else s[..., 0]


def _phi_pi_terms(phi, P, g, trace, at=None):
    """phi v + v phi - phi phi pi^lam_lam, v_nu = phi_lam pi^lam_nu."""
    v = (phi[..., None, :] @ _contractions(g, P)[0])[..., 0, :]
    return (_outer(phi, v, at) + _outer(v, phi, at)
            - _outer(phi, phi, at) * trace)


def gauge_vector(phi, P: np.ndarray) -> np.ndarray:
    """Harmonic-gauge discontinuity 2 pi^{mu nu} phi_mu - pi phi^nu,
    returned with the free index up."""
    phi = np.asarray(phi, dtype=float)
    g = eta(phi.shape[-1])
    _, trace, gPg = _contractions(g, P)
    return 2.0 * (gPg @ phi[..., None])[..., 0] - trace[..., None] * (phi @ g)


def einstein_tensor_disc(phi, P: np.ndarray, at=None) -> np.ndarray:
    """Leading discontinuity of the Einstein tensor, all indices down,
    assembled term by term with no gauge identities substituted."""
    phi, g, Q, trace = _scalars(phi, P, at)
    t = (_phi_pi_terms(phi, P, g, trace, at)
         - Q * _entries(P, at)
         - _entries(g, at) * (_phiphi_pi(phi, g, P, at) - Q * trace))
    return 0.5 * t


def quadratic_tensor_disc(p: float, q: float, phi, P: np.ndarray,
                          at=None) -> np.ndarray:
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
    phi, g, Q, trace = _scalars(phi, P, at)
    inner = (0.5 * (p - 2.0 * q) * _outer(phi, phi, at) * trace
             - 0.5 * p * Q * _entries(P, at)
             - 0.5 * (0.5 * p - 2.0 * q) * Q * trace * _entries(g, at))
    return Q * inner


def fr_tensor_disc(f2: float, phi, P: np.ndarray, at=None) -> np.ndarray:
    """Leading discontinuity tensor of an f(R) action, proportional to
    the second derivative of f at the background curvature."""
    phi, g, Q, trace = _scalars(phi, P, at)
    return ((Q * _entries(g, at) - _outer(phi, phi, at))
            * (_phiphi_pi(phi, g, P, at) - Q * trace) * f2)


# --- operator assembly ----------------------------------------------------------------


def _theory(theory: str, p: float = 1.0, q: float = 0.0, f2: float = 1.0):
    """(tensor(phi, P, at=None), whether its rows must annihilate
    pure-gauge modes; not curvature-squared ones, whose tensor substitutes
    harmonic gauge)."""
    theory = theory.lower()
    if theory == "einstein":
        return einstein_tensor_disc, True
    if theory == "quadratic":
        if not (np.isfinite(p) and np.isfinite(q)):
            raise BadParams(f"couplings (p, q) = ({p:g}, {q:g}) must be "
                            "finite")
        if p == 0.0 and q == 0.0:
            raise ZeroCouplings("couplings (p, q) = (0, 0) leave no equations")
        return (lambda phi, P, at=None:
                quadratic_tensor_disc(p, q, phi, P, at)), False
    if theory == "fr":
        if not np.isfinite(f2):
            raise BadParams(f"f'' = {f2:g} must be finite")
        if f2 == 0.0:
            raise ZeroCoupling("f'' = 0 degenerates to the Einstein case; "
                               "use einstein_operator")
        return (lambda phi, P, at=None: fr_tensor_disc(f2, phi, P, at)), True
    raise BadParams(f"unknown gravity theory '{theory}'; expected "
                    "einstein, quadratic, or fr")


def _gauge_modes(phis: np.ndarray, at=None) -> np.ndarray:
    """Pure-gauge modes phi xi + xi phi of phis (T, D) for the D unit
    vectors xi, (T, D, D, D), or their entries (T, D, n) at = (a, b)."""
    e = np.eye(phis.shape[-1])
    return _outer(phis[:, None], e, at) + _outer(e, phis[:, None], at)


def _check_gauge_modes(phis: np.ndarray, eq: np.ndarray) -> None:
    """Linearized diffeomorphism invariance: equation rows eq (T, n, n)
    annihilate the pure-gauge modes of phis (T, D)."""
    modes = _gauge_modes(phis, _frame(phis.shape[-1])[:2])
    residual = np.abs(eq @ np.swapaxes(modes, 1, 2)).max(axis=(1, 2))
    # the largest entry of the modes is a diagonal phi_i + phi_i
    scale = np.abs(eq).max(axis=(1, 2)) * (2.0 * np.abs(phis).max(axis=-1))
    ratio = residual / scale
    bad = np.flatnonzero(ratio > GAUGE_MODE_RTOL)
    if bad.size:
        i = bad[0]
        raise InternalCheckError(f"equation rows miss the pure-gauge modes"
                                 f" of {phis[i].tolist()}: residual "
                                 f"{ratio[i]:.3g}")


def _operators(tensor, gauge_invariant: bool, phis: np.ndarray) -> np.ndarray:
    """Operators (T, D + n, n) of validated normals phis (T, D)."""
    T, D = phis.shape
    a, b, basis = _frame(D)
    ops = np.empty((T, D + len(a), len(a)))
    ops[:, :D] = np.swapaxes(gauge_vector(phis[:, None], basis), 1, 2)
    ops[:, D:] = np.swapaxes(tensor(phis[:, None], basis, at=(a, b)), 1, 2)
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
    return np.sum(sv < RANK_RTOL * (sv[..., :1] + TINY), axis=-1), sv


def kernel_dim(op: np.ndarray) -> int:
    return int(_kernel(op)[0])


def einstein_trace_coeff(D: int) -> float:
    """Coefficient c(D) in trace(delta G) = c(D) Q pi for gauge-bound
    discontinuities.  Derived, not fitted: trace(delta G) =
    (1 - D/2) delta R with delta R = phi phi pi - Q pi, and the harmonic
    gauge sets phi phi pi = Q pi / 2, so c(D) = (D - 2)/4."""
    return (D - 2.0) / 4.0


# --- Monte-Carlo survey ------------------------------------------------------------------


def _draw_normals(rng: np.random.Generator, D: int,
                  null: np.ndarray) -> np.ndarray:
    """Normals (len(null), D) drawn in order.  Slot i with null[i] takes
    D - 1 uniforms v, redrawn while |v| <= _MIN_NULL_NORM, and gives the
    null normal (|v|, v); any other slot takes D uniforms, redrawn while
    |Q| <= MIN_NONNULL_Q.

    The uniforms of up to _DRAW_SLOTS open slots come from one call,
    laid out as if no candidate were rejected.  The slots before the
    first rejection are accepted; the values after it are re-laid from
    the rejected slot on, and only the shortfall is drawn.  So the
    generator yields exactly the values a per-slot loop would, and ends
    in the same state."""
    null = np.asarray(null, dtype=bool)
    if D < 1 + null.any():
        # with nothing to draw every candidate would be rejected
        raise BadParams(f"a random {'null ' if null.any() else ''}normal"
                        f" needs dimension D >= {1 + null.any()}")
    g = eta(D)
    out = np.empty((len(null), D))
    done, spare = 0, np.empty(0)
    while done < len(null):
        todo = null[done:done + _DRAW_SLOTS]
        ends = np.cumsum(D - todo)
        short = ends[-1] - len(spare)
        spare = np.concatenate([spare, rng.uniform(-1.0, 1.0, size=short)])
        # the D values that end where each slot does; column 0 of a null
        # slot, the value before it, is replaced by its norm
        cand = spare[np.maximum(ends[:, None] - D + np.arange(D), 0)]
        v = cand[todo, 1:]
        norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        cand[todo, 0] = norms
        ok = np.empty(len(todo), dtype=bool)
        ok[todo] = norms > _MIN_NULL_NORM
        ok[~todo] = np.abs(_q(cand[~todo], g)[:, 0, 0]) > MIN_NONNULL_Q
        took = len(todo) if ok.all() else int(np.argmin(ok))
        out[done:done + took] = cand[:took]
        spare = spare[ends[took]:] if took < len(todo) else np.empty(0)
        done += took
    return out


def random_null_covector(rng: np.random.Generator, D: int) -> np.ndarray:
    return _draw_normals(rng, D, [True])[0]


def random_nonnull_covector(rng: np.random.Generator, D: int) -> np.ndarray:
    return _draw_normals(rng, D, [False])[0]


def _survey_normals(rng: np.random.Generator, D: int,
                    trials: int) -> np.ndarray:
    """A null then a non-null normal per trial, (2 trials, D), checked."""
    return _check_normals(_draw_normals(rng, D, np.tile([True, False],
                                                        trials)))


def _histogram(dims: np.ndarray) -> dict[str, int]:
    counts = Counter(dims.tolist())
    return {str(d): counts[d] for d in sorted(counts)}


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
    phis = _survey_normals(rng, D, trials)
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
