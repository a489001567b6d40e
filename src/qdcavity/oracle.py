"""Exact open-system reference on a truncated photon Hilbert space.

A two-level electron, a two-level hole and a Fock-truncated cavity mode
evolve under a Lindblad master equation. In the frame rotating at the
cavity frequency the Hamiltonian is

    H = (detuning / 2) (c+ c + b+ b) - i g (b+ c+ a - a+ c b)

with dissipators chosen to mirror the rate structure of the truncated
hierarchy: photon loss (collapse a, rate 2 gamma_c), incoherent pumping
(collapses c+ and b+, rate pump each), nonradiative carrier loss
(collapses c and b, rate gamma_nr), joint electron-hole background
recombination (collapse c b, rate gamma_nl) and pure dephasing (collapse
c+ c + b+ b, rate gamma_deph / 2, which damps the interband coherence at
exactly gamma_deph since that coherence changes the total carrier number
by two).

Two modelling differences against the hierarchy are intrinsic and
documented rather than hidden: the incoherent pump also damps coherences at
pump/2, which the hierarchy's polarization equation does not contain, and
the joint-collapse recombination evolves the full correlated pair number
where the hierarchy keeps the factorized product n_e n_h. Exact agreement
therefore holds only at g = 0 with gamma_nl = 0; elsewhere agreement bands
are empirical.

Superoperators use row-major (C-order) vectorization: vec(A rho B) =
(A kron B^T) vec(rho). The steady state comes from a sparse LU
factorization of the generator with the trace row substituted for its
first row, at every cutoff.

Basis ordering: electron occupation (2) x hole occupation (2) x photon
number (n_max + 1), index = (2 e + h) (n_max + 1) + n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply, splu

from .errors import OracleError, SingularSteadyState, TruncationTooSmall
from .model import ModelParams, validate
from .observables import PHOTON_FLOOR, Observables

# Population allowed in the top Fock level before the truncation is rejected.
TOP_LEVEL_LIMIT = 1e-8

DEFAULT_N_MAX = 8
N_MAX_CAP = 64


@dataclass(frozen=True)
class HilbertSpace:
    """Photon-number truncation; carriers are always two-level."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 4 * (self.n_max + 1)


def state_index(space: HilbertSpace, n_e: int, n_h: int, n_photon: int) -> int:
    """Basis index of the product state |n_e, n_h, n_photon>."""
    if n_e not in (0, 1) or n_h not in (0, 1):
        raise ValueError("carrier occupations must be 0 or 1")
    if not 0 <= n_photon <= space.n_max:
        raise ValueError(f"photon number must be in [0, {space.n_max}]")
    return (2 * n_e + n_h) * (space.n_max + 1) + n_photon


class Operators:
    """Dense matrices of the elementary mode operators on the product space."""

    def __init__(self, space: HilbertSpace):
        n_ph = space.n_max + 1
        lower = np.zeros((2, 2), dtype=complex)
        lower[0, 1] = 1.0
        ident2 = np.eye(2, dtype=complex)
        a_ph = np.zeros((n_ph, n_ph), dtype=complex)
        for n in range(1, n_ph):
            a_ph[n - 1, n] = math.sqrt(n)
        ident_ph = np.eye(n_ph, dtype=complex)
        self.space = space
        self.c = np.kron(lower, np.kron(ident2, ident_ph))
        self.b = np.kron(ident2, np.kron(lower, ident_ph))
        self.a = np.kron(ident2, np.kron(ident2, a_ph))
        self.n_e = self.c.conj().T @ self.c
        self.n_h = self.b.conj().T @ self.b
        self.n_photon = self.a.conj().T @ self.a


def build_operators(space: HilbertSpace) -> Operators:
    return Operators(space)


def build_hamiltonian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/ps units; Hermitian by construction."""
    ops = build_operators(space)
    det = params.detuning
    g = params.g
    h_carriers = 0.5 * det * (ops.n_e + ops.n_h)
    pair_creation = ops.b.conj().T @ ops.c.conj().T @ ops.a
    interaction = -1j * g * (pair_creation - pair_creation.conj().T)
    return h_carriers + interaction


def _collapses(params: ModelParams, ops: Operators):
    c_dag = ops.c.conj().T
    b_dag = ops.b.conj().T
    yield ops.a, 2.0 * params.gamma_c
    yield c_dag, params.pump
    yield b_dag, params.pump
    yield ops.c, params.gamma_nr
    yield ops.b, params.gamma_nr
    yield ops.c @ ops.b, params.gamma_nl
    yield ops.n_e + ops.n_h, 0.5 * params.gamma_deph


def build_liouvillian(params: ModelParams, space: HilbertSpace):
    """Sparse (dim^2 x dim^2) generator of d vec(rho) / dt, in 1/ps."""
    validate(params)
    ops = build_operators(space)
    H = sparse.csr_matrix(build_hamiltonian(params, space))
    ident = sparse.identity(space.dim, dtype=complex, format="csr")
    gen = -1j * (sparse.kron(H, ident, format="csr")
                 - sparse.kron(ident, H.T, format="csr"))
    for op, rate in _collapses(params, ops):
        if rate == 0.0:
            continue
        L = sparse.csr_matrix(op)
        LdL = sparse.csr_matrix(op.conj().T @ op)
        gen = gen + rate * (
            sparse.kron(L, L.conj(), format="csr")
            - 0.5 * sparse.kron(LdL, ident, format="csr")
            - 0.5 * sparse.kron(ident, LdL.T, format="csr")
        )
    return gen.tocsr()


def apply_liouvillian(generator, rho: np.ndarray) -> np.ndarray:
    """d rho / dt for a density matrix under a vectorized generator."""
    dim = rho.shape[0]
    return np.asarray(generator @ rho.reshape(-1)).reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated open-system state."""

    elements: np.ndarray

    def validate(self) -> "DensityMatrix":
        """Check Hermiticity (1e-12), unit trace (1e-10), positivity (-1e-10)."""
        rho = self.elements
        problems = []
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > 1e-12:
            problems.append(f"hermiticity violated by {herm:.3e}")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > 1e-10:
            problems.append(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
        if min_eig < -1e-10:
            problems.append(f"negative eigenvalue {min_eig:.3e}")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    def expectation(self, op: np.ndarray) -> float:
        """<op> for Hermitian op (real part of the trace)."""
        return float(np.trace(op @ self.elements).real)


def basis_density(
    space: HilbertSpace, n_e: int, n_h: int, n_photon: int
) -> np.ndarray:
    """Pure product state |n_e, n_h, n_photon><...| as a density matrix."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    k = state_index(space, n_e, n_h, n_photon)
    rho[k, k] = 1.0
    return rho


def steady_state_density(params: ModelParams, space: HilbertSpace) -> DensityMatrix:
    """Unique stationary state of the generator.

    Solves generator . vec(rho) = 0 by a sparse LU factorization, at every
    cutoff, with the trace row substituted for the first diagonal-element
    row (that row is linearly dependent on the other diagonal rows by trace
    preservation, so nothing is lost). A null space of dimension above one
    leaves the substituted matrix singular and raises SingularSteadyState.
    """
    gen = build_liouvillian(params, space)
    dim = space.dim
    # vec(identity) . vec(rho) = trace(rho).
    trace_row = sparse.identity(dim, dtype=complex).reshape((1, dim * dim))
    system = sparse.vstack([trace_row, gen[1:]], format="csc")
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    try:
        x = splu(system).solve(rhs)
    except RuntimeError as err:
        raise SingularSteadyState(str(err)) from err
    if not np.all(np.isfinite(x)):
        raise SingularSteadyState("factorization returned non-finite entries")
    residual = float(np.max(np.abs(gen @ x)))
    if residual > 1e-8:
        raise SingularSteadyState(
            f"stationarity residual {residual:.3e} exceeds 1e-8"
        )
    rho = x.reshape(dim, dim)
    asymmetry = float(np.max(np.abs(rho - rho.conj().T)))
    if asymmetry > 1e-10:
        raise OracleError(f"steady state asymmetric by {asymmetry:.3e}")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho).validate()


def top_level_population(rho: np.ndarray, space: HilbertSpace) -> float:
    """Total population of the highest retained Fock level."""
    total = 0.0
    for n_e in (0, 1):
        for n_h in (0, 1):
            k = state_index(space, n_e, n_h, space.n_max)
            total += rho[k, k].real
    return total


def oracle_steady_observables(
    params: ModelParams, space: HilbertSpace
) -> Observables:
    """Steady-state figures of merit from the reference model.

    Raises TruncationTooSmall when the top Fock level holds population at or
    above 1e-8; callers retry with a larger n_max (see
    steady_observables_auto).
    """
    rho = steady_state_density(params, space)
    top = top_level_population(rho.elements, space)
    if top >= TOP_LEVEL_LIMIT:
        raise TruncationTooSmall(space.n_max, top)
    ops = build_operators(space)
    n_p = rho.expectation(ops.n_photon)
    two = rho.expectation(ops.n_photon @ ops.n_photon - ops.n_photon)
    g2 = two / (n_p * n_p) if n_p > PHOTON_FLOOR else None
    return Observables(
        photon_number=n_p,
        two_photon=two,
        g2_zero=g2,
        output_rate=2.0 * params.gamma_c * n_p,
    )


def steady_observables_auto(
    params: ModelParams,
    n_max: int = DEFAULT_N_MAX,
    n_max_cap: int = N_MAX_CAP,
):
    """oracle_steady_observables with n_max doubling on truncation failure.

    Returns (observables, n_max_used). Raises TruncationTooSmall if the cap
    itself is still too small.
    """
    n = n_max
    while True:
        try:
            return oracle_steady_observables(params, HilbertSpace(n)), n
        except TruncationTooSmall:
            if 2 * n > n_max_cap:
                raise
            n = 2 * n


def propagate(
    rho0: np.ndarray,
    params: ModelParams,
    space: HilbertSpace,
    times,
) -> np.ndarray:
    """Density matrices at the requested times, starting from rho0 at t = 0.

    times must be non-negative and strictly increasing. Returns an array of
    shape (len(times), dim, dim).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be non-negative and strictly increasing")
    gen = build_liouvillian(params, space)
    dim = space.dim
    vec = rho0.reshape(-1).astype(complex)
    out = np.empty((times.size, dim, dim), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        dt = float(t) - t_prev
        if dt > 0.0:
            vec = expm_multiply(gen * dt, vec)
        out[k] = vec.reshape(dim, dim)
        t_prev = float(t)
    return out
