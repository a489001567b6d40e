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

The Hamiltonian conserves the excitation charge Q = 2 n_p + n_e + n_h:
the pair term b+ c+ a trades one photon for one electron-hole pair. Every
collapse operator shifts Q by a fixed amount (a by -2, c+ and b+ by +1, c
and b by -1, c b by -2, the dephasing operator by 0), so L rho L+ shifts
Q and Q' of an entry |Q><Q'| alike, while H and every L+ L commute with Q.
The generator therefore conserves Q - Q', a weak symmetry (Buca & Prosen,
New J. Phys. 14, 073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118
(2014)), and the Q-diagonal entries, Q = Q', form an invariant sector of
8 n_max + 6 entries. Vacuum and every population lie in it, so the state
evolved from vacuum never leaves it, and neither does its stationary
limit: steady_state_density solves for that state on the sector alone and
keeps it as those entries (DensityMatrix). Within the sector rho is block
diagonal in Q, in blocks of at most two states: |0,0,m> and |1,1,m-1> for
Q = 2m, |1,0,m> and |0,1,m> for Q = 2m + 1, so the state is checked block
by block and its populations are read straight off its diagonal entries.

Each operator of the model sends one basis state to one basis state with a
single weight, so build_liouvillian assembles the generator on any closed
set of density-matrix entries directly from those index maps. Entries are
numbered in row-major (C-order) vectorization, i * dim + j for rho[i, j];
the full generator, every entry in that order, acts on vec(rho) as
vec(A rho B) = (A kron B^T) vec(rho).

Basis ordering: electron occupation (2) x hole occupation (2) x photon
number (n_max + 1), index = (2 e + h) (n_max + 1) + n.

scipy is imported inside the functions that call it: every simulate and
sweep process imports this module (config reads its cutoff constants) but
never runs the oracle, and a module-level scipy import would triple their
start-up time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MalformedSteadyState, SingularSteadyState, TruncationTooSmall
from .model import ModelParams, validate
from .observables import PHOTON_FLOOR, Observables

# Population allowed in the top Fock level before the truncation is rejected.
TOP_LEVEL_LIMIT = 1e-8

DEFAULT_N_MAX = 8
# The largest cutoff steady_observables_auto tries. A larger cap costs
# little, as the state stays in its charge blocks, but it turns the exit 4
# of perfbench's single_point `cap` entries into 0 or 3, so it changes only
# together with the benchmark's references.
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


def _occupations(space: HilbertSpace):
    """(n_e, n_h, n_photon) of every basis state, as index arrays."""
    carriers, n = np.divmod(np.arange(space.dim), space.n_max + 1)
    return carriers >> 1, carriers & 1, n


def _ladder_maps(params: ModelParams, space: HilbertSpace):
    """Hamiltonian terms and rated collapse operators as basis-index maps.

    Every operator of the model sends a basis state to at most one basis
    state: op |k> = weight[k] |target[k]>, with target[k] = -1 where
    op |k> = 0. Returns (hamiltonian, collapses): the terms of H as
    (target, weight) pairs, and the collapse operators as
    ((target, weight), rate) pairs.
    """
    k = np.arange(space.dim)
    n_ph = space.n_max + 1
    e, h, n = _occupations(space)
    sqrt_n = np.sqrt(n)

    def shift(mask, offset, weight=1.0):
        return np.where(mask, k + offset, -1), np.where(mask, weight, 0.0)

    # b+ c+ a: |0, 0, n> -> sqrt(n) |1, 1, n - 1>, and its adjoint a+ c b.
    pair, pair_weight = shift((e + h == 0) & (n >= 1), 3 * n_ph - 1, sqrt_n)
    adj, adj_weight = shift((e + h == 2) & (n < space.n_max), 1 - 3 * n_ph,
                            np.sqrt(n + 1))
    hamiltonian = (
        (k, 0.5 * params.detuning * (e + h)),
        (pair, -1j * params.g * pair_weight),
        (adj, 1j * params.g * adj_weight),
    )
    collapses = (
        (shift(n >= 1, -1, sqrt_n), 2.0 * params.gamma_c),
        (shift(e == 0, 2 * n_ph), params.pump),
        (shift(h == 0, n_ph), params.pump),
        (shift(e == 1, -2 * n_ph), params.gamma_nr),
        (shift(h == 1, -n_ph), params.gamma_nr),
        (shift(e + h == 2, -3 * n_ph), params.gamma_nl),
        ((k, (e + h).astype(float)), 0.5 * params.gamma_deph),
    )
    return hamiltonian, collapses


class _Sector(NamedTuple):
    """Layout of the charge sector; every array is read-only.

    entries: row-major vec indices i * dim + j of its entries rho[i, j],
        ascending; rows and cols: their i and j.
    partner: position in entries of rho[j, i], for each entry rho[i, j].
    diagonal: position in entries of rho[i, i], for each basis state i.
    """

    entries: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    partner: np.ndarray
    diagonal: np.ndarray


@functools.lru_cache(maxsize=16)
def _sector(space: HilbertSpace) -> _Sector:
    e, h, n = _occupations(space)
    charge = 2 * n + e + h
    entries = np.flatnonzero(charge[:, None] == charge[None, :])
    rows, cols = np.divmod(entries, space.dim)
    layout = _Sector(
        entries, rows, cols,
        np.searchsorted(entries, cols * space.dim + rows),
        np.flatnonzero(rows == cols),
    )
    for array in layout:
        array.flags.writeable = False
    return layout


def charge_sector(space: HilbertSpace) -> np.ndarray:
    """Row-major vec indices of the entries rho[i, j] with Q_i = Q_j.

    Q = 2 n_p + n_e + n_h is the excitation charge. The sector holds
    8 n_max + 6 entries and starts with rho[0, 0]. The array is shared and
    read-only.
    """
    return _sector(space).entries


def build_liouvillian(params: ModelParams, space: HilbertSpace, entries=None):
    """Sparse generator of d rho / dt on the given density-matrix entries.

    entries are row-major vec indices i * dim + j of rho[i, j] and must be
    closed under the generator; the matrix is indexed by their order. The
    default, every entry in vec order, gives the full (dim^2 x dim^2)
    generator of d vec(rho) / dt. Rates are in 1/ps.
    """
    from scipy import sparse

    validate(params)
    dim = space.dim
    entries = np.arange(dim * dim) if entries is None else np.asarray(entries)
    rows, cols = np.divmod(entries, dim)
    hamiltonian, collapses = _ladder_maps(params, space)
    # Each term sends entry (rows, cols) to (to_row, to_col) with weight coef.
    terms = []
    for target, weight in hamiltonian:
        # -i H rho + i rho H; H is Hermitian, so rho H acts on the column
        # index through the conjugate of H's own map.
        terms.append((target[rows], cols, -1j * weight[rows]))
        terms.append((rows, target[cols], 1j * np.conj(weight[cols])))
    for (target, weight), rate in collapses:
        if rate == 0.0:
            continue
        # rate (L rho L+ - {L+ L, rho} / 2); the weights are real and
        # L+ L is diagonal, weight^2.
        terms.append((target[rows], target[cols],
                      rate * weight[rows] * weight[cols]))
        terms.append((rows, cols,
                      -0.5 * rate * (weight[rows] ** 2 + weight[cols] ** 2)))
    to_row, to_col, coef = (np.concatenate(part) for part in zip(*terms))
    source = np.tile(np.arange(entries.size), len(terms))
    keep = (to_row >= 0) & (to_col >= 0) & (coef != 0.0)
    position = np.full(dim * dim, -1)
    position[entries] = np.arange(entries.size)
    to = position[to_row[keep] * dim + to_col[keep]]
    if np.any(to < 0):
        raise ValueError("entries are not closed under the generator")
    return sparse.csr_matrix(
        (coef[keep], (to, source[keep])),
        shape=(entries.size, entries.size), dtype=complex,
    )


def apply_liouvillian(generator, rho: np.ndarray) -> np.ndarray:
    """d rho / dt for a density matrix under a vectorized generator."""
    dim = rho.shape[0]
    return np.asarray(generator @ rho.reshape(-1)).reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Open-system state held as its charge-sector entries.

    values[k] is rho[i, j] for the k-th entry i * dim + j of
    charge_sector(space); every other entry of rho is zero, as for any state
    reached from vacuum. The dense matrix is built only on request.
    """

    space: HilbertSpace
    values: np.ndarray

    @property
    def populations(self) -> np.ndarray:
        """rho[i, i].real for every basis state i, in basis order."""
        return self.values[_sector(self.space).diagonal].real

    @property
    def elements(self) -> np.ndarray:
        """The dense dim x dim matrix, built anew on each access."""
        dim = self.space.dim
        rho = np.zeros(dim * dim, dtype=complex)
        rho[charge_sector(self.space)] = self.values
        return rho.reshape(dim, dim)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of rho's Hermitian part.

        rho is block diagonal in the charge, in blocks of one or two
        states, so this is the least of the two-state blocks' smaller
        eigenvalues, in closed form, and of the populations. A population
        bounds its own block's smaller eigenvalue from above, so only the
        lone states' populations count on their own.
        """
        layout = _sector(self.space)
        values = self.values
        populations = values[layout.diagonal].real
        # One entry rho[s, t] with s < t per two-state block.
        upper = layout.rows < layout.cols
        s = populations[layout.rows[upper]]
        t = populations[layout.cols[upper]]
        coupling = 0.5 * np.abs(
            values[upper] + values[layout.partner[upper]].conj()
        )
        block_min = 0.5 * (s + t) - np.hypot(0.5 * (s - t), coupling)
        return min(float(populations.min()), float(block_min.min()))

    def validate(self) -> "DensityMatrix":
        """Check Hermiticity (1e-12), unit trace (1e-10), positivity (-1e-10).

        Raises MalformedSteadyState naming every check that fails.
        """
        layout = _sector(self.space)
        values = self.values
        problems = []
        herm = float(np.max(np.abs(values - values[layout.partner].conj())))
        if herm > 1e-12:
            problems.append(f"hermiticity violated by {herm:.3e}")
        trace = complex(values[layout.diagonal].sum())
        if abs(trace - 1.0) > 1e-10:
            problems.append(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        min_eig = self.min_eigenvalue()
        if min_eig < -1e-10:
            problems.append(f"negative eigenvalue {min_eig:.3e}")
        if problems:
            raise MalformedSteadyState("; ".join(problems))
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
    """Unique stationary state of the generator within the charge sector.

    The generator conserves Q - Q' (see the module docstring), so it maps
    the Q-diagonal entries of rho (charge_sector) into themselves, and the
    stationary state reached from any Q-diagonal state, vacuum included,
    lies among them. Solves generator . rho = 0 on those 8 n_max + 6
    entries by a sparse LU factorization, with the trace row substituted
    for the row of rho[0, 0] (that row is linearly dependent on the other
    diagonal rows by trace preservation, and every diagonal entry is in the
    sector, so nothing is lost). The state stays as those entries; it is
    made exactly Hermitian, normalized and validated there. Uniqueness is
    checked within the sector: a null space of dimension above one there
    leaves the substituted matrix singular and raises SingularSteadyState.
    A solution that is not Hermitian to 1e-10, or fails validation, raises
    MalformedSteadyState.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    layout = _sector(space)
    gen = build_liouvillian(params, space, layout.entries)
    # The trace row, a one at each diagonal entry, replaces row 0, which is
    # rho[0, 0]'s: the CSR arrays of gen with its first row swapped, since
    # sparse.vstack costs several times the LU factorization here.
    start = gen.indptr[1]
    ones = layout.diagonal.size
    system = sparse.csr_matrix(
        (np.concatenate((np.ones(ones), gen.data[start:])),
         np.concatenate((layout.diagonal, gen.indices[start:])),
         np.concatenate(([0], gen.indptr[1:] - start + ones))),
        shape=gen.shape,
    ).tocsc()
    rhs = np.zeros(layout.entries.size, dtype=complex)
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
    transpose = x[layout.partner].conj()
    asymmetry = float(np.max(np.abs(x - transpose)))
    if asymmetry > 1e-10:
        raise MalformedSteadyState(f"steady state asymmetric by {asymmetry:.3e}")
    x = 0.5 * (x + transpose)
    return DensityMatrix(space, x / x[layout.diagonal].sum().real).validate()


def top_level_population(populations: np.ndarray, space: HilbertSpace) -> float:
    """Total population of the highest retained Fock level, from the
    populations rho[i, i] in basis order."""
    total = 0.0
    for n_e in (0, 1):
        for n_h in (0, 1):
            total += populations[state_index(space, n_e, n_h, space.n_max)]
    return total


def oracle_steady_observables(
    params: ModelParams, space: HilbertSpace
) -> Observables:
    """Steady-state figures of merit from the reference model.

    Raises TruncationTooSmall when the top Fock level holds population at or
    above 1e-8; callers retry with a larger n_max (see
    steady_observables_auto).
    """
    populations = steady_state_density(params, space).populations
    top = top_level_population(populations, space)
    if top >= TOP_LEVEL_LIMIT:
        raise TruncationTooSmall(space.n_max, top)
    n = _occupations(space)[2]
    n_p = float(populations @ n)
    two = float(populations @ (n * (n - 1)))
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
    from scipy.sparse.linalg import expm_multiply

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
