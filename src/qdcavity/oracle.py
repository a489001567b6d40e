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

The modelling differences against the hierarchy are intrinsic and
documented rather than hidden. The generator, applied to each moment's
operator, damps four moments more than the hierarchy's equations do:

- the polarization p = <a+ c b> and the correlation d_bc_aaa by an extra
  P + gamma_nr + gamma_nl/2, on top of the hierarchy's gamma_deph +
  gamma_c and gamma_deph + 3 gamma_c;
- the carrier-photon correlations d_ce_phot and d_h_phot, <c+ c a+ a>
  and <b+ b a+ a>, by an extra P on top of 2 gamma_c + gamma_nr, and
  they take a -gamma_nl <n_e n_h n_p> coupling the hierarchy lacks.

n_e, n_h and <a+ a+ a a> are damped alike in both. The joint-collapse
recombination also evolves the full correlated pair number where the
hierarchy keeps the factorized product n_e n_h. Exact agreement therefore
holds only at g = 0 with gamma_nl = 0; elsewhere agreement bands are
empirical.

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

The generator shifts Q by -2 to +1, so on the sector it couples only
adjacent photon levels m = Q // 2: it is a stack of lower, diagonal and
upper blocks. Each operator of the model sends one basis state to one with
a single weight, so every block entry is linear in seven rates, with
coefficients that depend on the cutoff alone and are cached per cutoff.

Basis ordering: electron occupation (2) x hole occupation (2) x photon
number (n_max + 1), index = (2 e + h) (n_max + 1) + n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MalformedSteadyState, SingularSteadyState, TruncationTooSmall
from .model import ModelParams
from .observables import Observables

# Population allowed in the top Fock level before the truncation is rejected.
TOP_LEVEL_LIMIT = 1e-8

DEFAULT_N_MAX = 8
# The largest cutoff steady_observables_auto tries. A larger cap costs
# little, as the state stays in its charge blocks, but it turns the exit 4
# of perfbench's single_point `cap` entries into 0 or 3, so it changes only
# together with the benchmark's references.
N_MAX_CAP = 64
# Entries of a photon level above level 0 and below the top one.
LEVEL_WIDTH = 8


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


def _occupations(space: HilbertSpace):
    """(n_e, n_h, n_photon) of every basis state, as index arrays."""
    carriers, n = np.divmod(np.arange(space.dim), space.n_max + 1)
    return carriers >> 1, carriers & 1, n


def _unit_maps(space: HilbertSpace):
    """Hamiltonian terms and collapse operators as basis-index maps, at unit
    rates.

    Every operator of the model sends a basis state to at most one basis
    state: op |k> = weight[k] |target[k]>, with target[k] = -1 where
    op |k> = 0. Returns (hamiltonian, collapses): the terms of H and the
    collapse operators, each as ((target, weight), column), where column is
    the position of its rate in the rate vector of build_liouvillian.
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
        ((k, 0.5 * (e + h)), 0),
        ((pair, -1j * pair_weight), 1),
        ((adj, 1j * adj_weight), 1),
    )
    collapses = (
        (shift(n >= 1, -1, sqrt_n), 2),
        (shift(e == 0, 2 * n_ph), 3),
        (shift(h == 0, n_ph), 3),
        (shift(e == 1, -2 * n_ph), 4),
        (shift(h == 1, -n_ph), 4),
        (shift(e + h == 2, -3 * n_ph), 5),
        ((k, (e + h).astype(float)), 6),
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


class _Generator(NamedTuple):
    """Parameter-free form of the sector generator; every array is read-only.

    coefficients: 7 x (3 levels LEVEL_WIDTH^2) complex; rates @ coefficients
        are the blocks of build_liouvillian, flattened.
    sizes: the number of entries of each photon level.
    order: each charge_sector entry's place in the levels x LEVEL_WIDTH layout.
    """

    coefficients: np.ndarray
    sizes: np.ndarray
    order: np.ndarray


@functools.lru_cache(maxsize=16)
def _generator(space: HilbertSpace) -> _Generator:
    layout = _sector(space)
    rows, cols, size = layout.rows, layout.cols, layout.entries.size
    hamiltonian, collapses = _unit_maps(space)
    # Each term sends entry (rows, cols) to (to_row, to_col) with weight coef
    # times the rate at position column of the rate vector.
    terms, columns = [], []
    for (target, weight), column in hamiltonian:
        # -i H rho + i rho H; H is Hermitian, so rho H acts on the column
        # index through the conjugate of H's own map.
        terms.append((target[rows], cols, -1j * weight[rows]))
        terms.append((rows, target[cols], 1j * np.conj(weight[cols])))
        columns += [column, column]
    for (target, weight), column in collapses:
        # L rho L+ - {L+ L, rho} / 2; the weights are real and L+ L is
        # diagonal, weight^2.
        terms.append((target[rows], target[cols], weight[rows] * weight[cols]))
        terms.append((rows, cols, -0.5 * (weight[rows] ** 2 + weight[cols] ** 2)))
        columns += [column, column]
    to_row, to_col, coef = (np.concatenate(part) for part in zip(*terms))
    keep = (to_row >= 0) & (to_col >= 0) & (coef != 0.0)
    column = np.repeat(columns, size)[keep]
    source = np.tile(np.arange(size), len(terms))[keep]
    position = np.full(space.dim ** 2, -1)
    position[layout.entries] = np.arange(size)
    to = position[to_row[keep] * space.dim + to_col[keep]]
    # Photon level Q // 2 of each entry, and its slot within its level in
    # charge_sector order.
    e, h, n = _occupations(space)
    level = (2 * n + e + h)[rows] // 2
    sizes = np.bincount(level)
    rank = np.argsort(np.argsort(level, kind="stable"))
    slot = rank - (np.cumsum(sizes) - sizes)[level]
    coefficients = np.zeros((7, 3, sizes.size, LEVEL_WIDTH, LEVEL_WIDTH),
                            dtype=complex)
    np.add.at(coefficients, (column, level[source] - level[to] + 1,
                             level[to], slot[to], slot[source]), coef[keep])
    table = _Generator(coefficients.reshape(7, -1), sizes,
                       level * LEVEL_WIDTH + slot)
    for array in table:
        array.flags.writeable = False
    return table


def build_liouvillian(params: ModelParams, space: HilbertSpace) -> np.ndarray:
    """Generator of d rho / dt on the charge sector, in photon-level blocks.

    Returns blocks, 3 x levels x LEVEL_WIDTH x LEVEL_WIDTH: with x_m the
    entries of level m (m = Q // 2, in charge_sector order, zero-padded to
    LEVEL_WIDTH), d x_m / dt = blocks[0, m] x_{m-1} + blocks[1, m] x_m
    + blocks[2, m] x_{m+1}. The values are the cached per-cutoff coefficient
    table times the rate vector (detuning, g, 2 gamma_c, pump, gamma_nr,
    gamma_nl, gamma_deph / 2). Rates are in 1/ps.
    """
    rates = np.array((
        params.detuning, params.g, 2.0 * params.gamma_c, params.pump,
        params.gamma_nr, params.gamma_nl, 0.5 * params.gamma_deph,
    ))
    blocks = rates @ _generator(space).coefficients
    return blocks.reshape(3, -1, LEVEL_WIDTH, LEVEL_WIDTH)


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


def steady_state_density(params: ModelParams, space: HilbertSpace) -> DensityMatrix:
    """Unique stationary state of the generator within the charge sector.

    Solves generator . rho = 0 on the level blocks A (lower), D and C
    (upper) by Risken's matrix continued fraction: from the top down,
    x_m = R_m x_{m-1} with R_m = -(D_m + C_m R_{m+1})^-1 A_m, each level to
    full precision relative to the one below, and x_0 is the null vector of
    D_0 + C_0 R_1. The descent stops at a level that loses nothing downwards
    (a trap, as full inversion is under pump alone), and its rounding grows
    where populations rise with m. The level whose null vector is taken,
    the twist, is then the trap, or the level of largest entries below the
    top if the residual is above 1e-8; the levels below the twist are
    eliminated from level 0 up alike.

    A failed level solve, two negligible singular values of the twist block
    (no unique state in the sector) or a residual not below 1e-8 raise
    SingularSteadyState; asymmetry above 1e-10 or a failed validate()
    raises MalformedSteadyState.
    """
    lower, diagonal, upper = build_liouvillian(params, space)
    layout, table = _sector(space), _generator(space)
    sizes, top = table.sizes, table.sizes.size - 1
    # x_m = above[m] x_{m-1} above the twist level, below[m] x_{m+1} below it.
    above, below = {}, []

    def reduced(m, twist):  # D_m with the eliminated levels next to it folded in
        block = diagonal[m, :sizes[m], :sizes[m]]
        if twist <= m < top:
            block = block + upper[m, :sizes[m], :sizes[m + 1]] @ above[m + 1]
        if 0 < m <= twist:
            block = block + lower[m, :sizes[m], :sizes[m - 1]] @ below[m - 1]
        return block

    def solve(twist):
        """Trace-normalized levels as rows 1 to top + 1, and their residual."""
        for m in range(top, twist, -1):
            if m not in above:
                above[m] = -np.linalg.solve(
                    reduced(m, twist), lower[m, :sizes[m], :sizes[m - 1]])
        for m in range(len(below), twist):
            below.append(-np.linalg.solve(
                reduced(m, twist), upper[m, :sizes[m], :sizes[m + 1]]))
        singular, null = np.linalg.svd(reduced(twist, twist))[1:]
        if singular[-2] <= singular.size * np.finfo(float).eps * singular[0]:
            raise SingularSteadyState(
                f"stationary state is not unique: level {twist} has singular "
                f"values {singular[-2:]} of {singular[0]}")
        levels = np.zeros((top + 3, LEVEL_WIDTH), dtype=complex)
        levels[twist + 1, :sizes[twist]] = null[-1].conj()
        for m in range(twist + 1, top + 1):
            levels[m + 1, :sizes[m]] = above[m] @ levels[m, :sizes[m - 1]]
        for m in range(twist - 1, -1, -1):
            levels[m + 1, :sizes[m]] = below[m] @ levels[m + 2, :sizes[m + 1]]
        levels /= levels[1:-1].reshape(-1)[table.order[layout.diagonal]].sum()
        flow = (lower @ levels[:-2, :, None] + diagonal @ levels[1:-1, :, None]
                + upper @ levels[2:, :, None])
        # Non-finite entries leave a non-finite residual.
        return levels, float(np.max(np.abs(flow)))

    try:
        try:
            levels, residual = solve(0)
        except np.linalg.LinAlgError:  # a trap ends the descent: twist there
            levels, residual = solve(min(above, default=top + 1) - 1)
        if not residual <= 1e-8:  # rounding grew: twist at the heaviest level
            levels, residual = solve(1 + np.abs(levels[2:-2]).sum(axis=1).argmax())
    except np.linalg.LinAlgError as err:
        raise SingularSteadyState(f"level solve failed: {err}") from err
    if not residual <= 1e-8:
        raise SingularSteadyState(
            f"stationarity residual {residual:.3e} is not below 1e-8")
    x = levels[1:-1].reshape(-1)[table.order]
    transpose = x[layout.partner].conj()
    asymmetry = float(np.max(np.abs(x - transpose)))
    if asymmetry > 1e-10:
        raise MalformedSteadyState(f"steady state asymmetric by {asymmetry:.3e}")
    x = 0.5 * (x + transpose)
    return DensityMatrix(space, x / x[layout.diagonal].sum().real).validate()


def top_level_population(populations: np.ndarray, space: HilbertSpace) -> float:
    """Population of the top Fock level, from the rho[i, i] in basis order."""
    return float(populations.reshape(4, space.n_max + 1)[:, -1].sum())


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
    return Observables.from_moments(n_p, two, params)


def steady_observables_auto(params: ModelParams, n_max: int = DEFAULT_N_MAX):
    """oracle_steady_observables with n_max doubling on truncation failure.

    Each retry doubles the cutoff, clipped to N_MAX_CAP, so the cap is
    always tried; a start at or above the cap is tried alone. Returns
    (observables, n_max_used). Raises TruncationTooSmall if the cap is
    itself still too small.
    """
    n = n_max
    while True:
        try:
            return oracle_steady_observables(params, HilbertSpace(n)), n
        except TruncationTooSmall:
            if n >= N_MAX_CAP:
                raise
            n = min(2 * n, N_MAX_CAP)
