"""Reference-model checks: generator structure, steady states, propagation."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from qdcavity import (
    DensityMatrix,
    HilbertSpace,
    MalformedSteadyState,
    ModelParams,
    ReferenceRabi,
    SingularSteadyState,
    TruncationTooSmall,
    build_hamiltonian,
    build_liouvillian,
    default_params,
    integrate,
    oracle_steady_observables,
    steady_observables_auto,
)
from qdcavity.dynamics import TOGGLE_VARIANTS, DynamicState
from qdcavity.oracle import (
    TOP_LEVEL_LIMIT,
    apply_liouvillian,
    basis_density,
    build_operators,
    charge_sector,
    propagate,
    state_index,
    steady_state_density,
    top_level_population,
)
from qdcavity.solver import IntegrationConfig

from helpers import assert_close, dense_steady_state

FULL = TOGGLE_VARIANTS["full"]

GENERIC = ModelParams(
    g=0.08, gamma_c=0.4, gamma_deph=0.2, gamma_nr=0.05,
    gamma_nl=0.02, pump=0.3, detuning=0.7,
)


def random_density(space, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(space.dim, space.dim)) \
        + 1j * rng.normal(size=(space.dim, space.dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def dense_lindblad_action(params, space, rho):
    """Textbook dissipator form, assembled densely and independently of the
    vectorized generator in the package."""
    ops = build_operators(space)
    H = build_hamiltonian(params, space)
    out = -1j * (H @ rho - rho @ H)
    collapses = (
        (ops.a, 2.0 * params.gamma_c),
        (ops.c.conj().T, params.pump),
        (ops.b.conj().T, params.pump),
        (ops.c, params.gamma_nr),
        (ops.b, params.gamma_nr),
        (ops.c @ ops.b, params.gamma_nl),
        (ops.n_e + ops.n_h, 0.5 * params.gamma_deph),
    )
    for L, rate in collapses:
        if rate == 0.0:
            continue
        LdL = L.conj().T @ L
        out = out + rate * (
            L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
        )
    return out


def full_space_steady_state(params, space):
    """Reference stationary state from the full dim^2 generator: the trace
    row replaces the row of rho[0, 0] and sparse LU solves the rest."""
    gen = build_liouvillian(params, space)
    dim = space.dim
    trace_row = sparse.identity(dim, dtype=complex).reshape((1, dim * dim))
    system = sparse.vstack([trace_row, gen[1:]], format="csc")
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return splu(system).solve(rhs).reshape(dim, dim)


def sector_state(rho, space):
    """The state of a dense rho whose entries outside the sector are 0."""
    return DensityMatrix(space, rho.reshape(-1)[charge_sector(space)])


def random_params(rng):
    return ModelParams(
        g=rng.uniform(0.01, 0.5), gamma_c=rng.uniform(0.05, 2.0),
        gamma_deph=rng.uniform(0.0, 1.0), gamma_nr=rng.uniform(0.0, 0.5),
        gamma_nl=rng.uniform(0.0, 0.2), pump=10.0 ** rng.uniform(-3.0, 1.0),
        detuning=rng.uniform(-1.0, 1.0),
    )


def test_hilbert_space_layout():
    space = HilbertSpace(3)
    assert space.dim == 16
    assert state_index(space, 0, 0, 0) == 0
    assert state_index(space, 0, 1, 0) == 4
    assert state_index(space, 1, 0, 0) == 8
    assert state_index(space, 1, 1, 3) == 15
    with pytest.raises(ValueError):
        HilbertSpace(0)
    with pytest.raises(ValueError):
        state_index(space, 2, 0, 0)
    with pytest.raises(ValueError):
        state_index(space, 0, 0, 4)


def test_operators_satisfy_mode_algebra():
    space = HilbertSpace(4)
    ops = build_operators(space)
    ident = np.eye(space.dim)
    # Fermionic two-level modes: {c, c+} = 1 on their subspace means
    # c c+ + c+ c = 1 here because each carrier factor is two-level.
    assert np.allclose(ops.c @ ops.c.conj().T + ops.n_e, ident, atol=1e-14)
    assert np.allclose(ops.b @ ops.b.conj().T + ops.n_h, ident, atol=1e-14)
    # Bosonic commutator [a, a+] = 1 away from the truncation edge.
    comm = ops.a @ ops.a.conj().T - ops.n_photon
    for n_e in (0, 1):
        for n_h in (0, 1):
            for n in range(space.n_max):
                k = state_index(space, n_e, n_h, n)
                assert comm[k, k] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(ops.c @ ops.c, 0.0, atol=1e-14)


def test_hamiltonian_is_hermitian():
    H = build_hamiltonian(GENERIC, HilbertSpace(3))
    assert np.max(np.abs(H - H.conj().T)) < 1e-14


def test_hamiltonian_vanishes_when_decoupled():
    params = ModelParams(
        g=0.0, gamma_c=0.4, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0, detuning=0.0,
    )
    H = build_hamiltonian(params, HilbertSpace(2))
    assert np.count_nonzero(H) == 0


def test_hamiltonian_pair_coupling_element():
    # The interaction exchanges one photon for one electron-hole pair:
    # <1,1,0| H |0,0,1> = -i g.
    g = 0.31
    params = ModelParams(
        g=g, gamma_c=0.4, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )
    space = HilbertSpace(1)
    H = build_hamiltonian(params, space)
    i = state_index(space, 1, 1, 0)
    j = state_index(space, 0, 0, 1)
    assert H[i, j] == pytest.approx(-1j * g, abs=1e-15)
    assert H[j, i] == pytest.approx(1j * g, abs=1e-15)


def test_generator_matches_dense_lindblad_form():
    space = HilbertSpace(2)
    gen = build_liouvillian(GENERIC, space)
    for seed in range(3):
        rho = random_density(space, seed)
        ours = apply_liouvillian(gen, rho)
        reference = dense_lindblad_action(GENERIC, space, rho)
        assert np.max(np.abs(ours - reference)) < 1e-12


def test_generator_preserves_trace():
    space = HilbertSpace(2)
    gen = build_liouvillian(GENERIC, space)
    for seed in range(5):
        drho = apply_liouvillian(gen, random_density(space, seed))
        assert abs(np.trace(drho)) < 1e-12


def test_charge_sector_size():
    for n_max, size in ((1, 14), (2, 22), (8, 70), (64, 518)):
        entries = charge_sector(HilbertSpace(n_max))
        assert len(entries) == 8 * n_max + 6 == size
        assert entries[0] == 0
        assert np.all(np.diff(entries) > 0)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_sector_generator_is_the_restricted_full_generator(n_max):
    space = HilbertSpace(n_max)
    entries = charge_sector(space)
    full = build_liouvillian(GENERIC, space)
    sector = build_liouvillian(GENERIC, space, entries)
    restricted = full[entries][:, entries]
    assert np.max(np.abs((sector - restricted).toarray())) <= 1.1e-16
    # The full generator maps sector columns only into sector rows.
    outside = np.setdiff1d(np.arange(space.dim ** 2), entries)
    assert np.max(np.abs(full[outside][:, entries].toarray())) == 0.0
    # A set the generator leaves is refused: the pump lifts rho[0, 0].
    with pytest.raises(ValueError, match="closed"):
        build_liouvillian(GENERIC, space, entries[:1])


def test_sector_steady_state_matches_full_space_solve():
    rng = np.random.default_rng(20261018)
    cases = [GENERIC] + [random_params(rng) for _ in range(20)]
    for params in cases:
        for n_max in range(1, 9):
            space = HilbertSpace(n_max)
            reference = full_space_steady_state(params, space)
            rho = steady_state_density(params, space).elements
            assert np.max(np.abs(rho - reference)) < 1e-12


# (coupling multiple, gamma_c, pump) at the centres of the perfbench
# single_point oracle classes: resolved at n_max 8, 16, 32 and 64, and still
# truncated at 64.
POOL_LIKE = (
    (0.5, 0.05, 1.0), (10.0, 0.5, 10.0), (10.0, 0.1, 3.0),
    (10.0, 0.1, 10.0), (10.0, 0.05, 10.0),
)


@pytest.mark.parametrize("n_max", [16, 32, 64])
def test_sector_state_matches_the_dense_path(n_max):
    space = HilbertSpace(n_max)
    ops = build_operators(space)
    a_dag = ops.a.conj().T
    pair = a_dag @ a_dag @ ops.a @ ops.a
    top = [state_index(space, e, h, n_max) for e in (0, 1) for h in (0, 1)]
    resolved = 0
    for g_multiple, gamma_c, pump in POOL_LIKE:
        params = default_params(
            g=ReferenceRabi().coupling_for(g_multiple), gamma_c=gamma_c,
            pump=pump,
        )
        rho = dense_steady_state(params, space)
        state = steady_state_density(params, space)
        # The same arithmetic in the same order: the same bits.
        assert np.array_equal(state.elements, rho)
        if sum(rho[k, k].real for k in top) >= TOP_LEVEL_LIMIT:
            with pytest.raises(TruncationTooSmall):
                oracle_steady_observables(params, space)
            continue
        resolved += 1
        obs = oracle_steady_observables(params, space)
        n_p = float(np.trace(ops.n_photon @ rho).real)
        two = float(np.trace(pair @ rho).real)
        assert_close(obs.photon_number, n_p, 1e-12, "n_p")
        assert_close(obs.two_photon, two, 1e-12, "<a+a+aa>")
        assert_close(obs.g2_zero, two / n_p ** 2, 1e-12, "g2")
    assert resolved == {16: 2, 32: 3, 64: 4}[n_max]


def test_photon_decay_through_propagate():
    gamma_c = 0.05
    params = ModelParams(
        g=0.0, gamma_c=gamma_c, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )
    space = HilbertSpace(2)
    rho0 = basis_density(space, 0, 0, 1)
    times = np.linspace(0.0, 100.0, 11)
    path = propagate(rho0, params, space, times)
    ops = build_operators(space)
    for rho, t in zip(path, times):
        n_p = float(np.trace(ops.n_photon @ rho).real)
        assert n_p == pytest.approx(math.exp(-2.0 * gamma_c * t), abs=1e-9)
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_propagate_input_validation():
    space = HilbertSpace(1)
    rho0 = basis_density(space, 0, 0, 0)
    with pytest.raises(ValueError):
        propagate(rho0, GENERIC, space, [])
    with pytest.raises(ValueError):
        propagate(rho0, GENERIC, space, [-1.0, 0.0])
    with pytest.raises(ValueError):
        propagate(rho0, GENERIC, space, [0.0, 1.0, 1.0])


def test_decoupled_relaxation_matches_cluster_equations():
    # g = 0 and linear losses: the exact carrier marginals obey the same
    # closed rate equation as the cluster expansion, so the two routes must
    # coincide along the whole trajectory.
    params = ModelParams(
        g=0.0, gamma_c=0.3, gamma_deph=0.0, gamma_nr=0.2,
        gamma_nl=0.0, pump=0.5,
    )
    space = HilbertSpace(1)
    rho0 = basis_density(space, 0, 0, 0)
    times = np.linspace(0.0, 8.0, 9)
    path = propagate(rho0, params, space, times)
    ops = build_operators(space)
    cfg = IntegrationConfig()
    # Compare at the propagate sample times via fixed-horizon solves.
    for k, t in enumerate(times[1:], start=1):
        n_e_oracle = float(np.trace(ops.n_e @ path[k]).real)
        short = integrate(
            DynamicState.vacuum(), params, FULL, cfg, t_end=float(t)
        )
        assert n_e_oracle == pytest.approx(short.final.n_e, rel=1e-6)


def test_steady_state_density_is_physical():
    rho = steady_state_density(GENERIC, HilbertSpace(3))
    elements = rho.elements
    assert abs(np.trace(elements) - 1.0) < 1e-10
    assert np.max(np.abs(elements - elements.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(elements)) > -1e-10


def test_pump_only_steady_state_is_full_inversion():
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.5,
    )
    space = HilbertSpace(1)
    rho = steady_state_density(params, space)
    ops = build_operators(space)
    assert rho.expectation(ops.n_e) == pytest.approx(1.0, abs=1e-12)
    assert rho.expectation(ops.n_h) == pytest.approx(1.0, abs=1e-12)
    assert rho.expectation(ops.n_photon) == pytest.approx(0.0, abs=1e-12)


def test_pump_only_observables_mark_g2_undefined():
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.5,
    )
    obs = oracle_steady_observables(params, HilbertSpace(1))
    assert obs.g2_zero is None
    assert obs.photon_number == pytest.approx(0.0, abs=1e-12)
    assert obs.output_rate == pytest.approx(0.0, abs=1e-12)


def _assert_degenerate_null_space_rejected(n_max):
    # Photon loss alone leaves every carrier sector stationary; the steady
    # state is not unique and the solver must say so.
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )
    with pytest.raises(SingularSteadyState):
        steady_state_density(params, HilbertSpace(n_max))


def test_degenerate_null_space_is_rejected():
    _assert_degenerate_null_space_rejected(1)


def test_degenerate_null_space_is_rejected_at_n_max_20():
    _assert_degenerate_null_space_rejected(20)


def test_truncation_guard_and_auto_doubling():
    params = default_params(g=0.1, gamma_c=0.5, pump=1.0)
    with pytest.raises(TruncationTooSmall) as info:
        oracle_steady_observables(params, HilbertSpace(1))
    assert info.value.n_max == 1
    assert info.value.top_population >= 1e-8
    obs, n_used = steady_observables_auto(params, n_max=1)
    assert n_used > 1
    assert obs.photon_number > 0.0
    # A cap below the needed size re-raises instead of looping.
    with pytest.raises(TruncationTooSmall):
        steady_observables_auto(params, n_max=1, n_max_cap=1)


def test_truncation_convergence_of_observables():
    params = default_params(g=0.1, gamma_c=0.5, pump=1.0)
    obs8, _ = steady_observables_auto(params, n_max=8)
    obs16 = oracle_steady_observables(params, HilbertSpace(16))
    assert obs8.photon_number == pytest.approx(obs16.photon_number, rel=1e-9)
    assert obs8.g2_zero == pytest.approx(obs16.g2_zero, rel=1e-9)


def test_top_level_population_accounting():
    space = HilbertSpace(2)
    top = np.diag(basis_density(space, 1, 0, 2)).real
    assert top_level_population(top, space) == 1.0
    below = np.diag(basis_density(space, 1, 0, 1)).real
    assert top_level_population(below, space) == 0.0


def test_density_matrix_validation_rejects_defects():
    space = HilbertSpace(1)
    good = np.eye(space.dim, dtype=complex) / space.dim
    state = sector_state(good, space).validate()
    assert np.array_equal(state.elements, good)
    assert np.array_equal(state.populations, np.diag(good).real)
    # |0,0,1> and |1,1,0> (states 1 and 6) share the charge Q = 2.
    skew = good.copy()
    skew[1, 6] = 1e-3
    with pytest.raises(MalformedSteadyState, match="hermiticity"):
        sector_state(skew, space).validate()
    with pytest.raises(MalformedSteadyState, match="trace"):
        sector_state(good * 2.0, space).validate()
    indefinite = np.diag([0.75, 0.75, -0.25, -0.25, 0, 0, 0, 0])
    with pytest.raises(MalformedSteadyState, match="eigenvalue"):
        sector_state(indefinite.astype(complex), space).validate()


# At n_max = 1 the charge blocks are {0}, {1, 6}, {2, 4}, {3, 5} and {7}.
def _blocks_state(coupling_35):
    rho = np.diag([0.2, 0.2, 0.1, 0.05, 0.15, 0.05, 0.15, 0.1]).astype(complex)
    rho[1, 6] = 0.05j
    rho[6, 1] = -0.05j
    rho[2, 4] = rho[4, 2] = 0.05
    rho[3, 5] = coupling_35
    rho[5, 3] = np.conj(coupling_35)
    return rho


def test_positivity_check_finds_an_indefinite_block_among_positive_ones():
    # Block {3, 5} has eigenvalues 0.05 +- 0.0707; the others are positive.
    space = HilbertSpace(1)
    with pytest.raises(MalformedSteadyState,
                       match=r"^negative eigenvalue -2\.071e-02$"):
        sector_state(_blocks_state(0.07 - 0.01j), space).validate()
    sector_state(_blocks_state(0.01), space).validate()


def test_positivity_check_finds_a_negative_lone_population():
    space = HilbertSpace(1)
    rho = _blocks_state(0.01)
    rho[7, 7] = -0.01
    rho[0, 0] += 0.11
    with pytest.raises(MalformedSteadyState,
                       match=r"^negative eigenvalue -1\.000e-02$"):
        sector_state(rho, space).validate()


@pytest.mark.parametrize("n_max", [1, 2, 7, 40])
def test_blockwise_min_eigenvalue_matches_dense(n_max):
    space = HilbertSpace(n_max)
    entries = charge_sector(space)
    rng = np.random.default_rng(n_max)
    for _ in range(5):
        a = np.zeros(space.dim ** 2, dtype=complex)
        a[entries] = rng.normal(size=entries.size) \
            + 1j * rng.normal(size=entries.size)
        a = a.reshape(space.dim, space.dim)
        # A non-Hermitian rho counts by its Hermitian part.
        dense = float(np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T))))
        blockwise = sector_state(a, space).min_eigenvalue()
        assert blockwise == pytest.approx(dense, rel=1e-12, abs=1e-14)


def test_basis_density_unit_population():
    space = HilbertSpace(2)
    rho = basis_density(space, 1, 1, 2)
    k = state_index(space, 1, 1, 2)
    assert rho[k, k] == 1.0
    assert np.count_nonzero(rho) == 1
