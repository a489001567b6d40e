"""Acceptance gate: one test per numbered criterion, run with pytest -v.

Each test asserts one end-to-end contract of the package. Criterion 6 checks
the single-photon claim on the 0.2-10 ps lifetime window at coupling 0.20:
among the lifetimes whose steady state is physical and whose g2(0) is no
larger than at the 0.2 ps edge, the one with the highest output rate lies
strictly inside the window and emits at least five times the 0.2 ps rate;
without the inversion term only the 0.2 ps edge qualifies. The bare output
rate has no interior maximum in this model (it rises up to the lasing
threshold near 16 ps); see README.md for the derivation.
"""

import math
import time

import numpy as np
import pytest

from qdcavity import (
    DynamicState,
    HilbertSpace,
    IntegrationConfig,
    ModelParams,
    ReferenceRabi,
    SweepGrid,
    SweepTable,
    coupling_strength,
    default_params,
    integrate,
    observables_of,
    oracle_steady_observables,
    run_sweep,
    steady_observables_auto,
    steady_state,
)
from qdcavity.dynamics import TOGGLE_VARIANTS, make_rhs
from qdcavity.model import (
    ELECTRON_CHARGE,
    HBAR,
    REFERENCE_COUPLING_RAD_PER_PS,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
)
from qdcavity.oracle import charge_sector, steady_state_density

from helpers import (
    apply_liouvillian,
    basis_density,
    build_operators,
    expectation,
    index_map_liouvillian,
    propagate,
    sector_generator,
)

FULL = TOGGLE_VARIANTS["full"]
NO_INVERSION = TOGGLE_VARIANTS["no_inversion"]

CFG = IntegrationConfig()

# Frozen regression targets (see also tests/test_model.py).
FROZEN_COUPLING = 0.17783269413294994
AGREEMENT_BAND = 0.25

# Sweep axes shared by criteria 4, 5 and 6.
DIP_LIFETIMES = tuple(float(v) for v in np.geomspace(0.2, 10.0, 50))
DIP_G_MULTIPLES = (0.18, 0.20)
DIP_PUMP = 1e5


@pytest.fixture(scope="module")
def dip_sweep():
    """Steady-state observables over lifetime x coupling x toggle variant
    under strong pumping; shared by criteria 4, 5 and 6."""
    grid = SweepGrid.from_lifetimes(
        lifetimes_ps=DIP_LIFETIMES,
        g_values=DIP_G_MULTIPLES,
        pump_values=(DIP_PUMP,),
        toggle_variants=(FULL, NO_INVERSION),
    )
    base = default_params(
        g=0.2 * FROZEN_COUPLING, gamma_c=0.5, pump=DIP_PUMP
    )
    started = time.perf_counter()
    records = run_sweep(grid, base, CFG, workers=1)
    elapsed = time.perf_counter() - started
    assert all(r.converged for r in records)
    return records, elapsed


def dip_curve(records, g_multiple, toggles, field):
    """One observable against ascending lifetime for a fixed coupling and
    toggle variant."""
    points = [
        (r.cavity_lifetime, getattr(r.observables, field))
        for r in records
        if r.g_over_omega_r0 == g_multiple and r.toggles == toggles
    ]
    points.sort()
    lifetimes, values = zip(*points)
    return list(lifetimes), list(values)


def test_criterion_01_decoupled_limit_exactness():
    started = time.perf_counter()

    # Route one: photon decay against the closed form.
    decay_params = ModelParams(
        g=0.0, gamma_c=0.5, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )
    traj = integrate(
        DynamicState(n_p=1.0), decay_params, FULL, CFG, t_end=5.0
    )
    for t, row in zip(traj.times, traj.states):
        expected = math.exp(-2.0 * 0.5 * t)
        n_p = DynamicState.from_array(row).n_p
        assert abs(n_p - expected) / expected < 1e-6

    space = HilbertSpace(2)
    path = propagate(
        basis_density(space, 0, 0, 1), decay_params, space,
        np.linspace(0.0, 5.0, 6),
    )
    ops = build_operators(space)
    for k, t in enumerate(np.linspace(0.0, 5.0, 6)):
        n_p = float(np.trace(ops.n_photon @ path[k]).real)
        assert abs(n_p - math.exp(-t)) < 1e-6

    # Route two: carrier saturation against the quadratic root and the
    # reference model.
    carrier_params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.01, gamma_nr=1.0,
        gamma_nl=0.01, pump=1.0,
    )
    P, gnr, gnl = 1.0, 1.0, 0.01
    b = P + gnr
    root = (-b + math.sqrt(b * b + 4.0 * gnl * P)) / (2.0 * gnl)
    cluster = steady_state(carrier_params, FULL, CFG)
    assert abs(cluster.n_e - root) / root < 1e-6
    assert abs(cluster.n_h - root) / root < 1e-6
    assert abs(cluster.n_p) < 1e-12

    oracle = steady_state_density(carrier_params, HilbertSpace(1))
    small_ops = build_operators(HilbertSpace(1))
    n_e_oracle = expectation(oracle, small_ops.n_e)
    assert abs(cluster.n_e - n_e_oracle) / n_e_oracle < 1e-6

    assert time.perf_counter() - started < 1.0


def test_criterion_02_excitation_bookkeeping_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(1000):
        y = rng.uniform(-1.0, 3.0, size=10)
        params = ModelParams(
            g=float(rng.uniform(0.0, 2.0)),
            gamma_c=float(rng.uniform(0.01, 10.0)),
            gamma_deph=float(rng.uniform(0.0, 10.0)),
            gamma_nr=float(rng.uniform(0.0, 10.0)),
            gamma_nl=float(rng.uniform(0.0, 10.0)),
            pump=float(rng.uniform(0.0, 100.0)),
            detuning=float(rng.uniform(-5.0, 5.0)),
        )
        f, _ = make_rhs(params, FULL)
        derivative = f(0.0, y)
        ne, nh, nph = y[0], y[1], y[2]
        expected = (
            params.pump * (1.0 - ne) - params.gamma_nr * ne
            - params.gamma_nl * ne * nh - 2.0 * params.gamma_c * nph
        )
        # Normalize by the terms entering the balance, including the
        # exchange term that must cancel between the two equations.
        scale = (
            abs(2.0 * params.g * y[3]) + abs(params.pump * (1.0 - ne))
            + abs(params.gamma_nr * ne) + abs(params.gamma_nl * ne * nh)
            + abs(2.0 * params.gamma_c * nph) + 1e-300
        )
        err = abs((derivative[0] + derivative[2]) - expected) / scale
        worst = max(worst, err)
    assert worst < 1e-12, f"worst normalized error {worst:.3e}"
    assert time.perf_counter() - started < 1.0


def test_criterion_03_thermal_doublet_value():
    rng = np.random.default_rng(7)
    exponents = rng.uniform(-12.0, 1.0, size=500)
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    for exponent in exponents:
        state = DynamicState(n_p=float(10.0**exponent), d_photon2=0.0)
        assert abs(observables_of(state, params).g2_zero - 2.0) < 1e-12
    # The quotient is in fact exact, not merely within tolerance.
    thermal = DynamicState(n_p=0.37, d_photon2=0.0)
    assert observables_of(thermal, params).g2_zero == 2.0


def test_criterion_04_g2_dip_existence(dip_sweep):
    records, elapsed = dip_sweep
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"
    for multiple in DIP_G_MULTIPLES:
        lifetimes, with_term = dip_curve(records, multiple, FULL, "g2_zero")
        assert all(v is not None for v in with_term)
        k = int(np.argmin(with_term))
        assert 0 < k < len(with_term) - 1, (
            f"g = {multiple}: no interior g2 minimum "
            f"(argmin at lifetime {lifetimes[k]:.3g} ps)"
        )
        assert with_term[k] < with_term[0]
        assert with_term[k] < with_term[-1]

        _, without_term = dip_curve(
            records, multiple, NO_INVERSION, "g2_zero"
        )
        for a, b in zip(without_term, without_term[1:]):
            assert b - a >= -1e-9 * max(1.0, abs(a)), (
                f"g = {multiple}: g2 without the inversion term decreases"
            )

        _, two_on = dip_curve(records, multiple, FULL, "two_photon")
        _, two_off = dip_curve(
            records, multiple, NO_INVERSION, "two_photon"
        )
        for on, off in zip(two_on, two_off):
            assert off - on >= -1e-9 * max(abs(on), abs(off)), (
                f"g = {multiple}: removing the inversion term lowered "
                f"the two-photon moment"
            )


def test_criterion_05_output_monotone_in_coupling(dip_sweep):
    records, _ = dip_sweep
    for toggles in (FULL, NO_INVERSION):
        curves = {
            multiple: dip_curve(records, multiple, toggles, "output_rate")[1]
            for multiple in DIP_G_MULTIPLES
        }
        low = curves[DIP_G_MULTIPLES[0]]
        high = curves[DIP_G_MULTIPLES[1]]
        for tau, a, b in zip(DIP_LIFETIMES, low, high):
            assert b - a >= -1e-9 * max(abs(a), abs(b)), (
                f"output rate fell from g multiple 0.18 to 0.20 at "
                f"lifetime {tau:.3g} ps ({toggles})"
            )


def purity_constrained_optimum(records, g_multiple, toggles):
    """Lifetime and output rate of the brightest point on one lifetime
    curve among those that are physical and no less pure (g2(0) no larger)
    than the shortest lifetime, plus the lifetimes that qualified."""
    points = sorted(
        (r.cavity_lifetime, r.observables)
        for r in records
        if r.g_over_omega_r0 == g_multiple and r.toggles == toggles
    )
    edge_g2 = points[0][1].g2_zero
    admissible = [
        (tau, obs) for tau, obs in points
        if obs.physical and obs.g2_zero is not None
        and obs.g2_zero <= edge_g2
    ]
    tau, obs = max(admissible, key=lambda point: point[1].output_rate)
    return tau, obs.output_rate, [t for t, _ in admissible]


def test_criterion_06_interior_optimum_lifetime(dip_sweep):
    records, _ = dip_sweep
    lifetimes, photons = dip_curve(records, 0.20, FULL, "photon_number")
    for a, b in zip(photons, photons[1:]):
        assert b - a >= -1e-9 * max(1.0, abs(a)), (
            "n_p is not non-decreasing in lifetime"
        )
    _, outputs = dip_curve(records, 0.20, FULL, "output_rate")

    tau, rate, admissible = purity_constrained_optimum(records, 0.20, FULL)
    assert lifetimes[0] < tau < lifetimes[-1], (
        f"full: the brightest lifetime with g2(0) no larger than at "
        f"{lifetimes[0]:.3g} ps sits at the window edge ({tau:.3g} ps; "
        f"admissible lifetimes {[round(t, 3) for t in admissible]})"
    )
    assert rate >= 5.0 * outputs[0], (
        f"full: the purity-constrained optimum at {tau:.3g} ps emits "
        f"{rate:.3g}/ps, less than 5x the {outputs[0]:.3g}/ps at "
        f"{lifetimes[0]:.3g} ps"
    )

    _, _, admissible = purity_constrained_optimum(records, 0.20, NO_INVERSION)
    assert admissible == [lifetimes[0]], (
        f"no_inversion: lifetimes other than the {lifetimes[0]:.3g} ps edge "
        f"keep g2(0) at or below its edge value "
        f"({[round(t, 3) for t in admissible]}), so the optimum does not "
        f"depend on the inversion term"
    )


def test_criterion_07_coupling_strength_computation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        dipole = float(rng.uniform(1e-30, 1e-27))
        nu = float(rng.uniform(1e14, 1e16))
        index = float(rng.uniform(1.0, 4.0))
        volume = float(rng.uniform(1e-21, 1e-18))
        factor = float(rng.uniform(1.5, 7.0))
        base = coupling_strength(dipole, nu, index, volume)
        assert abs(
            coupling_strength(factor * dipole, nu, index, volume)
            - factor * base
        ) < 1e-12 * factor * base
        assert abs(
            coupling_strength(dipole, factor * nu, index, volume)
            - math.sqrt(factor) * base
        ) < 1e-12 * math.sqrt(factor) * base
        assert abs(
            coupling_strength(dipole, nu, index, factor * volume)
            - base / math.sqrt(factor)
        ) < 1e-12 * base / math.sqrt(factor)

    # Frozen regression value and its conventional scale.
    assert REFERENCE_COUPLING_RAD_PER_PS == FROZEN_COUPLING
    quoted = 0.025
    assert abs(
        REFERENCE_COUPLING_RAD_PER_PS / (2.0 * math.pi) / quoted - 1.0
    ) < 0.15

    # Independent recomputation from the raw constants.
    wavelength, index = 920e-9, 3.5
    volume = (wavelength / index) ** 3
    omega = 2.0 * math.pi * SPEED_OF_LIGHT / wavelength
    eps_b = VACUUM_PERMITTIVITY * index * index
    e_vac = math.sqrt(HBAR * omega / (2.0 * eps_b * volume))
    dipole = ELECTRON_CHARGE * 0.5e-9
    recomputed = dipole * e_vac / HBAR * 1e-12
    assert abs(recomputed - FROZEN_COUPLING) < 1e-12 * FROZEN_COUPLING


def test_criterion_08_oracle_integrity():
    started = time.perf_counter()
    params = default_params(
        g=0.2 * FROZEN_COUPLING, gamma_c=0.5, pump=0.1
    )

    # Trace preservation per application at the acceptance truncation, by
    # the full generator and by the oracle's own on the charge sector.
    space = HilbertSpace(16)
    gen = index_map_liouvillian(params, space)
    sector_gen = sector_generator(params, space)
    entries = charge_sector(space)
    rows, cols = np.divmod(entries, space.dim)
    rng = np.random.default_rng(3)
    for _ in range(3):
        A = rng.normal(size=(space.dim, space.dim)) \
            + 1j * rng.normal(size=(space.dim, space.dim))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        assert abs(np.trace(apply_liouvillian(gen, rho))) < 1e-12
        drho = sector_gen @ rho.reshape(-1)[entries]
        assert abs(drho[rows == cols].sum()) < 1e-12

    # Steady-state positivity at the same truncation.
    rho16 = steady_state_density(params, space)
    assert float(np.min(np.linalg.eigvalsh(rho16.elements))) >= -1e-10

    # Truncation convergence: the auto loop accepts n_max = 8 and doubling
    # it changes g2(0) far below the tolerance.
    obs, n_used = steady_observables_auto(params, n_max=8)
    assert n_used == 8
    obs16 = oracle_steady_observables(params, space)
    change = abs(obs16.g2_zero - obs.g2_zero) / obs.g2_zero
    assert change < 1e-6, f"g2 changed by {change:.3e} on doubling n_max"

    assert time.perf_counter() - started < 30.0


def test_criterion_09_weak_coupling_cross_validation():
    rabi = ReferenceRabi()
    params = default_params(
        g=rabi.coupling_for(0.1), gamma_c=1.0, pump=1e-3
    )
    cluster = steady_state(params, FULL, CFG)
    oracle, _ = steady_observables_auto(params)
    rel = abs(cluster.n_p - oracle.photon_number) / oracle.photon_number
    assert rel <= AGREEMENT_BAND, (
        f"photon number differs from the reference by {rel:.3f}, "
        f"band {AGREEMENT_BAND}"
    )


def test_criterion_10_determinism_and_parallel_equivalence():
    grid = SweepGrid.from_lifetimes(
        lifetimes_ps=(0.5, 2.0, 5.0),
        g_values=(0.18, 0.20),
        pump_values=(1.0,),
        toggle_variants=(FULL, NO_INVERSION),
    )
    base = default_params(g=0.2 * FROZEN_COUPLING, gamma_c=0.5, pump=1.0)

    def csv_bytes(workers):
        records = run_sweep(grid, base, CFG, workers=workers)
        table = SweepTable(tuple(records))
        text = "\n".join([table.header()] + table.csv_rows()) + "\n"
        return text.encode("utf-8")

    first = csv_bytes(workers=1)
    second = csv_bytes(workers=1)
    parallel = csv_bytes(workers=2)
    assert first == second
    assert first == parallel
