"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """One or more parameter invariants are violated.

    Carries every violation, not just the first, so a bad configuration can
    be fixed in a single pass. Each entry in ``problems`` starts with the
    name of the offending field followed by a colon.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class SolverError(RuntimeError):
    """Base class for integration failures.

    Raised itself when a march uses up its step budget.
    """


class StiffnessFailure(SolverError):
    """The error controller drove the step size below the hard floor."""


class NonFiniteState(SolverError):
    """A state component became NaN or infinite during integration."""


class NotConverged(SolverError):
    """No steady state was reached within the time budget.

    Attributes:
        max_time: the time budget that was exhausted, in ps.
        last_state: a finite state: the one that the flow linearised at
            the last root found reaches at max_time if that flow decays,
            the root itself if it does not, and vacuum if no root was found.
        residual: the scaled residual at that state.
        reason: why the solve was refused, in one phrase: no root was
            reached, the last root found is unstable (with its growth rate
            max Re lambda), or it is stable but was not certified (with its
            slowest rate).
    """

    def __init__(self, max_time, last_state, residual, reason):
        self.max_time = max_time
        self.last_state = last_state
        self.residual = residual
        self.reason = reason
        super().__init__(
            f"no steady state within {max_time:g} ps: {reason} "
            f"(last scaled residual {residual:.3e})"
        )


class OracleError(RuntimeError):
    """Base class for reference-model failures."""


class TruncationTooSmall(OracleError):
    """The top Fock level carries non-negligible population.

    Attributes:
        n_max: the photon-number truncation that was rejected.
        top_population: population found in the top Fock level.
    """

    def __init__(self, n_max, top_population):
        self.n_max = n_max
        self.top_population = top_population
        super().__init__(
            f"top Fock level n={n_max} holds population {top_population:.3e} "
            f"(limit 1e-8); increase n_max"
        )


class SingularSteadyState(OracleError):
    """The generator's null space is not one-dimensional."""


class MalformedSteadyState(OracleError):
    """The reference steady state fails a check: Hermiticity, unit trace or
    positivity."""


class ConfigError(ValueError):
    """A configuration file failed to parse or validate.

    Attributes:
        line: 1-based line number in the source text, when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
