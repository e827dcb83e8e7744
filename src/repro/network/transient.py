"""Transient RC analysis of thermal networks (extension beyond the paper).

The paper's models are steady-state.  Attaching thermal capacitances
(C = ρ·cp·V) to the network nodes turns G·ΔT = q into
C·dΔT/dt + G·ΔT = q(t), which this module integrates with the
unconditionally stable backward-Euler scheme.  This is the standard
compact-transient extension and lets users ask, e.g., how fast a TTSV pulls
a power spike down.

Nodes without an explicit capacitance are treated as massless (their
equations stay algebraic), which backward Euler handles naturally.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from ..errors import SolverError, ValidationError
from ..units import require_positive, require_positive_int
from .circuit import ThermalCircuit
from .solve import factorized_solver
from .trajectory import TransientResult


def transient_lhs(circuit: ThermalCircuit, dt: float) -> sp.csr_matrix:
    """The backward-Euler left-hand matrix C/dt + G of a circuit.

    Power sources only enter the right-hand side, so this matrix — and
    hence its factorization — is the same at every drive level of one
    network.
    """
    require_positive("dt", dt)
    g = circuit.conductance_matrix(sparse=True)
    c = capacitance_vector(circuit)
    return (g + sp.diags(c / dt)).tocsr()


def capacitance_vector(circuit: ThermalCircuit) -> np.ndarray:
    """Per-node capacitance (J/K) aligned with ``circuit.nodes``."""
    c = np.zeros(circuit.n_nodes)
    for cap in circuit.capacitors:
        c[circuit.node_index(cap.node)] += cap.capacitance
    return c


def pulse_train_scales(
    t_end: float, n_steps: int, period_s: float, duty: float
) -> np.ndarray:
    """Per-step source scales of a rectangular pulse train (duty cycle).

    The square wave is sampled with a zero-order hold at each step's
    start: step ``k`` (covering ``(t_{k-1}, t_k]``) drives the sources at
    full power when ``t_{k-1}`` falls in the on-phase of its period —
    ``(t_{k-1} mod period_s) < duty * period_s`` — and at zero otherwise.
    ``duty`` is the on-fraction of each period; ``duty == 1.0`` keeps the
    drive on continuously, reproducing :func:`step_response`'s constant
    sources exactly (scaling by 1.0 is bitwise exact).
    """
    require_positive("t_end", t_end)
    require_positive_int("n_steps", n_steps)
    require_positive("period_s", period_s)
    if not 0.0 < duty <= 1.0:
        raise ValidationError(f"duty must be in (0, 1], got {duty!r}")
    starts = np.arange(n_steps) * (t_end / n_steps)
    return np.where(np.mod(starts, period_s) < duty * period_s, 1.0, 0.0)


def step_response(
    circuit: ThermalCircuit,
    *,
    t_end: float,
    n_steps: int = 200,
    step_solver: Callable[[np.ndarray], np.ndarray] | None = None,
    drive: Sequence[float] | np.ndarray | None = None,
) -> TransientResult:
    """Integrate the network from ΔT = 0 with the sources switched on at t=0.

    Backward Euler: (C/dt + G)·T_{k+1} = q + (C/dt)·T_k.  With any massless
    nodes the scheme degenerates to their algebraic KCL rows, which is the
    correct differential-algebraic limit.

    The left-hand matrix is constant across steps, so it is factorised
    exactly once (:func:`~repro.network.solve.factorized_solver`); every
    step then costs only the triangular back-substitutions.  Callers
    integrating several drive levels of one network pass a precomputed
    ``step_solver`` (``factorized_solver(transient_lhs(circuit, dt))``)
    so even the single factorization is shared — factorization is
    deterministic, so the trajectory is bit-identical either way.

    ``drive`` optionally shapes the sources in time: an ``(n_steps,)``
    array of non-negative scales, where step ``k`` integrates with
    sources ``drive[k-1] * q`` (zero-order hold per step; see
    :func:`pulse_train_scales` for the duty-cycle square wave).  The
    matrix is drive-independent — only the right-hand side changes — so
    every drive shape of one network shares the same factor.  ``None``
    is the constant step drive, and an all-ones array reproduces it
    bitwise.
    """
    require_positive("t_end", t_end)
    require_positive_int("n_steps", n_steps)
    circuit.validate()
    q = circuit.source_vector()
    c = capacitance_vector(circuit)
    dt = t_end / n_steps
    scales: np.ndarray | None = None
    if drive is not None:
        scales = np.asarray(drive, dtype=float)
        if scales.shape != (n_steps,):
            raise ValidationError(
                f"drive must have one scale per step ({n_steps},), got "
                f"shape {scales.shape}"
            )
        if not np.all(np.isfinite(scales)) or np.any(scales < 0.0):
            raise ValidationError("drive scales must be finite and >= 0")
    step_solve = (
        step_solver
        if step_solver is not None
        else factorized_solver(transient_lhs(circuit, dt))
    )

    times = np.linspace(0.0, t_end, n_steps + 1)
    temps = np.zeros((n_steps + 1, circuit.n_nodes))
    current = np.zeros(circuit.n_nodes)
    for k in range(1, n_steps + 1):
        q_k = q if scales is None else scales[k - 1] * q
        rhs = q_k + (c / dt) * current
        current = step_solve(rhs)
        temps[k] = current
    if not np.all(np.isfinite(temps)):
        raise SolverError("transient solve produced non-finite temperatures")
    return TransientResult(times=times, temperatures=temps, nodes=circuit.nodes)


def time_constants(circuit: ThermalCircuit, *, n: int = 5) -> np.ndarray:
    """The ``n`` slowest thermal time constants (seconds) of the network.

    Solves the generalised eigenproblem G·v = λ·C·v restricted to nodes
    that carry capacitance; τ = 1/λ.  Massless nodes are eliminated by
    Schur complement (Kron reduction), which preserves the dynamics seen
    from the massive nodes.
    """
    require_positive_int("n", n)
    circuit.validate()
    g = np.asarray(circuit.conductance_matrix(sparse=True).todense(), dtype=float)
    c = capacitance_vector(circuit)
    massive = np.where(c > 0.0)[0]
    if massive.size == 0:
        raise SolverError("no node carries capacitance; add Capacitor elements first")
    massless = np.where(c == 0.0)[0]
    g_mm = g[np.ix_(massive, massive)]
    if massless.size:
        g_ma = g[np.ix_(massive, massless)]
        g_aa = g[np.ix_(massless, massless)]
        g_am = g[np.ix_(massless, massive)]
        try:
            g_mm = g_mm - g_ma @ la.solve(g_aa, g_am)
        except la.LinAlgError as exc:
            raise SolverError("Kron reduction failed: massless block singular") from exc
    c_mm = np.diag(c[massive])
    eigenvalues = la.eigh(g_mm, c_mm, eigvals_only=True)
    eigenvalues = eigenvalues[eigenvalues > 1e-30]
    taus = np.sort(1.0 / eigenvalues)[::-1]
    return taus[:n]
