"""Abstract interface shared by every thermal TSV model."""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from .result import ModelResult


@dataclasses.dataclass(frozen=True)
class AssembledSystem:
    """One point's linear system, detached from its model for stacking.

    ``matrix`` (``(n, n)`` — dense ndarray or scipy.sparse) and ``rhs``
    (``(n,)``) are exactly what the model's own solve would pass to the
    matching back-end; ``finish`` turns the solved temperature vector
    back into the model's :class:`~repro.core.result.ModelResult`,
    bit-identical to a solo :meth:`ThermalTSVModel.solve` (wall-clock
    ``solve_time`` excepted).  A batch class is all-dense or all-sparse:
    dense systems ride the batched LAPACK call, sparse ones the
    block-diagonal natural-ordering factorisation.
    """

    matrix: Any
    rhs: np.ndarray
    finish: Callable[[np.ndarray], ModelResult]


class ThermalTSVModel(abc.ABC):
    """A steady-state thermal model of a TTSV-equipped 3-D stack.

    Concrete models implement :meth:`_solve`; the public :meth:`solve`
    validates the geometry first so all models reject the same bad inputs.
    """

    #: short identifier used in reports and sweeps
    name: str = "abstract"

    def solve(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> ModelResult:
        """Compute the steady-state temperature rises.

        Parameters
        ----------
        stack:
            The N-plane 3-D stack.
        via:
            A single TTSV or an Eq.-(22) cluster.
        power:
            Heat generation specification.
        """
        cluster = as_cluster(via)
        validate_tsv_in_stack(stack, cluster.member)
        return self._solve(stack, cluster, power)

    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of the assembled linear system, or None.

        The key identifies the system *matrix* a solve at (stack, via)
        assembles — everything except the power-dependent right-hand
        side.  Two points returning the same non-None key are guaranteed
        to share the exact matrix and may be dispatched as one
        :meth:`solve_batch` matrix group (factor once, back-substitute
        per point).  The default — models that do not declare a
        power-independent assembly — is ``None``, which simply opts the
        model out of matrix grouping.
        """
        return None

    def batch_class_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of the system's *structure*, or None.

        Coarser than :meth:`assembly_key`: two points returning the same
        non-None key assemble systems with the same node count and
        topology — possibly with entirely different coefficient values —
        and may be *stacked* into one batched solve via
        :meth:`assemble_system`: one batched dense LAPACK call
        (:func:`repro.network.solve.solve_dense_stacked`) for dense
        systems, one block-diagonal natural-ordering factorisation
        (:func:`repro.network.solve.solve_sparse_stacked`) for sparse
        ones.  A class must be homogeneous — all its members assemble
        dense or all sparse.  The default ``None`` opts the model out of
        stacking (models too large for either tier stay on the multi-RHS
        matrix-group plane instead).
        """
        return None

    def assemble_system(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> AssembledSystem | None:
        """Assemble this point's linear system for the stacked solve tier.

        Models returning a non-None :meth:`batch_class_key` must return an
        :class:`AssembledSystem` whose ``finish`` reproduces
        :meth:`solve`'s result bit-for-bit from the solved vector.  The
        default ``None`` means the point cannot be stacked and falls back
        to a solo :meth:`solve`.
        """
        return None

    def assemble_batch(
        self, members: Sequence[StackedMember]
    ) -> list[AssembledSystem] | None:
        """Assemble every member of one stacked batch, or None if any declines.

        :func:`solve_stacked` asks the first member's model; the default
        calls each member's own :meth:`assemble_system`.  A model may
        override it to stamp the whole batch at once, as long as each
        system equals its member's :meth:`assemble_system` bit for bit.
        """
        systems = []
        for model, stack, via, power in members:
            system = model.assemble_system(stack, via, power)
            if system is None:
                return None
            systems.append(system)
        return systems

    def solve_batch(
        self,
        stack: Stack3D,
        via: TSV | TSVCluster,
        powers: Sequence[PowerSpec],
    ) -> list[ModelResult]:
        """Solve one (stack, via) geometry under many power specs.

        Results are positionally aligned with ``powers`` and must be
        bit-for-bit identical to per-point :meth:`solve` calls (wall-clock
        ``solve_time`` excepted) — the matrix-batched scheduler relies on
        this to regroup work freely.  The default loops over
        :meth:`solve`; models with a power-independent assembly
        (see :meth:`assembly_key`) override it to factorise once.
        """
        return [self.solve(stack, via, power) for power in powers]

    @abc.abstractmethod
    def _solve(
        self, stack: Stack3D, via: TSVCluster, power: PowerSpec
    ) -> ModelResult:
        """Model-specific solve; ``via`` is already normalised to a cluster."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


#: one stacked-batch member: (model, stack, via, power)
StackedMember = tuple[
    "ThermalTSVModel", Stack3D, "TSV | TSVCluster", PowerSpec
]


def solve_stacked(members: Sequence[StackedMember]) -> list[ModelResult]:
    """Solve many structurally-congruent points as one batched solve.

    The first member's model assembles every member's system
    (:meth:`ThermalTSVModel.assemble_batch`).  An all-dense batch stacks
    into ``(m, n, n)`` / ``(m, n)`` arrays solved by one
    :func:`repro.network.solve.solve_dense_stacked` call; an all-sparse
    batch (small FEM meshes) runs through one block-diagonal
    :func:`repro.network.solve.solve_sparse_stacked` factorisation.
    Either way each member's ``finish`` rebuilds its
    :class:`ModelResult`; results are positionally aligned with
    ``members`` and bit-identical to per-member ``model.solve`` calls
    (wall-clock ``solve_time`` excepted).

    A batch that declines to assemble (``assemble_batch`` returning
    None) — or a dense/sparse mix, which a single
    :meth:`~ThermalTSVModel.batch_class_key` never produces — drops the
    whole batch back to per-member solo solves: a safety net, not a hot
    path.
    """
    import scipy.sparse as sp

    from ..network.solve import (  # local: avoid import cycle
        solve_dense_stacked,
        solve_sparse_stacked,
    )

    if not members:
        return []
    systems = members[0][0].assemble_batch(members)
    if systems is None:
        return [
            model.solve(stack, via, power) for model, stack, via, power in members
        ]
    sparse_count = sum(sp.issparse(s.matrix) for s in systems)
    if sparse_count == len(systems):
        temps = solve_sparse_stacked(
            [s.matrix for s in systems], [s.rhs for s in systems]
        )
    elif sparse_count:
        return [
            model.solve(stack, via, power)
            for model, stack, via, power in members
        ]
    else:
        temps = solve_dense_stacked(
            np.stack([s.matrix for s in systems]),
            np.stack([s.rhs for s in systems]),
        )
    return [system.finish(temps[i]) for i, system in enumerate(systems)]
