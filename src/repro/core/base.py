"""Abstract interface shared by every thermal TSV model.

Besides :meth:`ThermalTSVModel.solve`, a model may join the one batching
contract of the execution plan: :meth:`~ThermalTSVModel.assembly_key`
and :meth:`~ThermalTSVModel.batch_class_key` say which points share a
matrix or a dense structure, and :meth:`~ThermalTSVModel.assemble_system` /
:meth:`~ThermalTSVModel.assemble_batch` lift their systems out, so
:func:`solve_stacked` can factor each distinct matrix once and stack the
remaining dense ones into one batched solve.
"""

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
    bit-identical to a solo
    :meth:`ThermalTSVModel.solve` (wall-clock ``solve_time`` excepted).
    Systems of one batch that hold the *same* matrix object form a
    shared-matrix set (see :func:`solve_stacked`).
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
        side.  Points returning the same non-None key share the exact
        matrix: in one stacked unit they form a shared-matrix set,
        factored once with one right-hand-side column per point (see
        :func:`solve_stacked`), and a model without a
        :meth:`batch_class_key` still forms one stacked unit per key.
        The default ``None`` declares no power-independent assembly.
        """
        return None

    def batch_class_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of the system's *structure*, or None.

        Coarser than :meth:`assembly_key`: two points returning the same
        non-None key assemble systems with the same node count and
        topology — possibly with entirely different coefficient values —
        and may be *stacked* into one batched dense LAPACK call
        (:func:`repro.network.solve.solve_dense_stacked`) via
        :meth:`assemble_batch`, so only models whose systems are dense
        declare one.  The default ``None`` opts the model out of
        cross-matrix stacking: its points batch only by
        :meth:`assembly_key`.
        """
        return None

    def assemble_system(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> AssembledSystem | None:
        """Assemble this point's linear system for the stacked solve tier.

        Models returning a non-None :meth:`batch_class_key` or
        :meth:`assembly_key` must return an :class:`AssembledSystem`
        whose ``finish`` reproduces :meth:`solve`'s result bit-for-bit
        from the solved vector.  The default ``None`` means the point
        cannot be stacked and falls back to a solo :meth:`solve`.
        """
        return None

    def assemble_batch(
        self, members: Sequence[StackedMember]
    ) -> list[AssembledSystem] | None:
        """Assemble every member of one stacked batch, or None if any declines.

        :func:`solve_stacked` asks the first member's model.  The default
        calls each member's own :meth:`assemble_system` and hands members
        with an equal :meth:`assembly_key` the first one's matrix object,
        so they solve as one shared-matrix set.  A model may override it
        to stamp the whole batch at once, as long as each system equals
        its member's :meth:`assemble_system` bit for bit.
        """
        systems = []
        for model, stack, via, power in members:
            system = model.assemble_system(stack, via, power)
            if system is None:
                return None
            systems.append(system)
        for first, *rest in shared_matrix_sets(members):
            for i in rest:
                systems[i] = dataclasses.replace(
                    systems[i], matrix=systems[first].matrix
                )
        return systems

    def solve_batch(
        self,
        stack: Stack3D,
        via: TSV | TSVCluster,
        powers: Sequence[PowerSpec],
    ) -> list[ModelResult]:
        """Solve one (stack, via) geometry under many power specs, one by one."""
        # no caller in the package: perfbench/tracer.py patches this name
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


def shared_matrix_sets(members: Sequence[StackedMember]) -> list[list[int]]:
    """Member indices grouped by equal :meth:`~ThermalTSVModel.assembly_key`.

    Sets come in first-seen order; a member without a key is a set of
    its own.  The key is hashed once per distinct (model, stack, via)
    object triple, which the members of a power sweep share.
    """
    keys: dict[tuple[int, int, int], str | None] = {}
    sets: dict[Any, list[int]] = {}
    for i, (model, stack, via, _) in enumerate(members):
        triple = (id(model), id(stack), id(via))
        if triple not in keys:
            keys[triple] = model.assembly_key(stack, via)
        key = keys[triple]
        sets.setdefault(i if key is None else key, []).append(i)
    return list(sets.values())


def solve_stacked(members: Sequence[StackedMember]) -> list[ModelResult]:
    """Solve one stacked unit: each matrix factored once, dense rest stacked.

    The first member's model assembles every member's system
    (:meth:`ThermalTSVModel.assemble_batch`).  Systems holding one matrix
    object form a *shared-matrix set*: the matrix is factored once and
    the set's right-hand sides are back-substituted as the columns of
    one block (:func:`repro.network.solve.solve_sparse_multi` or
    :func:`repro.network.solve.solve_dense_multi`).  Every sparse matrix
    is such a set, of one member if need be, so it gets the banded
    factor its solo solve uses.  A dense matrix of its own joins one
    :func:`repro.network.solve.solve_dense_stacked` call, per item the
    same ``gesv`` as a solo solve.  Each member's ``finish`` rebuilds its
    :class:`ModelResult`; results are positionally aligned with
    ``members`` and bit-identical to per-member ``model.solve`` calls
    (wall-clock ``solve_time`` excepted).

    A batch that declines to assemble (``assemble_batch`` returning
    None) drops back to per-member solo solves: a safety net, not a hot
    path.
    """
    import scipy.sparse as sp

    from ..network.solve import (  # local: avoid import cycle
        solve_dense_multi,
        solve_dense_stacked,
        solve_sparse_multi,
    )

    if not members:
        return []
    systems = members[0][0].assemble_batch(members)
    if systems is None:
        return [
            model.solve(stack, via, power) for model, stack, via, power in members
        ]
    by_matrix: dict[int, list[int]] = {}
    for i, system in enumerate(systems):
        by_matrix.setdefault(id(system.matrix), []).append(i)
    rest: list[int] = []
    sets: list[list[int]] = []
    for indices in by_matrix.values():
        if len(indices) == 1 and not sp.issparse(systems[indices[0]].matrix):
            rest.append(indices[0])
        else:
            sets.append(indices)
    temps: list[Any] = [None] * len(systems)
    for indices in sets:
        first = systems[indices[0]]
        block = np.column_stack([systems[i].rhs for i in indices])
        if sp.issparse(first.matrix):
            solved = solve_sparse_multi(first.matrix, block)
        else:
            solved = solve_dense_multi(first.matrix, block)
        for j, i in enumerate(indices):
            temps[i] = solved[:, j]
    if rest:
        stacked = solve_dense_stacked(
            np.stack([systems[i].matrix for i in rest]),
            np.stack([systems[i].rhs for i in rest]),
        )
        for j, i in enumerate(rest):
            temps[i] = stacked[j]
    return [system.finish(t) for system, t in zip(systems, temps)]
