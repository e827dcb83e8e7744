"""Content keys: stable digests of models, geometries and coefficient fits.

A sweep point is fully described by (model configuration, stack, via,
power), all plain frozen dataclasses, so its pickle bytes digest to a
key that names the solve wherever it appears: the execution plan's
nodes and the run store's point space.  This module needs neither numpy nor scipy, so
the models and the scenario layer can key work without loading a
solver.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any


def content_key(*parts: Any) -> str | None:
    """Stable digest of arbitrary (picklable) values, or None if unhashable.

    Geometry objects are frozen dataclasses of floats/tuples, so their
    pickle bytes are deterministic within a process; the blake2b digest of
    those bytes keys the plan's nodes and the store's points.  Anything
    unpicklable (open handles, closures) returns ``None`` and the caller
    leaves the value unkeyed.
    """
    try:
        payload = pickle.dumps(parts, protocol=4)
    except Exception:
        return None
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def model_key(model: Any) -> str | None:
    """Content digest of a model's type and configuration, or None."""
    try:
        state = vars(model)
    except TypeError:
        state = getattr(model, "name", repr(model))
    return content_key(type(model).__module__, type(model).__qualname__, state)


def solve_key(model: Any, stack: Any, via: Any, power: Any) -> str | None:
    """Content key of one (model, geometry, power) solve, or None."""
    mkey = model_key(model)
    if mkey is None:
        return None
    return content_key(mkey, stack, via, power)


def calibration_key(
    reference_key: str | None, sample_keys: Any, name: str
) -> str | None:
    """Identity of one coefficient fit: reference config + sample solves.

    It keys the execution plan's CalibrationNode.  ``sample_keys`` are
    the reference solve keys at the calibration samples, in sample order;
    any missing piece (unpicklable model) disables the identity.
    """
    if reference_key is None:
        return None
    sample_keys = tuple(sample_keys)
    if any(key is None for key in sample_keys):
        return None
    return content_key("calibration/v1", reference_key, sample_keys, name)

