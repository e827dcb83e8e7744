"""Model factory: build any model (or reference) from a short spec string.

This is the model grammar of the declarative scenario subsystem
(:mod:`repro.scenarios`): scenario files name their models and reference
with these strings, and CLI-ish entry points use them directly.

==================  =====================================================
spec                model
==================  =====================================================
``a``               Model A with the paper's block coefficients
``a:paper``         same, explicitly
``a:unity``         Model A with k1 = k2 = c = 1 (coefficient-free)
``a:case``          Model A with the case-study coefficients
``a:1.6,0.8[,3.5]`` Model A with explicit (k1, k2[, c_bond])
``b``               Model B, 100 segments
``b:500``           Model B, 500 segments (paper per-plane split)
``b:50,500,500``    Model B with an explicit per-plane SegmentScheme
``1d``              the 1-D baseline
``fem``             FEM reference, medium mesh (axisymmetric)
``fem:coarse``      FEM reference at a named preset (coarse/medium/fine)
``fem:36x90``       FEM reference at an explicit (nr, nz) mesh
``fem3d[:...]``     the Cartesian FEM cross-check (presets or NxNxN mesh)
==================  =====================================================

Prefixing ``model_`` (``model_a``, ``model_b:100``, …) is accepted
everywhere.  :func:`parse_model_spec` validates a spec without building
the model — scenario validation uses it so bad grammar fails at load
time, not mid-sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ValidationError
from ..resistances.fitting import FittingCoefficients
from .segments import SegmentScheme

if TYPE_CHECKING:
    from .base import ThermalTSVModel

#: names a spec string may start with (after an optional ``model_`` prefix)
MODEL_KINDS = ("a", "b", "1d", "fem", "fem3d")

_FEM_PRESETS = ("coarse", "medium", "fine")
_A_NAMED_FITS = {
    "": None,
    "paper": FittingCoefficients.paper_block,
    "unity": FittingCoefficients.unity,
    "case": FittingCoefficients.paper_case_study,
}


@dataclass(frozen=True)
class ParsedModelSpec:
    """A validated spec string: the model kind plus its parsed argument."""

    kind: str
    arg: Any  # kind-specific: coefficients, segment counts, mesh preset…


def parse_model_spec(spec: str) -> ParsedModelSpec:
    """Validate a model spec string without constructing the model.

    Raises :class:`~repro.errors.ValidationError` on unknown names or
    malformed arguments; returns the parsed (kind, argument) pair.
    """
    if not isinstance(spec, str) or not spec:
        raise ValidationError(f"model spec must be a non-empty string, got {spec!r}")
    name, _, arg = spec.lower().partition(":")
    name = name.removeprefix("model_")
    if name == "a":
        if arg in _A_NAMED_FITS:
            return ParsedModelSpec("a", arg)
        parts = arg.split(",")
        if len(parts) not in (2, 3):
            raise ValidationError(
                f"model A argument must be 'paper', 'unity', 'case' or "
                f"'k1,k2[,c_bond]', got {spec!r}"
            )
        try:
            coeffs = tuple(float(p) for p in parts)
        except ValueError:
            raise ValidationError(
                f"model A coefficients must be numbers, got {spec!r}"
            ) from None
        return ParsedModelSpec("a", FittingCoefficients(*coeffs))
    if name == "b":
        if not arg:
            return ParsedModelSpec("b", None)
        try:
            counts = tuple(int(p) for p in arg.split(","))
        except ValueError:
            raise ValidationError(
                f"model B argument must be a segment count or a comma-separated "
                f"per-plane list, got {spec!r}"
            ) from None
        if len(counts) == 1:
            if counts[0] < 1:
                raise ValidationError(
                    f"model B segment count must be >= 1, got {spec!r}"
                )
            return ParsedModelSpec("b", counts[0])
        return ParsedModelSpec("b", SegmentScheme(counts))
    if name == "1d":
        if arg:
            raise ValidationError(f"model 1D takes no :argument, got {spec!r}")
        return ParsedModelSpec("1d", None)
    if name in ("fem", "fem3d"):
        ndim = 2 if name == "fem" else 3
        if not arg:
            return ParsedModelSpec(name, "medium")
        if arg in _FEM_PRESETS:
            return ParsedModelSpec(name, arg)
        try:
            cells = tuple(int(p) for p in arg.split("x"))
        except ValueError:
            cells = ()
        if len(cells) != ndim or any(c < 2 for c in cells):
            raise ValidationError(
                f"{name} argument must be one of {list(_FEM_PRESETS)} or an "
                f"explicit {'x'.join(['N'] * ndim)} mesh with >= 2 cells per "
                f"dimension, got {spec!r}"
            )
        return ParsedModelSpec(name, cells)
    raise ValidationError(
        f"unknown model spec {spec!r}; use one of {list(MODEL_KINDS)} "
        f"(optionally with a :argument)"
    )


def make_model(spec: str, **kwargs) -> ThermalTSVModel:
    """Create a model from a spec string (see the module grammar table).

    Extra keyword arguments are forwarded to the model constructor (e.g.
    ``make_model("b:100", scheme="uniform")``).  The model classes are
    imported here, not with this module, so validating a spec with
    :func:`parse_model_spec` loads no model code.
    """
    parsed = parse_model_spec(spec)
    if parsed.kind == "a":
        from .model_a import ModelA

        if isinstance(parsed.arg, str):
            named = _A_NAMED_FITS[parsed.arg]
            if named is not None:
                kwargs.setdefault("fit", named())
        else:
            kwargs.setdefault("fit", parsed.arg)
        return ModelA(**kwargs)
    if parsed.kind == "b":
        from .model_b import ModelB

        if parsed.arg is not None:
            kwargs.setdefault("segments", parsed.arg)
        return ModelB(**kwargs)
    if parsed.kind == "1d":
        from .model_1d import Model1D

        return Model1D(**kwargs)
    from ..fem import FEMReference

    solver = "axisym" if parsed.kind == "fem" else "cartesian"
    return FEMReference(parsed.arg, solver=solver, **kwargs)
