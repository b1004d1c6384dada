"""JSON (de)serialization for operators, measurements, states and certificates.

Complex entries are two-element ``[re, im]`` arrays; matrices are arrays of
rows. Floats rely on Python's shortest-repr JSON encoding, which round-trips
``float64`` exactly.

File schemas:

* measurement: ``{"dim": d, "elements": [matrix, ...], "kraus": [[matrix, ...], ...]?}``
* state: ``{"dim": d, "rho": matrix}``
* subspace: ``{"dim": d, "basis": [vector, ...]}``
* distribution: ``{"probs": [...], "volumes": [...]}``
* joint: ``{"matrix": [[...]]}``
* certificate: ``{"feasible": bool, "P": [[...]] | null, "residual": r,
  "phase1_optimum": v, "volume_slack": [...] | null, ...}``; ``phase1_optimum``
  is ``null`` when no LP ran, and a non-feasible classical certificate adds
  ``"separation": {"threshold": t, "slack": s, "volume_gap": g}``
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .coarseness import CoarsenessCertificate
from .distributions import JointDistribution, WeightedDistribution
from .errors import ValidationError
from .measurements import GeneralizedMeasurement, validate_measurement
from .operators import DensityMatrix, Subspace, _vector_columns
from .tolerances import BUILD_ATOL


def complex_matrix_to_json(mat) -> list:
    """A complex matrix, or a stack of them, as nested lists ending in ``[re, im]`` pairs."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def _json_numbers(entries, name: str) -> np.ndarray:
    """Decode nested JSON arrays of numbers as a float array.

    Raises :class:`ValidationError` unless every entry is a JSON number:
    numpy's float conversion alone would read ``"1"``, ``true`` and ``null``
    as 1.0, 1.0 and nan, and a ragged array leaves a list where a number
    should be.
    """
    for entry in np.asarray(entries, dtype=object).flat:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ValidationError(f"{name}: entry {entry!r} is not a number")
    try:
        return np.asarray(entries, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{name}: an integer entry is too large for a float") from exc


def _complex_from_json(entries, ndim: int, name: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs nested ``ndim`` deep: 2 for a matrix, 1 for a vector."""
    arr = _json_numbers(entries, name)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        shape = "rows of [re, im] pairs" if ndim == 2 else "[re, im] pairs"
        raise ValidationError(f"{name}: expected {shape}, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def complex_matrix_from_json(rows, *, name: str = "matrix") -> np.ndarray:
    return _complex_from_json(rows, 2, name)


def measurement_to_dict(measurement: GeneralizedMeasurement) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "dim": measurement.dim,
        "elements": complex_matrix_to_json(measurement.stacked()),
    }
    if measurement.kraus is not None:
        payload["kraus"] = [complex_matrix_to_json(group) for group in measurement.kraus]
    return payload


def _check_declared_dim(payload: dict, size: int, what: str) -> None:
    """Raise :class:`ValidationError` unless the optional ``dim`` is an integer equal to ``size``."""
    declared = payload.get("dim")
    if declared is None:
        return
    if isinstance(declared, bool) or not isinstance(declared, int):
        raise ValidationError(f"declared dim must be an integer, got {declared!r}")
    if declared != size:
        raise ValidationError(f"declared dim {declared} does not match {what} {size}")


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be an array, got {type(value).__name__}")
    return value


def measurement_from_dict(payload: dict, *, atol: float = BUILD_ATOL) -> GeneralizedMeasurement:
    if not isinstance(payload, dict) or "elements" not in payload:
        raise ValidationError("measurement file needs an 'elements' array")
    elements = [
        complex_matrix_from_json(e, name=f"element {k}")
        for k, e in enumerate(_json_list(payload["elements"], "'elements'"))
    ]
    kraus = None
    if payload.get("kraus") is not None:
        kraus = [
            [
                complex_matrix_from_json(k, name=f"Kraus {i}.{m}")
                for m, k in enumerate(_json_list(group, f"Kraus group {i}"))
            ]
            for i, group in enumerate(_json_list(payload["kraus"], "'kraus'"))
        ]
    if elements:
        _check_declared_dim(payload, elements[0].shape[0], "element dimension")
    return validate_measurement(elements, kraus, atol=atol)


def state_to_dict(rho: DensityMatrix) -> dict[str, Any]:
    return {"dim": rho.dim, "rho": complex_matrix_to_json(rho.matrix)}


def state_from_dict(payload: dict, *, atol: float = BUILD_ATOL) -> DensityMatrix:
    if not isinstance(payload, dict) or "rho" not in payload:
        raise ValidationError("state file needs a 'rho' matrix")
    mat = complex_matrix_from_json(payload["rho"], name="rho")
    _check_declared_dim(payload, mat.shape[0], "matrix")
    return DensityMatrix(mat, atol=atol)


def subspace_to_dict(subspace: Subspace) -> dict[str, Any]:
    return {
        "dim": subspace.dim,
        "basis": complex_matrix_to_json(subspace.basis.T),
    }


def subspace_from_dict(payload: dict) -> Subspace:
    if not isinstance(payload, dict) or "basis" not in payload:
        raise ValidationError("subspace file needs a 'basis' array")
    vectors = [
        _complex_from_json(v, 1, f"basis vector {k}")
        for k, v in enumerate(_json_list(payload["basis"], "'basis'"))
    ]
    basis = _vector_columns(vectors)
    _check_declared_dim(payload, basis.shape[0], "vectors of length")
    return Subspace(basis)


def distribution_to_dict(w: WeightedDistribution) -> dict[str, Any]:
    return {"probs": [float(x) for x in w.probs], "volumes": [float(x) for x in w.volumes]}


def distribution_from_dict(payload: dict) -> WeightedDistribution:
    if not isinstance(payload, dict) or "probs" not in payload or "volumes" not in payload:
        raise ValidationError("distribution file needs 'probs' and 'volumes'")
    probs = _json_numbers(_json_list(payload["probs"], "'probs'"), "probs")
    volumes = _json_numbers(_json_list(payload["volumes"], "'volumes'"), "volumes")
    return WeightedDistribution(probs, volumes)


def joint_to_dict(joint: JointDistribution) -> dict[str, Any]:
    return {"matrix": [[float(x) for x in row] for row in joint.matrix]}


def joint_from_dict(payload: dict) -> JointDistribution:
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise ValidationError("joint file needs a 'matrix'")
    return JointDistribution(_json_numbers(payload["matrix"], "matrix"))


def _jsonable_float(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


def certificate_to_dict(cert: CoarsenessCertificate) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "feasible": cert.feasible,
        "verdict": cert.verdict,
        "P": None if cert.witness is None else [[float(x) for x in row] for row in cert.witness.matrix],
        "residual": _jsonable_float(cert.residual),
        "phase1_optimum": _jsonable_float(cert.phase1_optimum),
        "volume_slack": None if cert.volume_slack is None else [float(x) for x in cert.volume_slack],
    }
    if cert.coarse_outcomes is not None:
        payload["coarse_outcomes"] = list(cert.coarse_outcomes)
        payload["fine_outcomes"] = list(cert.fine_outcomes)
    if cert.extension is not None:
        payload["extension"] = [[float(x) for x in row] for row in cert.extension.matrix]
    if cert.separation is not None:
        payload["separation"] = {
            name: _jsonable_float(value) for name, value in dataclasses.asdict(cert.separation).items()
        }
    return payload


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj: Any, path=None) -> str:
    text = json.dumps(obj, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
