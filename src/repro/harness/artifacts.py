"""Artifact cache: trained models and experiment results on disk.

Training the workload models takes minutes; every experiment that needs a
trained LeNet/Fang-CNN/VGG first consults this cache (keyed by model name,
spike-train length, weight bits, dataset size and seed), so re-running a
benchmark re-trains nothing.  Results are stored as JSON next to the
weights, so the paper-vs-model tables of :mod:`repro.harness.experiments`
(e.g. ``ExperimentRunner().run_table3(include_vgg=True)``) can be
regenerated without retraining.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.nn.network import Sequential

__all__ = ["ArtifactStore", "default_store"]

_DEFAULT_DIR = Path(
    os.environ.get("REPRO_ARTIFACTS", Path(__file__).resolve()
                   .parents[3] / "artifacts"))


class ArtifactStore:
    """Directory-backed cache for trained weights and result records."""

    def __init__(self, root: str | Path = _DEFAULT_DIR) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Trained weights
    # ------------------------------------------------------------------
    def _weights_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _scales_path(self, key: str) -> Path:
        return self.root / f"{key}.scales.json"

    def has_model(self, key: str) -> bool:
        return self._weights_path(key).exists()

    def save_model(self, key: str, model: Sequential) -> None:
        """Persist model parameters plus any QAT activation scales."""
        model.save(self._weights_path(key))
        scales = {}
        for i, layer in enumerate(model.layers):
            scale = getattr(layer, "scale", None)
            if scale is not None and hasattr(layer, "num_steps"):
                scales[str(i)] = float(scale)
        self._scales_path(key).write_text(json.dumps(scales))

    def load_model(self, key: str, model: Sequential) -> Sequential:
        """Restore parameters (and QAT scales) into a fresh ``model``."""
        model.load(self._weights_path(key))
        scales_file = self._scales_path(key)
        if scales_file.exists():
            scales = json.loads(scales_file.read_text())
            for idx, value in scales.items():
                model.layers[int(idx)].scale = value
        return model

    # ------------------------------------------------------------------
    # Result records
    # ------------------------------------------------------------------
    def _result_path(self, key: str) -> Path:
        return self.root / f"{key}.result.json"

    def has_result(self, key: str) -> bool:
        return self._result_path(key).exists()

    def save_result(self, key: str, payload: dict) -> None:
        self._result_path(key).write_text(
            json.dumps(payload, indent=2, default=_jsonify))

    def load_result(self, key: str) -> dict:
        return json.loads(self._result_path(key).read_text())

    def drop_result(self, key: str) -> None:
        """Remove a persisted result (e.g. one that failed validation)."""
        self._result_path(key).unlink(missing_ok=True)


def _jsonify(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def default_store() -> ArtifactStore:
    """The shared store under ``<repo>/artifacts`` (or $REPRO_ARTIFACTS)."""
    return ArtifactStore()
