"""Engine variants shared by the engine test files."""

from dataclasses import replace

from repro.core.engine.sparse import SparseEngine


class UnroutedSparse(SparseEngine):
    """The sparse engine with batch routing pinned off: every batch,
    however dense, runs on the sparse hooks."""

    def apply_thresholds(self, thresholds):
        super().apply_thresholds(replace(thresholds, route_density=1.0))
