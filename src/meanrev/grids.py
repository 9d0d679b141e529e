"""Small container for 2D parameter-sweep outputs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SensitivityGrid:
    """Scalar outputs over a 2D grid of swept parameters.

    NaN cells are allowed only with a recorded reason in ``failures``.  The
    sweeps build every grid, so a wrong shape or an unexplained NaN is a
    defect of the package, not of a config, and raises a plain ``ValueError``.
    """

    axis1_name: str
    axis1: np.ndarray
    axis2_name: str
    axis2: np.ndarray
    cells: np.ndarray
    metadata: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)  # (i, j) -> reason

    def __post_init__(self):
        self.axis1 = np.asarray(self.axis1, dtype=float)
        self.axis2 = np.asarray(self.axis2, dtype=float)
        self.cells = np.asarray(self.cells, dtype=float)
        if self.cells.shape != (self.axis1.size, self.axis2.size):
            raise ValueError(
                f"cells shape {self.cells.shape} does not match axes "
                f"({self.axis1.size}, {self.axis2.size})"
            )
        bad_nans = {
            (i, j)
            for i, j in zip(*np.where(np.isnan(self.cells)))
            if (int(i), int(j)) not in self.failures
        }
        if bad_nans:
            raise ValueError(f"NaN cells without a recorded reason: {sorted(bad_nans)}")

    def rows(self):
        """(axis1 value, axis2 value, cell) triples in row-major order."""
        for i, a in enumerate(self.axis1):
            for j, b in enumerate(self.axis2):
                yield float(a), float(b), float(self.cells[i, j])
