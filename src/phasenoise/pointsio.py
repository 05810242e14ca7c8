"""PSD point-set files: CSV with header ``freq_hz,level_db``."""

from __future__ import annotations

import csv

import numpy as np

from .timegen import write_csv


def load_points(path) -> np.ndarray:
    """Read a (n, 2) array of (frequency Hz, level dB) rows.

    Frequencies must be positive and strictly increasing, also in log10.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["freq_hz", "level_db"]:
            raise ValueError(f"{path}: expected header 'freq_hz,level_db'")
        for line in reader:
            if not line or line[0].lstrip().startswith("#"):
                continue
            if len(line) < 2:
                raise ValueError(f"{path}: line {reader.line_num}: expected freq_hz,level_db")
            try:
                rows.append((float(line[0]), float(line[1])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    pts = np.asarray(rows, dtype=float)
    if pts.size == 0:
        raise ValueError(f"{path}: no data rows")
    validate_points(pts)
    return pts


def validate_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (freq_hz, level_db)")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"point row {bad[0] + 1} is not finite: {pts[bad[0]].tolist()}")
    if np.any(pts[:, 0] <= 0):
        raise ValueError("point frequencies must be positive")
    if np.any(np.diff(np.log10(pts[:, 0])) <= 0):  # the fit works on log10(f)
        raise ValueError("point frequencies must be strictly increasing, also in log10")
    return pts


def save_points(points: np.ndarray, path) -> None:
    """Write the points as ``freq_hz,level_db`` CSV through ``timegen.write_csv``."""
    pts = validate_points(points)
    write_csv(path, {}, ["freq_hz", "level_db"], [(pts[:, 0], pts[:, 1])])
