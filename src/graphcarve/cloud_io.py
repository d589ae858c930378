"""Point-cloud file formats: CSV with x1..xd,weight header and JSON."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .cloud import WeightedCloud, _reach, row_dots
from .errors import InputError

SCHEMA = "graphcarve/1"  # every JSON file the package writes


def estimate_delta_res(coords: np.ndarray) -> float:
    """Smallest pairwise distance, a usable default resolution: the kd-tree's
    nearest-neighbour distances bound it, and every pair within a hair of that
    bound is measured exactly, so the result equals a dense scan's."""
    if len(coords) < 2:
        raise InputError("cannot estimate a resolution from fewer than two points")
    tree = cKDTree(coords)
    nearest = float(tree.query(coords, k=2)[0][:, 1].min())
    pairs = tree.query_pairs(_reach(nearest, float(np.abs(coords).max())),
                             output_type="ndarray")
    return float(np.sqrt(row_dots(coords[pairs[:, 0]] - coords[pairs[:, 1]]).min()))


def save_cloud_csv(cloud: WeightedCloud, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(cloud.d)] + ["weight"])
        for row, w in zip(cloud.coords, cloud.weights):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(w))])


def load_cloud_csv(path, n: int, delta_res: float | None = None) -> WeightedCloud:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "weight" or not header[0].startswith("x"):
            raise InputError(f"{path}: expected header x1,...,xd,weight")
        d = len(header) - 1
        rows = []
        for row in filter(None, reader):
            if len(row) != d + 1:
                raise InputError(f"{path}: row {reader.line_num} has {len(row)} cells, "
                                 f"the header {d + 1}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    data = np.asarray(rows)
    coords, weights = data[:, :d], data[:, d]
    if delta_res is None:
        delta_res = estimate_delta_res(coords)
    return WeightedCloud(coords, weights, n=n, delta_res=delta_res)


def save_cloud_json(cloud: WeightedCloud, path) -> None:
    payload = {
        "schema": SCHEMA,
        "d": cloud.d,
        "n": cloud.n,
        "delta_res": cloud.delta_res,
        "points": [{"x": list(map(float, x)), "w": float(w)}
                   for x, w in zip(cloud.coords, cloud.weights)],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def read_cloud_json(path) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Coordinates, weights, n and delta_res of a JSON cloud file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    for key in ("d", "n", "delta_res", "points"):
        if not isinstance(data, dict) or key not in data:
            raise InputError(f"{path}: missing field {key!r}")
    for key in ("d", "n"):
        if type(data[key]) is not int:
            raise InputError(f"{path}: field {key!r} must be an integer, got {data[key]!r}")
    if type(data["delta_res"]) not in (int, float) or not 0 < data["delta_res"] < np.inf:
        raise InputError(f"{path}: field 'delta_res' must be positive and finite, "
                         f"got {data['delta_res']!r}")
    if not isinstance(data["points"], list) or not data["points"]:
        raise InputError(f"{path}: 'points' must be a non-empty list")
    coords, weights = [], []
    for i, point in enumerate(data["points"]):
        if not isinstance(point, dict) or not {"x", "w"} <= point.keys():
            raise InputError(f"{path}: point {i} needs the fields 'x' and 'w'")
        try:
            coords.append(np.asarray(point["x"], dtype=float))
            weights.append(float(point["w"]))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: point {i}: {exc}") from None
        if coords[-1].shape != (data["d"],):
            raise InputError(f"{path}: point {i} has shape {coords[-1].shape}, "
                             f"not d = {data['d']} coordinates")
    return np.array(coords), np.array(weights), data["n"], float(data["delta_res"])


def load_cloud_json(path) -> WeightedCloud:
    return WeightedCloud(*read_cloud_json(path))


def load_cloud(path, n: int | None = None, delta_res: float | None = None) -> WeightedCloud:
    """Dispatch on extension: .json is self-contained, .csv needs n."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"cloud file not found: {path}")
    if path.suffix.lower() == ".json":
        return load_cloud_json(path)
    if path.suffix.lower() == ".csv":
        if n is None:
            raise InputError("loading CSV requires the intrinsic dimension n")
        return load_cloud_csv(path, n=n, delta_res=delta_res)
    raise InputError(f"unrecognized cloud file extension: {path.suffix!r}")
