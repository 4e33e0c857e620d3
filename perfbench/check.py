"""Correctness checks on one command's output directory.

Every check names the study cells it condemns; a cell is one
network x treatment x gamma. Structural checks hold for any seed. For
the reference seed the tables are also compared with the reference
outputs stored under ``reference/``: integer and text columns exactly,
float columns within ``REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
TABLES = ("curves.csv", "fits.csv", "correlations.csv", "manifest.csv")
INT_COLUMNS = {"distance", "n_pairs", "d_min", "d_max", "order", "n_dyads", "n", "edges", "diameter"}
TEXT_COLUMNS = {"network", "treatment", "status", "src", "dst", "dist"}
# every DYAD_SAMPLE_STEP-th line of a dyads file is kept as its reference
DYAD_SAMPLE_STEP = 997

Cell = tuple[str, str, float]


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _records(path: Path) -> list[dict[str, str]]:
    header, rows = read_table(path)
    return [dict(zip(header, row)) for row in rows]


def _cell(record: dict[str, str]) -> Cell:
    return record["network"], record["treatment"], float(record["gamma"])


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


class Verdict:
    """Failed cells of one command, each with the first reason found."""

    def __init__(self, expected: list[Cell]) -> None:
        self.expected = expected
        self.reasons: dict[Cell, str] = {}

    def fail(self, cell: Cell, reason: str) -> None:
        self.reasons.setdefault(cell, reason)

    def fail_network(self, network: str, reason: str) -> None:
        for cell in self.expected:
            if cell[0] == network:
                self.fail(cell, reason)

    def fail_all(self, reason: str) -> None:
        for cell in self.expected:
            self.fail(cell, reason)


def check_study_tables(out: Path, verdict: Verdict, orders: tuple[int, ...]) -> dict[Cell, dict]:
    """Every expected cell present, self-consistent and within range.

    Returns each cell's curve as ``{distance: (mean_impact, n_pairs)}``.
    """
    tables = {}
    for name in ("curves.csv", "fits.csv", "correlations.csv"):
        try:
            tables[name] = _records(out / name)
        except (OSError, IndexError, ValueError) as exc:
            verdict.fail_all(f"{name} unreadable: {exc}")
            return {}
    expected = set(verdict.expected)
    curves: dict[Cell, dict] = defaultdict(dict)
    fits: dict[Cell, int] = defaultdict(int)
    correlations: dict[Cell, dict[int, tuple[float, int]]] = defaultdict(dict)
    try:
        for name, records in tables.items():
            for record in records:
                cell = _cell(record)
                if cell not in expected:
                    verdict.fail_all(f"{name} has a row for unexpected cell {cell}")
                    return {}
                if name == "curves.csv":
                    curves[cell][int(record["distance"])] = (
                        float(record["mean_impact"]),
                        int(record["n_pairs"]),
                    )
                elif name == "fits.csv":
                    fits[cell] += 1
                else:
                    correlations[cell][int(record["order"])] = (
                        float(record["pearson_r"]),
                        int(record["n_dyads"]),
                    )
    except (KeyError, ValueError) as exc:
        verdict.fail_all(f"{name} is malformed: {exc!r}")
        return {}
    for cell in verdict.expected:
        curve = curves.get(cell)
        if not curve:
            verdict.fail(cell, "no curve")
            continue
        if min(curve) < 1:
            verdict.fail(cell, "curve has a distance below 1")
        if any(not (math.isfinite(m) and m > 0.0) or k < 1 for m, k in curve.values()):
            verdict.fail(cell, "curve has a non-positive mean or pair count")
        if fits[cell] != 1:
            verdict.fail(cell, f"{fits[cell]} fit rows")
        if sorted(correlations[cell]) != sorted(orders):
            verdict.fail(cell, f"correlation orders {sorted(correlations[cell])}")
        pairs = sum(k for _, k in curve.values())
        for r, n_dyads in correlations[cell].values():
            if not -1.0 <= r <= 1.0:
                verdict.fail(cell, f"pearson_r {r!r} outside [-1, 1]")
            if n_dyads != pairs:
                verdict.fail(cell, f"n_dyads {n_dyads} != sum of n_pairs {pairs}")
    return curves


def check_manifest(out: Path, verdict: Verdict, networks) -> None:
    try:
        records = {record["network"]: record for record in _records(out / "manifest.csv")}
    except (OSError, IndexError, ValueError) as exc:
        verdict.fail_all(f"manifest.csv unreadable: {exc}")
        return
    for network in networks:
        name = network.path.stem
        record = records.get(name)
        if record is None:
            verdict.fail_network(name, "missing from manifest")
        elif record["status"] != "ok":
            verdict.fail_network(name, f"manifest status {record['status']!r}")
        elif (record["n"], record["edges"]) != (str(network.n), str(network.edges)):
            verdict.fail_network(name, "manifest size differs from the input")
        elif not record["diameter"].isdigit() or int(record["diameter"]) < 1:
            verdict.fail_network(name, "manifest diameter below 1")


def load_dyads(path: Path) -> tuple[str, np.ndarray]:
    with open(path) as handle:
        header = handle.readline().strip()
        values = np.loadtxt(handle, delimiter=",", dtype=float, ndmin=2)
    return header, values


def check_dyads(path: Path, verdict: Verdict, cell: Cell, n: int, curve: dict,
                orders: tuple[int, ...]) -> None:
    """All n(n-1) ordered pairs, and per distance the curve's mean and count."""
    try:
        header, values = load_dyads(path)
    except (OSError, ValueError) as exc:
        verdict.fail(cell, f"dyads file unreadable: {exc}")
        return
    expected_header = ",".join(["src", "dst", "dist", "exact"] + [f"approx{o}" for o in orders])
    if header != expected_header:
        verdict.fail(cell, f"dyads header {header!r}")
        return
    if values.shape[0] != n * (n - 1):
        verdict.fail(cell, f"{values.shape[0]} dyad rows, expected {n * (n - 1)}")
        return
    if not np.isfinite(values[:, 3:]).all():
        verdict.fail(cell, "non-finite impact in dyads file")
        return
    finite = np.isfinite(values[:, 2])
    hops = values[finite, 2].astype(np.int64)
    counts = np.bincount(hops)
    sums = np.bincount(hops, weights=values[finite, 3])
    for d in np.nonzero(counts)[0]:
        mean, pairs = curve.get(int(d), (None, None))
        if pairs != counts[d] or not _close(sums[d] / counts[d], mean):
            verdict.fail(cell, f"dyads at distance {d} disagree with the curve")
            return
    if sum(k for _, k in curve.values()) != counts.sum():
        verdict.fail(cell, "curve has distances the dyads file lacks")


def dyad_sample(path: Path) -> list[str]:
    with open(path) as handle:
        return [line for i, line in enumerate(handle) if i % DYAD_SAMPLE_STEP == 0]


def _compare_rows(name: str, header: list[str], got: list[list[str]], want: list[list[str]]) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} rows, reference has {len(want)}"
    for row, ref in zip(got, want):
        if len(row) != len(ref):
            return f"{name}: row {row} has the wrong width"
        for column, a, b in zip(header, row, ref):
            if a == b:
                continue
            if column in INT_COLUMNS or column in TEXT_COLUMNS or not _close(float(a), float(b)):
                return f"{name}: {column} {a!r} differs from reference {b!r}"
    return None


def compare_with_reference(out: Path, reference: Path, verdict: Verdict) -> None:
    """Rows grouped by cell (by network for the manifest) must match the reference."""
    for name in TABLES:
        if not (reference / name).exists():
            continue
        try:
            header, rows = read_table(out / name)
        except (OSError, IndexError) as exc:
            verdict.fail_all(f"{name} unreadable: {exc}")
            continue
        ref_header, ref_rows = read_table(reference / name)
        if header != ref_header:
            verdict.fail_all(f"{name}: header differs from reference")
            continue
        key_columns = [header.index("network")]
        if name != "manifest.csv":
            key_columns += [header.index("treatment"), header.index("gamma")]
        groups: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
        for side, table in enumerate((rows, ref_rows)):
            for row in table:
                groups[tuple(row[i] for i in key_columns)][side].append(row)
        for key, (got, want) in groups.items():
            problem = _compare_rows(name, header, got, want)
            if problem is None:
                continue
            if name == "manifest.csv":
                verdict.fail_network(key[0], problem)
            else:
                verdict.fail((key[0], key[1], float(key[2])), problem)
    for sample in sorted(reference.glob("dyads_*.sample.csv")):
        target = out / sample.name.replace(".sample", "")
        cell = next(c for c in verdict.expected if f"dyads_{c[1]}_{c[2]!r}" in target.name)
        header, want = read_table(sample)
        try:
            got = list(csv.reader(dyad_sample(target)))
        except OSError as exc:
            verdict.fail(cell, f"dyads file unreadable: {exc}")
            continue
        problem = _compare_rows(target.name, header, got[1:], want) if got[:1] == [header] else "header"
        if problem is not None:
            verdict.fail(cell, problem)
