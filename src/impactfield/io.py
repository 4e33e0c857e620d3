"""CSV emission for study results.

Machine-facing values are written with ``repr`` so every float
round-trips exactly; unreachable distances serialize as the literal
string ``inf``. Files are UTF-8 whatever the locale. All writers go
through an atomic temp-file-plus-rename so a crashed run never leaves a
partial file behind.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import io
import itertools
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import StudyCell
from .graph import DistanceMatrix, Graph
from .impact import ImpactMatrix

__all__ = [
    "atomic_write_text",
    "write_curves_csv",
    "write_fits_csv",
    "write_correlations_csv",
    "write_dyads_csv",
    "ManifestEntry",
    "write_manifest_csv",
]

CURVES_HEADER = ["network", "treatment", "gamma", "distance", "mean_impact", "n_pairs"]
FITS_HEADER = ["network", "treatment", "gamma", "d_min", "d_max", "slope", "intercept", "r_squared"]
CORRELATIONS_HEADER = ["network", "treatment", "gamma", "order", "pearson_r", "n_dyads"]
MANIFEST_HEADER = ["network", "n", "edges", "mean_degree", "diameter", "status"]
# source rows per formatting task of the dyad dump
DYAD_BLOCK_ROWS = 32


def _fmt(value: float) -> str:
    return repr(float(value))


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: Path | str, text: str | Iterable[str]) -> None:
    """Write UTF-8 text to path via a same-directory temp file and rename.

    ``text`` is one string or an iterable of string chunks, which are
    written as they are produced. The file gets the mode a plain
    ``open`` would give it, ``0o666`` less the umask, not the owner-only
    mode of the temp file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_curves_csv(path: Path | str, cells: list[StudyCell]) -> None:
    rows = []
    for cell in cells:
        if cell.curve is None:
            continue
        for point in cell.curve.points:
            rows.append(
                [
                    cell.network,
                    cell.treatment.value,
                    _fmt(cell.gamma),
                    str(point.distance),
                    _fmt(point.mean_impact),
                    str(point.n_pairs),
                ]
            )
    atomic_write_text(path, _csv_text(CURVES_HEADER, rows))


def write_fits_csv(path: Path | str, cells: list[StudyCell]) -> None:
    rows = []
    for cell in cells:
        if cell.fit is None:
            continue
        rows.append(
            [
                cell.network,
                cell.treatment.value,
                _fmt(cell.gamma),
                str(cell.fit.d_range[0]),
                str(cell.fit.d_range[1]),
                _fmt(cell.fit.slope),
                _fmt(cell.fit.intercept),
                _fmt(cell.fit.r_squared),
            ]
        )
    atomic_write_text(path, _csv_text(FITS_HEADER, rows))


def write_correlations_csv(path: Path | str, cells: list[StudyCell]) -> None:
    rows = []
    for cell in cells:
        for record in cell.correlations:
            rows.append(
                [
                    record.network,
                    record.treatment.value,
                    _fmt(record.gamma),
                    str(record.order),
                    _fmt(record.pearson_r),
                    str(record.n_dyads),
                ]
            )
    atomic_write_text(path, _csv_text(CORRELATIONS_HEADER, rows))


def _dyads_header(orders: list[int]) -> list[str]:
    return ["src", "dst", "dist", "exact"] + [f"approx{order}" for order in orders]


def _csv_field(value: str) -> str:
    """The value as ``csv.writer`` writes it inside a multi-field row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((value, ""))
    return buffer.getvalue()[:-2]  # drop the "," and "\n"


def write_dyads_csv(
    path: Path | str,
    graph: Graph,
    dist: DistanceMatrix,
    exact: ImpactMatrix,
    approximations: dict[int, ImpactMatrix],
) -> None:
    """Joint per-dyad dump: every off-diagonal ordered pair, row-major.

    Unreachable pairs are kept, with ``inf`` in the distance column.
    Blocks of source rows are formatted in worker processes, one per
    usable CPU, and written in row order, so the bytes do not depend on
    the CPU count.
    """
    orders = sorted(approximations)
    n = graph.n
    header = _csv_text(_dyads_header(orders), [])
    if n < 2:
        atomic_write_text(path, header)
        return
    labels = [_csv_field(graph.label_of(i)) for i in range(n)]
    # hop counts become text by table lookup; unreachable pairs take the last slot
    unreachable = int(dist.hops.max(initial=0)) + 1
    hop_text = np.array([str(d) for d in range(unreachable)] + ["inf"], dtype=object)
    values = [exact.values] + [approximations[order].values for order in orders]
    starts = range(0, n, DYAD_BLOCK_ROWS)
    rows = [slice(start, start + DYAD_BLOCK_ROWS) for start in starts]
    block = functools.partial(_dyad_block, labels=labels, hop_text=hop_text)
    with _block_map(len(rows)) as mapper:
        blocks = mapper(
            block,
            starts,
            (dist.hops[r] for r in rows),
            (dist.reachable[r] for r in rows),
            ([matrix[r] for matrix in values] for r in rows),
        )
        atomic_write_text(path, itertools.chain([header], blocks))


def _dyad_block(
    start: int,
    hops: np.ndarray,
    reachable: np.ndarray,
    values: list[np.ndarray],
    labels: list[str],
    hop_text: np.ndarray,
) -> str:
    """The dump's lines for the source rows from ``start`` on, one per row of the slices.

    Lines are built column by column; the diagonal pair is dropped.
    """
    unreachable = len(hop_text) - 1
    hop_rows = hop_text[np.where(reachable, hops, unreachable)].tolist()
    value_rows = [block.tolist() for block in values]
    lines = []
    for offset, hop_row in enumerate(hop_rows):
        i = start + offset
        columns = [itertools.repeat(labels[i]), labels, hop_row]
        columns.extend(map(repr, block[offset]) for block in value_rows)
        row = list(map(",".join, zip(*columns)))
        del row[i]  # the diagonal pair
        lines.extend(row)
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _block_map(blocks: int) -> Iterator[Callable]:
    """An ordered ``map`` over worker processes, one per usable CPU.

    The builtin ``map`` serves when there is one CPU or one block. Work
    still queued when the consumer fails is cancelled.
    """
    workers = min(_usable_cpus(), blocks)
    if workers < 2:
        yield map
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ManifestEntry:
    """Per-network summary line of a corpus run."""

    network: str
    n: int | None
    edges: int | None
    mean_degree: float | None
    diameter: int | None
    status: str


def write_manifest_csv(path: Path | str, entries: list[ManifestEntry]) -> None:
    rows = [
        [
            entry.network,
            "" if entry.n is None else str(entry.n),
            "" if entry.edges is None else str(entry.edges),
            "" if entry.mean_degree is None else _fmt(entry.mean_degree),
            "" if entry.diameter is None else str(entry.diameter),
            entry.status,
        ]
        for entry in entries
    ]
    atomic_write_text(path, _csv_text(MANIFEST_HEADER, rows))
