"""CSV emission for study results.

Machine-facing values are written with ``repr`` so every float
round-trips exactly; unreachable distances serialize as the literal
string ``inf``. Files are UTF-8 whatever the locale. All writers go
through an atomic temp-file-plus-rename so a crashed run never leaves a
partial file behind.
"""

from __future__ import annotations

import collections
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

from .analysis import StudyCell, _DyadBlock
from .graph import Graph

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


def _key_columns(cell: StudyCell) -> list[str]:
    """The network, treatment and gamma columns of a cell's rows in every table."""
    return [cell.network, cell.treatment.value, _fmt(cell.gamma)]


def write_curves_csv(path: Path | str, cells: list[StudyCell]) -> None:
    rows = []
    for cell in cells:
        if cell.curve is None:
            continue
        key = _key_columns(cell)
        for point in cell.curve.points:
            rows.append(key + [str(point.distance), _fmt(point.mean_impact), str(point.n_pairs)])
    atomic_write_text(path, _csv_text(CURVES_HEADER, rows))


def write_fits_csv(path: Path | str, cells: list[StudyCell]) -> None:
    rows = []
    for cell in cells:
        if cell.fit is None:
            continue
        rows.append(
            _key_columns(cell)
            + [
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
        key = _key_columns(cell)
        for record in cell.correlations:
            rows.append(key + [str(record.order), _fmt(record.pearson_r), str(record.n_dyads)])
    atomic_write_text(path, _csv_text(CORRELATIONS_HEADER, rows))


def _dyads_header(orders: list[int]) -> list[str]:
    return ["src", "dst", "dist", "exact"] + [f"approx{order}" for order in orders]


def _csv_field(value: str) -> str:
    """The value as ``csv.writer`` writes it inside a multi-field row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((value, ""))
    return buffer.getvalue()[:-2]  # drop the "," and "\n"


def write_dyads_csv(
    path: Path | str, graph: Graph, orders: list[int], blocks: Iterable[_DyadBlock]
) -> None:
    """Joint per-dyad dump of a cell: every off-diagonal ordered pair, row-major.

    ``blocks`` are the cell's row blocks as ``run_study`` hands them to
    its ``dyads`` reader, with approximation rows for each of ``orders``.
    Unreachable pairs are kept, with ``inf`` in the distance column.
    Tasks of at most ``DYAD_BLOCK_ROWS`` source rows are formatted in
    worker processes, one per usable CPU, and written in row order, so
    the bytes do not depend on the CPU count.
    """
    n = graph.n
    header = _csv_text(_dyads_header(orders), [])
    if n < 2:
        atomic_write_text(path, header)
        return
    labels = [_csv_field(graph.label_of(i)) for i in range(n)]
    block = functools.partial(_dyad_block, labels=labels)
    with _block_map(-(-n // DYAD_BLOCK_ROWS)) as mapper:
        atomic_write_text(path, itertools.chain([header], mapper(block, _dyad_tasks(blocks))))


def _dyad_tasks(blocks: Iterable[_DyadBlock]) -> Iterator[tuple]:
    """Tasks of at most ``DYAD_BLOCK_ROWS`` rows: first row, hop counts, values.

    A pool pickles a task some time after it is submitted, which is safe
    because ``run_study`` reuses no array of a block it has handed out.
    """
    for rows, hops, exact, approximations in blocks:
        for lo in range(0, rows.stop - rows.start, DYAD_BLOCK_ROWS):
            part = slice(lo, lo + DYAD_BLOCK_ROWS)
            yield rows.start + lo, hops[part], [values[part] for values in (exact, *approximations)]


def _dyad_block(task: tuple[int, np.ndarray, list[np.ndarray]], labels: list[str]) -> str:
    """The dump's lines for one task, one per source row from its first on.

    Lines are built column by column; the diagonal pair is dropped.
    """
    start, hops, values = task
    # hop counts become text by table lookup; hop 0 (unreachable, or the diagonal) reads inf
    hop_text = np.array(["inf", *map(str, range(1, hops.max(initial=0) + 1))], dtype=object)
    hop_rows = hop_text[hops].tolist()
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
        yield functools.partial(_bounded_map, pool, 2 * workers)
    finally:
        pool.shutdown(cancel_futures=True)


def _bounded_map(
    pool: concurrent.futures.Executor, ahead: int, fn: Callable, *iterables: Iterable
) -> Iterator:
    """``pool.map`` that submits at most ``ahead`` calls the consumer has not taken.

    Arguments are drawn and results held only that far ahead, so a slow
    consumer does not leave every finished result waiting in memory.
    """
    pending: collections.deque[concurrent.futures.Future] = collections.deque()
    for args in zip(*iterables):
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, *args))
    while pending:
        yield pending.popleft().result()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ManifestEntry:
    """Per-network summary line of a corpus run; its mean degree is ``2 * edges / n``."""

    network: str
    n: int | None
    edges: int | None
    diameter: int | None
    status: str


def write_manifest_csv(path: Path | str, entries: list[ManifestEntry]) -> None:
    rows = [
        [
            entry.network,
            "" if entry.n is None else str(entry.n),
            "" if entry.edges is None else str(entry.edges),
            "" if entry.n is None else _fmt(2.0 * entry.edges / entry.n),
            "" if entry.diameter is None else str(entry.diameter),
            entry.status,
        ]
        for entry in entries
    ]
    atomic_write_text(path, _csv_text(MANIFEST_HEADER, rows))
