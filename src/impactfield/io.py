"""CSV emission for study results.

Machine-facing values are written with ``repr`` so every float
round-trips exactly; unreachable distances serialize as the literal
string ``inf``. Files are UTF-8 whatever the locale. All writers go
through an atomic temp-file-plus-rename so a crashed run never leaves a
partial file behind.

``repr`` bounds the per-dyad dump: shortest round-trip printing costs
about a microsecond per float, so the dump's formatting tasks run in
worker processes, and a symmetrized cell, whose lines (i, j) and (j, i)
share their distance and values, formats each unordered pair once.
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
from typing import BinaryIO

import numpy as np

from .analysis import StudyCell, Treatment, _DyadBlock
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
# lines per formatting task of the dyad dump, in full source rows. Up to
# 2 x workers tasks' text waits for the writer: at n = 1000, 32 rows held
# about 4 MB more at peak than 16 and saved under 3% of the wall time
DYAD_BLOCK_ROWS = 16


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
    chunks = [text] if isinstance(text, str) else text
    _atomic_write(path, (chunk.encode() for chunk in chunks))


def _atomic_write(path: Path | str, chunks: Iterable[bytes | memoryview]) -> None:
    """``atomic_write_text`` for chunks already encoded."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
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
    path: Path | str,
    graph: Graph,
    treatment: Treatment,
    orders: list[int],
    blocks: Iterable[_DyadBlock],
) -> None:
    """Joint per-dyad dump of a cell: every off-diagonal ordered pair, row-major.

    ``blocks`` are the cell's row blocks as ``run_study`` hands them to
    its ``dyads`` reader, with approximation rows for each of ``orders``.
    Unreachable pairs are kept, with ``inf`` in the distance column.
    Tasks of at most ``DYAD_BLOCK_ROWS`` full rows' worth of lines are
    formatted in worker processes, one per usable CPU, and written in
    row order, so the bytes do not depend on the CPU count.

    A symmetrized ``treatment`` has symmetric matrices and hop counts, so
    each of its tasks formats its rows from their diagonal on, once per
    unordered pair, and mirrors every line (i, j) to (j, i). The mirrored
    lines of rows below the task wait in an unlinked temporary file
    beside ``path``, not in memory, until their row is written.
    """
    n = graph.n
    header = _csv_text(_dyads_header(orders), []).encode()
    if n < 2:
        _atomic_write(path, [header])
        return
    mirror = treatment is Treatment.SYMMETRIZED
    labels = [_csv_field(graph.label_of(i)) for i in range(n)]
    task = functools.partial(_dyad_task, labels=labels, mirror=mirror)
    with (
        _block_map(-(-n // DYAD_BLOCK_ROWS)) as mapper,
        tempfile.TemporaryFile(dir=Path(path).parent) as spill,
    ):
        texts = _dyad_texts(mapper(task, _dyad_tasks(blocks, n, mirror)), spill)
        _atomic_write(path, itertools.chain([header], texts))


def _dyad_tasks(blocks: Iterable[_DyadBlock], n: int, mirror: bool) -> Iterator[tuple]:
    """Tasks of at least one row: first row, hop counts, values.

    A task's rows give at most ``DYAD_BLOCK_ROWS * (n - 1)`` lines, which a
    mirrored row gives twice for each pair past its diagonal; its arrays
    hold the columns from its first row on. A pool pickles a task some
    time after it is submitted, which is safe because ``run_study`` reuses
    no array of a block it has handed out.
    """
    budget = DYAD_BLOCK_ROWS * (n - 1)
    for rows, hops, exact, approximations in blocks:
        cuts, lines = [rows.start], 0
        for row in range(rows.start, rows.stop):
            cost = 2 * (n - 1 - row) if mirror else n - 1
            if lines and lines + cost > budget:
                cuts.append(row)
                lines = 0
            lines += cost
        cuts.append(rows.stop)
        for start, stop in itertools.pairwise(cuts):
            part = slice(start - rows.start, stop - rows.start)
            first = start if mirror else 0
            values = [block[part, first:] for block in (exact, *approximations)]
            yield start, hops[part, first:], values


def _dyad_task(
    task: tuple[int, np.ndarray, list[np.ndarray]], labels: list[str], mirror: bool
) -> tuple[bytes, np.ndarray, int]:
    """The dump's text for one task: its rows, then the lines it mirrors to later rows.

    Each of the task's rows holds its lines from the task's first column
    on, the diagonal pair dropped. Mirrored, each pair past the diagonal
    is formatted once, as the fields its two lines share; the mirrored
    lines of rows within the task lead those rows, and those of each row
    below it form one piece. The rows, then the pieces, come back as one
    UTF-8 text, with the end offset of each and the number of rows: one
    large object, not thousands of small ones, is what the writer's heap
    then holds.
    """
    start, hops, values = task
    first = len(labels) - hops.shape[1]
    # hop counts become text by table lookup; hop 0 (unreachable, or the diagonal) reads inf
    hop_text = np.array(["inf", *map(str, range(1, hops.max(initial=0) + 1))], dtype=object)
    rows, mirrored = [], []
    for offset in range(len(hops)):
        i = start + offset
        lo = offset + 1 if mirror else 0
        columns = [hop_text[hops[offset, lo:]].tolist()]
        columns.extend(map(repr, block[offset, lo:].tolist()) for block in values)
        fields = list(map(",".join, zip(*columns)))
        targets = labels[first + lo :]
        lines = list(map(",".join, zip(itertools.repeat(labels[i]), targets, fields)))
        if mirror:
            lines[:0] = [above[offset - k - 1] for k, above in enumerate(mirrored)]
            mirrored.append(list(map(",".join, zip(targets, itertools.repeat(labels[i]), fields))))
        else:
            del lines[i]  # the diagonal pair
        rows.append(lines)
    below = len(hops)
    rows.extend(zip(*(above[below - k - 1 :] for k, above in enumerate(mirrored))))
    # a mirrored last row can have no lines of its own
    texts = [("\n".join(lines) + "\n").encode() if lines else b"" for lines in rows]
    return b"".join(texts), np.cumsum([len(text) for text in texts], dtype=np.int64), below


def _parts(text: bytes, ends: list[int]) -> Iterator[memoryview]:
    """Views of the consecutive parts of ``text`` that end at ``ends``."""
    view = memoryview(text)
    return (view[lo:hi] for lo, hi in itertools.pairwise([0, *ends]))


def _dyad_texts(results: Iterable[tuple], spill: BinaryIO) -> Iterator[memoryview]:
    """Each task's rows, in order, behind the pieces earlier tasks mirrored to them.

    A task's pieces are appended to ``spill``; only the row they start at
    and the file offsets that bound them are kept, and each earlier task's
    pieces for a task's rows are read back with one ``pread``. The parts
    are handed to the writer as they are, with no copy that joins them.
    """
    spilled: list[tuple[int, np.ndarray]] = []
    start = 0
    for text, ends, height in results:
        stop = start + height
        sources = []
        for row, offsets in spilled:
            bounds = offsets[start - row : stop - row + 1]
            chunk = os.pread(spill.fileno(), int(bounds[-1] - bounds[0]), int(bounds[0]))
            sources.append(_parts(chunk, (bounds[1:] - bounds[0]).tolist()))
        sources.append(_parts(text, ends[:height].tolist()))
        yield from itertools.chain.from_iterable(zip(*sources))
        if len(ends) > height:
            split = int(ends[height - 1])
            spilled.append((stop, np.concatenate([[split], ends[height:]]) - split + spill.tell()))
            spill.write(memoryview(text)[split:])
            spill.flush()  # pread reads the file, not the write buffer
        start = stop


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
