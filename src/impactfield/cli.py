"""Command-line harness.

Three subcommands::

    impactfield analyze --input F --directed|--undirected [--symmetrize]
                        [--gamma G ...|--gamma-grid] [--orders 1,2]
                        [--fit-range 1,6] [--seed S] [--dyads] --out DIR
    impactfield generate {er|pa} --n N [--p P|--m M] [--directed] --seed S
                         --out F
    impactfield replicate --corpus DIR --out DIR [--workers W] [--undirected]
                          [--gamma G ...] [--orders 1,2] [--fit-range 1,6]

``--input`` also accepts an inline generator spec such as
``er:n=300,p=0.02`` or ``pa:n=200,m=2`` so large synthetic runs need no
intermediate file. A spec takes ``generate``'s parameters and pairing
rules: ``er`` needs n and p (optional directed and seed), ``pa`` needs
n and m (optional seed); the seed defaults to ``--seed``. Exit codes:
0 success, 1 validation problem (including a malformed spec or an
unusable ``--out``), 2 parse failure, 3 numerical failure. The
environment variable IMPACTFIELD_DENSE_THRESHOLD overrides the
dense/iterative eigensolver cutoff. Outputs are deterministic: the
same inputs and seed produce byte-identical files.

``replicate`` runs every loaded OpenBLAS (numpy's and scipy's builds)
at one thread, in its own process and in each worker, and studies one
network per worker. ``--workers`` defaults to the number of usable
CPUs, capped by the file count; where no OpenBLAS is found to pin, it
defaults to 1, so the workers' BLAS pools do not oversubscribe the
cores.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import os
import sys
from collections.abc import Callable, Iterator
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .analysis import (
    DEFAULT_FIT_RANGE,
    DEFAULT_ORDERS,
    StudyCell,
    run_study,
    validate_study_options,
)
from .errors import EdgeListParseError, ImpactfieldError, ValidationError
from .graph import (
    Graph,
    generate_er,
    generate_preferential,
    largest_component_diameter,
    parse_edge_list,
    serialize_edge_list,
)
from .impact import gamma_grid
from .io import (
    ManifestEntry,
    _usable_cpus,
    atomic_write_text,
    write_correlations_csv,
    write_curves_csv,
    write_dyads_csv,
    write_fits_csv,
    write_manifest_csv,
)
from .spectral import DEFAULT_DENSE_THRESHOLD

__all__ = ["main"]

ENV_DENSE_THRESHOLD = "IMPACTFIELD_DENSE_THRESHOLD"

# the values an inline spec's directed= key accepts, matched case-insensitively
_SPEC_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# how each key of an inline er:/pa: spec is read
_SPEC_FIELDS = {
    "n": int,
    "p": float,
    "m": int,
    "seed": int,
    "directed": lambda value: _SPEC_FLAGS[value.lower()],
}
# the thread-count setter and getter names an OpenBLAS build may export,
# tried in this order: a plain build, numpy's 64-bit-index build and scipy's
_OPENBLAS_THREAD_CALLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _dense_threshold_from_env() -> int:
    raw = os.environ.get(ENV_DENSE_THRESHOLD)
    if raw is None:
        return DEFAULT_DENSE_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_DENSE_THRESHOLD} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{ENV_DENSE_THRESHOLD} must be positive, got {value}")
    return value


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise ValidationError(f"{what} must not be empty")
    return values


def _study_options(args: argparse.Namespace) -> dict:
    """Parse and validate the sweep options of ``analyze`` and ``replicate``.

    The result is the keyword arguments they pass to ``run_study``.
    """
    gammas = args.gamma or gamma_grid()
    orders = _parse_int_list(args.orders, "--orders")
    fit_range = _parse_int_list(args.fit_range, "--fit-range")
    if len(fit_range) != 2:
        raise ValidationError("--fit-range must be MIN,MAX")
    validate_study_options(gammas, orders, fit_range)
    return {
        "gammas": gammas,
        "orders": orders,
        "fit_range": fit_range,
        "dense_threshold": _dense_threshold_from_env(),
    }


def _output_dir(text: str | Path) -> Path:
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc}") from None
    if not os.access(out, os.W_OK):
        raise ValidationError(f"output directory {out} is not writable")
    return out


def _read_edge_list(path: Path, directed: bool) -> Graph:
    try:
        # utf-8-sig drops a byte-order mark that would join the first label
        with open(path, encoding="utf-8-sig") as handle:
            graph = parse_edge_list(handle, directed=directed)
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"cannot decode input {path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read input {path}: {exc}") from exc
    if graph.n == 0:
        raise ValidationError("no edges in input")
    return graph


def _write(writer, path: Path, *args) -> None:
    """Run one file writer; a write that fails is a validation error naming the file.

    The writer removes its temp file, so no partial output is left behind.
    """
    try:
        writer(path, *args)
    except (OSError, BrokenProcessPool) as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _write_tables(out: Path, cells: list[StudyCell]) -> None:
    _write(write_curves_csv, out / "curves.csv", cells)
    _write(write_fits_csv, out / "fits.csv", cells)
    _write(write_correlations_csv, out / "correlations.csv", cells)


def _synthetic_graph(
    kind: str, n: int, seed: int, p: float | None = None, m: int | None = None,
    directed: bool = False,
) -> tuple[Graph, str]:
    """One er/pa graph and its edge-list header line."""
    if kind == "er":
        if p is None:
            raise ValidationError("er requires p")
        if m is not None:
            raise ValidationError("m does not apply to er")
        graph = generate_er(n=n, p=p, directed=directed, seed=seed)
        return graph, f"# er n={n} p={p!r} directed={directed} seed={seed}\n"
    if kind == "pa":
        if m is None:
            raise ValidationError("pa requires m")
        if p is not None:
            raise ValidationError("p does not apply to pa")
        if directed:
            raise ValidationError("pa graphs are undirected")
        return generate_preferential(n=n, m=m, seed=seed), f"# pa n={n} m={m} seed={seed}\n"
    raise ValidationError(f"unknown generator kind {kind!r}")


def _parse_generator_spec(spec: str, directed: bool, default_seed: int) -> Graph:
    kind, _, rest = spec.partition(":")
    params: dict = {"seed": default_seed}
    for item in filter(None, rest.split(",")):
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or key not in _SPEC_FIELDS:
            raise ValidationError(f"generator spec {spec!r}: {item!r} is not a known key=value")
        try:
            params[key] = _SPEC_FIELDS[key](value)
        except ValueError:
            raise ValidationError(f"generator spec {spec!r}: {key} is not a number") from None
        except KeyError:
            raise ValidationError(
                f"generator spec {spec!r}: {key} must be one of {'/'.join(_SPEC_FLAGS)}"
            ) from None
    if "n" not in params:
        raise ValidationError(f"generator spec {spec!r} is missing 'n'")
    try:
        graph, _ = _synthetic_graph(kind, **params)
    except ValidationError as exc:
        raise ValidationError(f"generator spec {spec!r}: {exc}") from None
    if graph.directed != directed:
        raise ValidationError(
            "generator spec directedness does not match the --directed/--undirected flag"
        )
    return graph


def _analyze(args: argparse.Namespace) -> int:
    """Run the study sweep for one network and write the result CSVs."""
    if args.gamma and args.gamma_grid:
        raise ValidationError("--gamma and --gamma-grid are mutually exclusive")
    if args.symmetrize and not args.directed:
        raise ValidationError("--symmetrize does not apply to undirected input")
    study = _study_options(args)
    out = _output_dir(args.out)
    if args.input.startswith(("er:", "pa:")):
        network = args.input.replace(":", "-").replace(",", "-").replace("=", "")
        graph = _parse_generator_spec(args.input, args.directed, args.seed)
    else:
        network = Path(args.input).stem
        graph = _read_edge_list(Path(args.input), args.directed)
    # without --symmetrize a directed network keeps only its raw treatment
    symmetrize = args.symmetrize or not args.directed
    # a failed dump skips the later dumps, not the study or the tables
    dump_errors: list[ValidationError] = []

    def dump(treatment, gamma, orders, blocks) -> None:
        path = out / f"dyads_{treatment.value}_{gamma!r}.csv"
        try:
            if not dump_errors:
                _write(write_dyads_csv, path, graph, treatment, orders, blocks)
        except ValidationError as exc:
            dump_errors.append(exc)

    cells = run_study(
        graph, network=network, dyads=dump if args.dyads else None, symmetrize=symmetrize, **study
    )
    _write_tables(out, cells)
    exit_code = 0
    for cell in cells:
        where = f"impactfield: cell {network}/{cell.treatment.value}/gamma={cell.gamma!r}"
        if cell.error is not None:
            print(f"{where} failed: {cell.error}", file=sys.stderr)
            exit_code = max(exit_code, cell.error_code)
            continue
        for note in cell.notes:
            print(f"{where}: {note}", file=sys.stderr)
        summary = " ".join(
            f"r{record.order}={record.pearson_r:.4g}" for record in cell.correlations
        )
        if cell.fit is not None:
            summary += f" slope={cell.fit.slope:.4g} fit_r2={cell.fit.r_squared:.4g}"
        print(f"{network} {cell.treatment.value} gamma={cell.gamma:.4g}: {summary.strip()}")
    if dump_errors:
        raise dump_errors[0]
    return exit_code


def _generate(args: argparse.Namespace) -> int:
    """Write a synthetic edge list; regeneration is byte-identical."""
    graph, header = _synthetic_graph(
        args.kind, n=args.n, seed=args.seed, p=args.p, m=args.m, directed=args.directed
    )
    path = Path(args.out)
    _output_dir(path.parent)
    _write(atomic_write_text, path, header + serialize_edge_list(graph))
    print(f"wrote {graph.num_edges} edges over {graph.n} nodes to {path}")
    return 0


def _replicate_one(
    path: Path, directed: bool, study: dict
) -> tuple[ManifestEntry, list[StudyCell]]:
    network = path.stem
    try:
        graph = _read_edge_list(path, directed)
        entry = ManifestEntry(
            network=network,
            n=graph.n,
            edges=graph.num_edges,
            diameter=largest_component_diameter(graph),
            status="ok",
        )
        cells = run_study(graph, network=network, **study)
    except (ImpactfieldError, MemoryError) as exc:
        return _failed_network(network, exc)
    failed = sum(cell.error is not None for cell in cells)
    if failed:
        entry = dataclasses.replace(
            entry, status=f"partial: {failed} of {len(cells)} cells failed"
        )
    return entry, cells


def _failed_network(network: str, exc: BaseException) -> tuple[ManifestEntry, list[StudyCell]]:
    """The manifest row of a network whose run ended in ``exc``."""
    message = str(exc) if isinstance(exc, ImpactfieldError) else f"{type(exc).__name__}: {exc}"
    return ManifestEntry(network, None, None, None, status=f"error: {message}"), []


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {parts[5].rstrip("\n") for parts in fields if len(parts) == 6}
    return sorted(path for path in paths if "openblas" in os.path.basename(path))


def _openblas_thread_calls() -> list[tuple[Callable[[int], None], Callable[[], int]]]:
    """The thread-count setter and getter of each loaded OpenBLAS."""
    import ctypes

    calls = []
    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:  # the file was replaced since it was loaded: "... (deleted)"
            continue
        for set_name, get_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                setter, getter = getattr(library, set_name), getattr(library, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                calls.append((setter, getter))
                break
    return calls


def _pin_blas_threads() -> None:
    """Run every loaded OpenBLAS at one thread for the rest of the process."""
    for setter, _ in _openblas_thread_calls():
        setter(1)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Run every loaded OpenBLAS at one thread inside the block.

    Yields whether any was found. On exit each gets back its thread count.
    """
    calls = _openblas_thread_calls()
    saved = [getter() for _, getter in calls]
    for setter, _ in calls:
        setter(1)
    try:
        yield bool(calls)
    finally:
        for (setter, _), count in zip(calls, saved):
            setter(count)


def _study_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers each run one BLAS thread, whatever the start method."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_pin_blas_threads
    )


def _collect(future: concurrent.futures.Future, job, path: Path):
    try:
        return future.result()
    except BrokenProcessPool:
        # a worker died (killed, out of memory, os._exit) and broke the
        # pool, losing every network it held or had queued; rerun this
        # one alone, so only a network that dies again is an error
        with _study_pool(1) as alone:
            try:
                return alone.submit(job, path).result()
            except BrokenProcessPool as exc:
                return _failed_network(path.stem, exc)


def _replicate(args: argparse.Namespace) -> int:
    """Run the analyze pipeline over every edge-list file in a directory.

    Networks are processed independently, in parallel worker processes
    when there are several, with every OpenBLAS at one thread; a failing
    network, including one that runs out of memory or whose worker
    process dies even when rerun alone, is logged in the manifest and the
    run continues.
    Output row order is canonical, so results do not depend on worker
    count.
    """
    study = _study_options(args)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise ValidationError(f"corpus directory {corpus} does not exist")
    files = sorted(p for p in corpus.iterdir() if p.is_file() and not p.name.startswith("."))
    if not files:
        raise ValidationError(f"no inputs: corpus directory {corpus} has no files")
    if args.workers is not None and args.workers < 1:
        raise ValidationError("workers must be at least 1")
    out = _output_dir(args.out)

    job = functools.partial(_replicate_one, directed=not args.undirected, study=study)
    # at n of a few hundred one thread per network beats threads per
    # network, and it makes the bytes independent of the thread count
    with _one_blas_thread() as pinned:
        # unpinned workers would each run full-size BLAS pools
        workers = args.workers or (_usable_cpus() if pinned else 1)
        # the fork start method launches every worker at the first submit
        workers = min(workers, len(files))
        if workers == 1:
            results = [job(path) for path in files]
        else:
            with _study_pool(workers) as pool:
                futures = [pool.submit(job, path) for path in files]
                results = [_collect(future, job, path) for future, path in zip(futures, files)]

    entries = [entry for entry, _ in results]
    _write_tables(out, [cell for _, cells in results for cell in cells])
    _write(write_manifest_csv, out / "manifest.csv", entries)
    for entry in entries:
        print(f"{entry.network}: {entry.status}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactfield",
        description="Total-impact matrices and their spectral distance-decay approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the sweep options of analyze and replicate, parsed by _study_options
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--gamma", action="append", type=float, metavar="G")
    study.add_argument(
        "--orders",
        default=",".join(map(str, DEFAULT_ORDERS)),
        help="comma-separated approximation orders",
    )
    study.add_argument(
        "--fit-range", default=",".join(map(str, DEFAULT_FIT_RANGE)), metavar="MIN,MAX"
    )

    analyze = sub.add_parser("analyze", parents=[study], help="study sweep for one network")
    analyze.set_defaults(run=_analyze)
    analyze.add_argument("--input", required=True, help="edge-list file or er:/pa: generator spec")
    direction = analyze.add_mutually_exclusive_group(required=True)
    direction.add_argument("--directed", dest="directed", action="store_const", const=True)
    direction.add_argument("--undirected", dest="directed", action="store_const", const=False)
    analyze.add_argument(
        "--symmetrize",
        action="store_true",
        help="also run the symmetrized treatment for directed input",
    )
    analyze.add_argument("--gamma-grid", action="store_true", help="use the standard gamma sweep")
    analyze.add_argument("--dyads", action="store_true", help="write per-dyad exact/approx CSVs")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--out", required=True)

    generate = sub.add_parser("generate", help="write a synthetic edge list")
    generate.set_defaults(run=_generate)
    generate.add_argument("kind", choices=["er", "pa"])
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--p", type=float, default=None)
    generate.add_argument("--m", type=int, default=None)
    generate.add_argument("--directed", action="store_true")
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--out", required=True)

    replicate = sub.add_parser(
        "replicate", parents=[study], help="analyze every file in a corpus directory"
    )
    replicate.set_defaults(run=_replicate)
    replicate.add_argument("--corpus", required=True)
    replicate.add_argument("--out", required=True)
    replicate.add_argument(
        "--workers",
        type=int,
        metavar="W",
        help="networks studied at once, each at one BLAS thread (default: usable CPUs, "
        "at most one per file; 1 where no OpenBLAS can be pinned)",
    )
    replicate.add_argument(
        "--undirected", action="store_true", help="treat corpus files as undirected"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ImpactfieldError as exc:
        print(f"impactfield: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
