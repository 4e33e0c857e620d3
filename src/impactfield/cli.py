"""Command-line harness.

Three subcommands::

    impactfield analyze --input F --directed|--undirected [--symmetrize]
                        [--gamma G ...|--gamma-grid] [--orders 1,2]
                        [--dyads] --out DIR
    impactfield generate {er|pa} --n N [--p P|--m M] --seed S --out F
    impactfield replicate --corpus DIR --out DIR [--workers W]

``--input`` also accepts an inline generator spec such as
``er:n=300,p=0.02`` or ``pa:n=200,m=2`` so large synthetic runs need no
intermediate file. Exit codes: 0 success, 1 validation problem, 2 parse
failure, 3 numerical failure. The environment variable
IMPACTFIELD_DENSE_THRESHOLD overrides the dense/iterative eigensolver
cutoff. Outputs are deterministic: the same inputs and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    DEFAULT_FIT_RANGE,
    StudyCell,
    Treatment,
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
    atomic_write_text,
    write_correlations_csv,
    write_curves_csv,
    write_dyads_csv,
    write_fits_csv,
    write_manifest_csv,
)
from .spectral import DEFAULT_DENSE_THRESHOLD

__all__ = ["RunConfig", "cmd_analyze", "cmd_generate", "cmd_replicate", "main"]

ENV_DENSE_THRESHOLD = "IMPACTFIELD_DENSE_THRESHOLD"


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one analyze run."""

    input: str
    directed: bool
    treatments: tuple[Treatment, ...]
    gammas: tuple[float, ...]
    orders: tuple[int, ...]
    include_exact: bool
    out_dir: str
    seed: int = 0
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD
    fit_range: tuple[int, int] = DEFAULT_FIT_RANGE

    def validate(self) -> None:
        if not self.treatments:
            raise ValidationError("at least one treatment is required")
        if Treatment.DIRECTED in self.treatments and not self.directed:
            raise ValidationError("directed treatment is inconsistent with undirected input")
        validate_study_options(self.gammas, self.orders, self.fit_range)
        if self.dense_threshold < 1:
            raise ValidationError("dense threshold must be positive")
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ValidationError(f"output directory {out} is not writable")


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


def _parse_generator_spec(spec: str, directed: bool, default_seed: int) -> Graph:
    kind, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"generator spec item {item!r} is not key=value")
        params[key.strip()] = value.strip()
    try:
        if kind == "er":
            graph = generate_er(
                n=int(params["n"]),
                p=float(params["p"]),
                directed=params.get("directed", "false").lower() in ("1", "true", "yes"),
                seed=int(params.get("seed", default_seed)),
            )
        elif kind == "pa":
            graph = generate_preferential(
                n=int(params["n"]),
                m=int(params["m"]),
                seed=int(params.get("seed", default_seed)),
            )
        else:
            raise ValidationError(f"unknown generator kind {kind!r}")
    except KeyError as exc:
        raise ValidationError(f"generator spec {spec!r} is missing {exc.args[0]!r}") from None
    if graph.directed != directed:
        raise ValidationError(
            "generator spec directedness does not match the --directed/--undirected flag"
        )
    return graph


def _read_edge_list(path: Path, directed: bool) -> Graph:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_edge_list(handle, directed=directed)
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"cannot decode input {path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read input {path}: {exc}") from exc


def _load_input(config: RunConfig) -> tuple[str, Graph]:
    if config.input.startswith(("er:", "pa:")):
        network = config.input.replace(":", "-").replace(",", "-").replace("=", "")
        return network, _parse_generator_spec(config.input, config.directed, config.seed)
    path = Path(config.input)
    return path.stem, _read_edge_list(path, config.directed)


def cmd_analyze(config: RunConfig) -> int:
    """Run the study sweep for one network and write the result CSVs."""
    config.validate()
    network, graph = _load_input(config)
    if graph.n == 0:
        raise ValidationError("no edges in input")
    cells = run_study(
        graph,
        gammas=list(config.gammas),
        orders=config.orders,
        network=network,
        dense_threshold=config.dense_threshold,
        fit_range=config.fit_range,
        keep_matrices=config.include_exact,
        treatments=config.treatments,
    )
    out = Path(config.out_dir)
    write_curves_csv(out / "curves.csv", cells)
    write_fits_csv(out / "fits.csv", cells)
    write_correlations_csv(out / "correlations.csv", cells)
    exit_code = 0
    for cell in cells:
        if cell.error is not None:
            print(
                f"impactfield: cell {network}/{cell.treatment.value}/gamma={cell.gamma!r} "
                f"failed: {cell.error}",
                file=sys.stderr,
            )
            exit_code = max(exit_code, cell.error_code)
            continue
        if config.include_exact and cell.exact is not None:
            write_dyads_csv(
                out / f"dyads_{cell.treatment.value}_{cell.gamma!r}.csv",
                graph,
                cell.distances,
                cell.exact,
                cell.approximations or {},
            )
        summary = " ".join(
            f"r{record.order}={record.pearson_r:.4g}" for record in cell.correlations
        )
        if cell.fit is not None:
            summary += f" slope={cell.fit.slope:.4g} fit_r2={cell.fit.r_squared:.4g}"
        print(f"{network} {cell.treatment.value} gamma={cell.gamma:.4g}: {summary.strip()}")
    return exit_code


def cmd_generate(kind: str, n: int, seed: int, out_path: str, p: float | None = None,
                 m: int | None = None, directed: bool = False) -> int:
    """Write a synthetic edge list; regeneration is byte-identical."""
    if kind == "er":
        if p is None:
            raise ValidationError("generate er requires --p")
        if m is not None:
            raise ValidationError("--m does not apply to er")
        graph = generate_er(n=n, p=p, directed=directed, seed=seed)
        header = f"# er n={n} p={p!r} directed={directed} seed={seed}\n"
    elif kind == "pa":
        if m is None:
            raise ValidationError("generate pa requires --m")
        if p is not None:
            raise ValidationError("--p does not apply to pa")
        if directed:
            raise ValidationError("pa graphs are undirected")
        graph = generate_preferential(n=n, m=m, seed=seed)
        header = f"# pa n={n} m={m} seed={seed}\n"
    else:
        raise ValidationError(f"unknown generator kind {kind!r}")
    path = Path(out_path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, header + serialize_edge_list(graph))
    print(f"wrote {graph.num_edges} edges over {graph.n} nodes to {path}")
    return 0


def _replicate_one(
    path_str: str,
    directed: bool,
    gammas: tuple[float, ...],
    orders: tuple[int, ...],
    fit_range: tuple[int, int],
    dense_threshold: int,
) -> tuple[ManifestEntry, list[StudyCell]]:
    path = Path(path_str)
    network = path.stem
    try:
        graph = _read_edge_list(path, directed)
        if graph.n == 0:
            raise ValidationError("no edges in input")
        entry = ManifestEntry(
            network=network,
            n=graph.n,
            edges=graph.num_edges,
            mean_degree=2.0 * graph.num_edges / graph.n,
            diameter=largest_component_diameter(graph),
            status="ok",
        )
        cells = run_study(
            graph,
            gammas=list(gammas),
            orders=orders,
            network=network,
            dense_threshold=dense_threshold,
            fit_range=fit_range,
        )
    except ImpactfieldError as exc:
        return (
            ManifestEntry(
                network=network,
                n=None,
                edges=None,
                mean_degree=None,
                diameter=None,
                status=f"error: {exc}",
            ),
            [],
        )
    failed = [cell for cell in cells if cell.error is not None]
    if failed:
        entry = ManifestEntry(
            network=entry.network,
            n=entry.n,
            edges=entry.edges,
            mean_degree=entry.mean_degree,
            diameter=entry.diameter,
            status=f"partial: {len(failed)} of {len(cells)} cells failed",
        )
    return entry, cells


def cmd_replicate(
    corpus_dir: str,
    out_dir: str,
    workers: int = 1,
    directed: bool = True,
    gammas: tuple[float, ...] | None = None,
    orders: tuple[int, ...] = (1, 2),
    fit_range: tuple[int, int] = DEFAULT_FIT_RANGE,
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
) -> int:
    """Run the analyze pipeline over every edge-list file in a directory.

    Networks are processed independently (optionally in parallel); a
    failing network is logged in the manifest and the run continues.
    Output row order is canonical, so results do not depend on worker
    count.
    """
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        raise ValidationError(f"corpus directory {corpus} does not exist")
    files = sorted(
        str(p) for p in corpus.iterdir() if p.is_file() and not p.name.startswith(".")
    )
    if not files:
        raise ValidationError(f"no inputs: corpus directory {corpus} has no files")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    gammas = tuple(gamma_grid()) if gammas is None else gammas
    validate_study_options(gammas, orders, fit_range)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: list[tuple[ManifestEntry, list[StudyCell]]]
    if workers == 1 or len(files) == 1:
        results = [
            _replicate_one(path, directed, gammas, orders, fit_range, dense_threshold)
            for path in files
        ]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _replicate_one,
                    files,
                    [directed] * len(files),
                    [gammas] * len(files),
                    [orders] * len(files),
                    [fit_range] * len(files),
                    [dense_threshold] * len(files),
                )
            )

    entries = [entry for entry, _ in results]
    cells = [cell for _, cell_list in results for cell in cell_list]
    write_curves_csv(out / "curves.csv", cells)
    write_fits_csv(out / "fits.csv", cells)
    write_correlations_csv(out / "correlations.csv", cells)
    write_manifest_csv(out / "manifest.csv", entries)
    for entry in entries:
        print(f"{entry.network}: {entry.status}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactfield",
        description="Total-impact matrices and their spectral distance-decay approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="study sweep for one network")
    analyze.add_argument("--input", required=True, help="edge-list file or er:/pa: generator spec")
    direction = analyze.add_mutually_exclusive_group(required=True)
    direction.add_argument("--directed", dest="directed", action="store_const", const=True)
    direction.add_argument("--undirected", dest="directed", action="store_const", const=False)
    analyze.add_argument(
        "--symmetrize",
        action="store_true",
        help="also run the symmetrized treatment for directed input",
    )
    analyze.add_argument("--gamma", action="append", type=float, metavar="G")
    analyze.add_argument("--gamma-grid", action="store_true", help="use the standard gamma sweep")
    analyze.add_argument("--orders", default="1,2", help="comma-separated approximation orders")
    analyze.add_argument("--dyads", action="store_true", help="write per-dyad exact/approx CSVs")
    analyze.add_argument("--fit-range", default="1,6", metavar="MIN,MAX")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--out", required=True)

    generate = sub.add_parser("generate", help="write a synthetic edge list")
    generate.add_argument("kind", choices=["er", "pa"])
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--p", type=float, default=None)
    generate.add_argument("--m", type=int, default=None)
    generate.add_argument("--directed", action="store_true")
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--out", required=True)

    replicate = sub.add_parser("replicate", help="analyze every file in a corpus directory")
    replicate.add_argument("--corpus", required=True)
    replicate.add_argument("--out", required=True)
    replicate.add_argument("--workers", type=int, default=1)
    replicate.add_argument(
        "--undirected", action="store_true", help="treat corpus files as undirected"
    )
    replicate.add_argument("--gamma", action="append", type=float, metavar="G")
    replicate.add_argument("--orders", default="1,2")
    replicate.add_argument("--fit-range", default="1,6", metavar="MIN,MAX")
    return parser


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        raise ValidationError(f"{what} must not be empty")
    return values


def _parse_fit_range(text: str) -> tuple[int, int]:
    fit_range = _parse_int_list(text, "--fit-range")
    if len(fit_range) != 2:
        raise ValidationError("--fit-range must be MIN,MAX")
    return fit_range[0], fit_range[1]


def _analyze_config(args: argparse.Namespace) -> RunConfig:
    if args.gamma and args.gamma_grid:
        raise ValidationError("--gamma and --gamma-grid are mutually exclusive")
    gammas = tuple(args.gamma) if args.gamma else tuple(gamma_grid())
    if args.directed:
        treatments: tuple[Treatment, ...] = (Treatment.DIRECTED,)
        if args.symmetrize:
            treatments = (Treatment.DIRECTED, Treatment.SYMMETRIZED)
    else:
        if args.symmetrize:
            raise ValidationError("--symmetrize does not apply to undirected input")
        treatments = (Treatment.SYMMETRIZED,)
    return RunConfig(
        input=args.input,
        directed=args.directed,
        treatments=treatments,
        gammas=gammas,
        orders=_parse_int_list(args.orders, "--orders"),
        include_exact=args.dyads,
        out_dir=args.out,
        seed=args.seed,
        dense_threshold=_dense_threshold_from_env(),
        fit_range=_parse_fit_range(args.fit_range),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(_analyze_config(args))
        if args.command == "generate":
            return cmd_generate(
                kind=args.kind,
                n=args.n,
                seed=args.seed,
                out_path=args.out,
                p=args.p,
                m=args.m,
                directed=args.directed,
            )
        if args.command == "replicate":
            return cmd_replicate(
                corpus_dir=args.corpus,
                out_dir=args.out,
                workers=args.workers,
                directed=not args.undirected,
                gammas=tuple(args.gamma) if args.gamma else None,
                orders=_parse_int_list(args.orders, "--orders"),
                fit_range=_parse_fit_range(args.fit_range),
                dense_threshold=_dense_threshold_from_env(),
            )
        raise ValidationError(f"unknown command {args.command!r}")
    except ImpactfieldError as exc:
        print(f"impactfield: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
