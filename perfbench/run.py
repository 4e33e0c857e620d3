"""Benchmark of the impactfield command line, timed from outside.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command (``analyze`` or ``replicate``) runs in a fresh interpreter
(see ``child.py``), one after another in a closed loop with one client,
for as long as the next one is expected to end within ``--seconds``; at
least one command always runs. Inputs are edge-list files generated from
``--seed`` before timing starts. Every command's outputs are checked
(``check.py``) and deleted before the next one starts. With
``--trace 1`` the commands alternate untraced and traced, and the
per-layer metrics come from the traced ones. BLAS thread variables and
IMPACTFIELD_DENSE_THRESHOLD are passed through as found.

The first line printed is the run record, the next one lists each
command's times, and the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

REFERENCE_SEED = 0
SETUP_PROBES = 3
# a run must end within 180 s; a command still running at this point is killed
RUN_LIMIT_S = 170.0
GAMMA_GRID = tuple(1.0 - 2.0**-k for k in range(1, 6))
ORDERS = (1, 2)
# units of per-layer metrics by the last part of their name; the rest are seconds
UNITS = {"calls": "count", "modes": "count", "cells": "count", "cells_failed": "count",
         "dyads": "count", "bytes_written": "B"}
ENV_RECORDED = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "IMPACTFIELD_DENSE_THRESHOLD",
)


@dataclass(frozen=True)
class Plan:
    """One workload's generated inputs and the command that studies them."""

    networks: list[inputs.Network]
    argv: list[str]  # without --out
    treatments: tuple[str, ...]
    gammas: tuple[float, ...]
    dyads: bool = False

    def cells(self) -> list[check.Cell]:
        return [
            (network.path.stem, treatment, gamma)
            for network in self.networks
            for treatment in self.treatments
            for gamma in self.gammas
        ]


def plan_sweep_large(directory: Path, seed: int) -> Plan:
    network = inputs.undirected_network(
        directory / f"er{seed}.txt", inputs.SWEEP_N, inputs.SWEEP_P, seed
    )
    argv = ["analyze", "--input", str(network.path), "--undirected", "--gamma-grid",
            "--orders", "1,2"]
    return Plan([network], argv, ("symmetrized",), GAMMA_GRID)


def plan_corpus_replicate(directory: Path, seed: int) -> Plan:
    networks = inputs.directed_corpus(directory, seed)
    argv = ["replicate", "--corpus", str(directory)]
    return Plan(networks, argv, ("directed", "symmetrized"), GAMMA_GRID)


def plan_dyads_dump(directory: Path, seed: int) -> Plan:
    network = inputs.undirected_network(
        directory / f"er{seed}.txt", inputs.DYADS_N, inputs.DYADS_P, seed
    )
    argv = ["analyze", "--input", str(network.path), "--undirected", "--gamma", "0.5",
            "--orders", "1,2", "--dyads"]
    return Plan([network], argv, ("symmetrized",), (0.5,), dyads=True)


WORKLOADS = {
    "sweep-large": plan_sweep_large,
    "corpus-replicate": plan_corpus_replicate,
    "dyads-dump": plan_dyads_dump,
}


class SetupError(RuntimeError):
    """The program could not be started; the run has no result."""


def spawn(work: Path, argv: list[str] | None, trace: bool, timeout: float) -> tuple[dict, float]:
    """Run child.py once; returns its result and its set-up seconds."""
    spec = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec.write_text(json.dumps({"argv": argv, "trace": trace, "result": str(result_path)}))
    with open(work / "child.stderr", "w") as stderr:
        spawned = time.monotonic()
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec)],
                stdout=subprocess.DEVNULL, stderr=stderr, cwd=work, timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            if argv is None:
                raise SetupError("set-up probe timed out") from None
            return {"exit_code": None, "crash": "timed out"}, float("nan")
    if code != 0 or not result_path.exists():
        tail = (work / "child.stderr").read_text()[-2000:]
        raise SetupError(f"child exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - spawned


def check_command(plan: Plan, out: Path, result: dict, seed: int, workload: str) -> check.Verdict:
    verdict = check.Verdict(plan.cells())
    if result.get("exit_code") != 0:
        verdict.fail_all(f"exit code {result.get('exit_code')} {result.get('crash', '')}")
        return verdict
    curves = check.check_study_tables(out, verdict, ORDERS)
    if plan.argv[0] == "replicate":
        check.check_manifest(out, verdict, plan.networks)
    if plan.dyads:
        for cell in verdict.expected:
            if cell in curves:
                path = out / f"dyads_{cell[1]}_{cell[2]!r}.csv"
                check.check_dyads(path, verdict, cell, plan.networks[0].n, curves[cell], ORDERS)
    if seed == REFERENCE_SEED:
        check.compare_with_reference(out, HERE / "reference" / workload, verdict)
    return verdict


def write_reference(out: Path, workload: str) -> None:
    target = HERE / "reference" / workload
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for name in check.TABLES:
        if (out / name).exists():
            shutil.copyfile(out / name, target / name)
    for dyads in out.glob("dyads_*.csv"):
        (target / dyads.name.replace(".csv", ".sample.csv")).write_text(
            "".join(check.dyad_sample(dyads))
        )


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(workload: str, seed: int, plan: Plan) -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "environment": {name: os.environ.get(name) for name in ENV_RECORDED},
        "networks": len(plan.networks),
        "nodes": sum(network.n for network in plan.networks),
        "edges": sum(network.edges for network in plan.networks),
        "cells_per_command": len(plan.cells()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="run one command at the reference seed and store its outputs as the reference",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "impactfield" / "__init__.py").is_file():
        print(f"perfbench: no impactfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[args.workload](work / "inputs", args.seed)
    out = work / "out"
    print(json.dumps({"run_record": run_record(args.workload, args.seed, plan)}), flush=True)

    try:
        setups = [spawn(work, None, False, RUN_LIMIT_S)[1] for _ in range(SETUP_PROBES)]
        if args.write_reference:
            if args.seed != REFERENCE_SEED:
                parser.error(f"the reference is made at seed {REFERENCE_SEED}")
            result, _ = spawn(work, plan.argv + ["--out", str(out)], False, RUN_LIMIT_S)
            write_reference(out, args.workload)
            return 0 if result.get("exit_code") == 0 else 1
        commands = {False: [], True: []}
        log: list[dict] = []
        attempted = failed = 0
        measure_start = time.monotonic()
        longest = 0.0
        while True:
            cycle_start = time.monotonic()
            traced = bool(args.trace) and len(commands[False]) > len(commands[True])
            shutil.rmtree(out, ignore_errors=True)
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            result, setup = spawn(work, plan.argv + ["--out", str(out)], traced, remaining)
            verdict = check_command(plan, out, result, args.seed, args.workload)
            attempted += len(verdict.expected)
            failed += len(verdict.reasons)
            for cell, reason in verdict.reasons.items():
                print(f"perfbench: cell {cell} failed: {reason}", file=sys.stderr)
            if "crash" in result:
                break
            setups.append(setup)
            commands[traced].append(result)
            log.append({"traced": traced, "setup_s": setup, "wall_s": result["wall_s"],
                        "peak_rss_mb": result["peak_rss_mb"]})
            now = time.monotonic()
            longest = max(longest, now - cycle_start)
            # start no command that would likely end after the measuring window
            if now - measure_start + longest > args.seconds and (not args.trace or commands[True]):
                break
        shutil.rmtree(out, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not commands[False] or (args.trace and not commands[True]):
        print("perfbench: no command completed", file=sys.stderr)
        return 1

    print(json.dumps({"probe_setup_s": setups[:SETUP_PROBES], "commands": log}))
    untraced_wall = statistics.median(r["wall_s"] for r in commands[False])
    if args.trace:
        per_command = [spans.layer_metrics(r["spans"]) for r in commands[True]]
        metrics = {key: statistics.median(m[key] for m in per_command) for key in per_command[0]}
        traced_wall = statistics.median(r["wall_s"] for r in commands[True])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = {key: UNITS.get(key.rsplit(".", 1)[-1], "s") for key in metrics}
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in commands[False]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
