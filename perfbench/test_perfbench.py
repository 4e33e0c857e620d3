"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import impactfield.analysis  # noqa: E402
import impactfield.spectral  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from impactfield import cli  # noqa: E402


def _one_directed_network(directory: Path) -> None:
    directory.mkdir()
    seed = 0
    while True:
        src, dst = inputs.er_arcs(60, 0.05, directed=True, seed=seed)
        if inputs.has_cycle(60, src, dst):
            inputs.write_network(directory / "net.txt", src, dst)
            return
        seed += 1


def test_tracer_catches_nested_calls(tmp_path):
    _one_directed_network(tmp_path / "corpus")
    original = impactfield.spectral.spectral_radius
    argv = ["replicate", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "out"),
            "--gamma", "0.5"]
    with spans.Tracer() as tracer:
        assert impactfield.analysis.spectral_radius is not original
        assert cli.main(argv) == 0
    assert impactfield.analysis.spectral_radius is original
    assert impactfield.spectral.spectral_radius is original

    metrics = spans.layer_metrics(tracer.spans)
    # two treatments, each with the outer call and the one inside decompose
    assert metrics["spectral.spectral_radius.calls"] == 4
    names = [span[0] for span in tracer.spans]
    assert any(
        name == "spectral.spectral_radius" and names[parent] == "spectral.decompose"
        for name, parent, *_ in tracer.spans
    )
    assert metrics["analysis.cells"] == 2
    assert metrics["graph.largest_component_diameter.calls"] == 1

    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[1] == -1
    # the reported metrics partition the root span as well
    assert abs(sum(metrics[key] for key in spans.PARTITION) - (root[3] - root[2])) < 1e-9


def test_seed_changes_inputs(tmp_path):
    def corpus_bytes(directory: Path, seed: int) -> list[bytes]:
        return [n.path.read_bytes() for n in inputs.directed_corpus(directory, seed, count=2)]

    assert corpus_bytes(tmp_path / "a", 0) == corpus_bytes(tmp_path / "b", 0)
    assert corpus_bytes(tmp_path / "a", 0) != corpus_bytes(tmp_path / "c", 1)
    first = inputs.undirected_network(tmp_path / "u0.txt", 200, 0.02, seed=0).path.read_bytes()
    again = inputs.undirected_network(tmp_path / "v0.txt", 200, 0.02, seed=0).path.read_bytes()
    other = inputs.undirected_network(tmp_path / "u1.txt", 200, 0.02, seed=1).path.read_bytes()
    assert first == again != other


def test_check_rejects_one_float_off_by_1e6_relative(tmp_path):
    plan = run.plan_sweep_large(tmp_path / "inputs", run.REFERENCE_SEED)
    out = tmp_path / "out"
    shutil.copytree(HERE / "reference" / "sweep-large", out)
    verdict = run.check_command(plan, out, {"exit_code": 0}, run.REFERENCE_SEED, "sweep-large")
    assert verdict.reasons == {}

    lines = (out / "curves.csv").read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-6))
    lines[3] = ",".join(fields)
    (out / "curves.csv").write_text("".join(lines))
    verdict = run.check_command(plan, out, {"exit_code": 0}, run.REFERENCE_SEED, "sweep-large")
    assert list(verdict.reasons) == [(fields[0], fields[1], float(fields[2]))]
    assert "mean_impact" in next(iter(verdict.reasons.values()))


def test_structural_check_needs_no_reference(tmp_path):
    plan = run.plan_sweep_large(tmp_path / "inputs", run.REFERENCE_SEED)
    out = tmp_path / "out"
    shutil.copytree(HERE / "reference" / "sweep-large", out)
    lines = (out / "correlations.csv").read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[4] = "1.5"  # pearson_r
    lines[1] = ",".join(fields)
    (out / "correlations.csv").write_text("".join(lines))
    verdict = run.check_command(plan, out, {"exit_code": 0}, seed=1, workload="sweep-large")
    assert len(verdict.reasons) == 1
    assert "outside [-1, 1]" in next(iter(verdict.reasons.values()))
