"""End-to-end command-line tests.

Everything goes through main(argv) so exit codes and messages are the
ones a shell user sees; one subprocess test confirms the installed
entry point itself.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import impactfield
from impactfield import cli
from impactfield.cli import main
from impactfield.graph import generate_er, serialize_edge_list

from util import (
    read_correlations_csv,
    read_curves_csv,
    read_dyads_csv,
    read_manifest_csv,
    twin_components,
)

# one bad value per study option, shared by analyze and replicate
BAD_STUDY_OPTIONS = [["--gamma", "1.5"], ["--orders", "0"], ["--fit-range", "6,1"]]

TWO_CYCLE = "a b\n"
TRIANGLE = "a b\nb c\nc a\n"
PAW = "a b\nb c\nc a\na d\n"  # triangle plus a pendant, nothing degenerate


def write_input(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_two_cycle_dyads(tmp_path) -> None:
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "pair.txt", TWO_CYCLE),
            "--undirected",
            "--gamma",
            "0.5",
            "--dyads",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "curves.csv").exists()
    assert (out / "fits.csv").exists()
    assert (out / "correlations.csv").exists()
    rows = read_dyads_csv(out / "dyads_symmetrized_0.5.csv")
    assert len(rows) == 2  # both ordered off-diagonal pairs
    for row in rows:
        assert row["dist"] == 1
        assert row["exact"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert set(row) >= {"src", "dst", "dist", "exact", "approx1", "approx2"}


def test_analyze_writes_utf8_under_an_ascii_locale(tmp_path) -> None:
    source = tmp_path / "umlaut.txt"
    source.write_text("ä b\nb c\nc ä\n", encoding="utf-8")
    out = tmp_path / "out"
    package_root = str(Path(impactfield.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from impactfield.cli import main; sys.exit(main())",
         "analyze", "--input", str(source), "--undirected", "--gamma", "0.5", "--dyads",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    rows = read_dyads_csv(out / "dyads_symmetrized_0.5.csv")
    assert rows[0]["src"] == "ä"
    assert {row["dst"] for row in rows} == {"ä", "b", "c"}


def test_analyze_paw_grid(tmp_path) -> None:
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "paw.txt", PAW),
            "--undirected",
            "--gamma-grid",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    curves = read_curves_csv(out / "curves.csv")
    assert len(curves) == 5  # one per grid gamma, single treatment
    records = read_correlations_csv(out / "correlations.csv")
    assert len(records) == 10  # orders 1 and 2 per gamma
    assert all(record.network == "paw" for record in records)


def test_analyze_transitive_graph_suppresses_constant_correlations(tmp_path) -> None:
    # every dyad of the triangle sits at distance 1 with identical
    # impact, so the correlation is undefined; the run still succeeds
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "tri.txt", TRIANGLE),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = read_correlations_csv(out / "correlations.csv")
    assert all(record.order != 1 for record in records)


def test_analyze_directed_with_symmetrize_runs_both_treatments(tmp_path) -> None:
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "cyc.txt", "a b\nb c\nc a\n"),
            "--directed",
            "--symmetrize",
            "--gamma",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    curves = read_curves_csv(out / "curves.csv")
    assert {treatment.value for _, treatment, _ in curves} == {"directed", "symmetrized"}


def test_analyze_repeated_complex_spectrum_runs_both_treatments(tmp_path) -> None:
    # two disjoint directed 3-cycles plus a 15-node path into one of them:
    # the directed top-k cut lands inside the repeated pair w, conj(w)
    cycles = "c0 c1\nc1 c2\nc2 c0\nc3 c4\nc4 c5\nc5 c3\n"
    path = "".join(f"p{i} p{i + 1}\n" for i in range(14)) + "p14 c0\n"
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "twins.txt", cycles + path),
            "--directed",
            "--symmetrize",
            "--gamma",
            "0.5",
            "--orders",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = read_correlations_csv(out / "correlations.csv")
    assert {record.treatment.value for record in records} == {"directed", "symmetrized"}


def test_analyze_generator_spec_input(tmp_path) -> None:
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            "er:n=30,p=0.15,seed=5",
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = read_correlations_csv(out / "correlations.csv")
    assert records and all(record.network == "er-n30-p0.15-seed5" for record in records)


@pytest.mark.parametrize(
    "spec",
    [
        "er:n=abc,p=0.1",
        "er:n=30,p=high",
        "pa:n=30,m=2.5",
        "er:n=30,p=0.1,seed=x",
        "er:n=10,p=0.1,m=2",  # generate's pairing rule: m does not apply to er
        "er:n=30,p=0.1,size=3",
    ],
)
def test_analyze_rejects_malformed_generator_spec(tmp_path, capsys, spec) -> None:
    out = tmp_path / "out"
    code = main(["analyze", "--input", spec, "--undirected", "--gamma", "0.5", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("impactfield: error:") and spec in err
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))


def test_analyze_is_deterministic(tmp_path) -> None:
    spec = ["analyze", "--input", "er:n=25,p=0.2,seed=9", "--undirected", "--gamma-grid"]
    code_a = main(spec + ["--out", str(tmp_path / "a")])
    code_b = main(spec + ["--out", str(tmp_path / "b")])
    assert code_a == code_b == 0
    for name in ("curves.csv", "fits.csv", "correlations.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("option", BAD_STUDY_OPTIONS)
def test_analyze_rejects_bad_study_options_up_front(tmp_path, capsys, option) -> None:
    out = tmp_path / "out"
    pair = write_input(tmp_path, "pair.txt", TWO_CYCLE)
    code = main(["analyze", "--input", pair, "--undirected", "--out", str(out)] + option)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("impactfield: error:")
    assert {"--gamma": "gamma", "--orders": "order", "--fit-range": "fit range"}[option[0]] in err
    assert not list(out.glob("*.csv"))


def test_analyze_missing_input_file(tmp_path, capsys) -> None:
    code = main(
        [
            "analyze",
            "--input",
            str(tmp_path / "no_such_file.txt"),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "cannot read input" in capsys.readouterr().err


def test_analyze_empty_input_is_a_validation_error(tmp_path, capsys) -> None:
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "empty.txt", "# nothing here\n"),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "no edges" in capsys.readouterr().err


def test_analyze_parse_failure_exits_two(tmp_path, capsys) -> None:
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "bad.txt", "a b\nc\n"),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_undecodable_input_exits_two(tmp_path, capsys) -> None:
    path = tmp_path / "latin.txt"
    path.write_bytes(b"a b\n\xe9t\xe9 b\n")
    code = main(["analyze", "--input", str(path), "--undirected", "--gamma", "0.5",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "latin.txt" in capsys.readouterr().err


def test_analyze_dense_eigensolver_failure_exits_three(tmp_path, capsys, monkeypatch) -> None:
    def fail(matrix, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for solver in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, solver, fail)
    code = main(["analyze", "--input", write_input(tmp_path, "paw.txt", PAW), "--undirected",
                 "--gamma", "0.5", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


def test_analyze_failed_cell_names_the_cell(tmp_path, capsys) -> None:
    # acyclic digraph: the directed treatment fails and the exit code
    # carries the failure; no symmetrized fallback without --symmetrize
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "dag.txt", "a b\nb c\n"),
            "--directed",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "dag/directed/gamma=0.5" in err


def test_analyze_acyclic_digraph_exits_one(tmp_path, capsys) -> None:
    # the radius of a DAG is 0 by structure: a validation error, not the
    # ARPACK-versus-dense disagreement (exit 3) its noise would cause
    dag = "a b\nb c\nc d\na c\nb d\nd e\na e\n"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "dag.txt", dag),
            "--directed",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "spectral radius" in capsys.readouterr().err


def test_analyze_flag_conflicts(tmp_path, capsys) -> None:
    base = [
        "analyze",
        "--input",
        write_input(tmp_path, "pair.txt", TWO_CYCLE),
        "--out",
        str(tmp_path / "out"),
    ]
    assert main(base + ["--undirected", "--symmetrize", "--gamma", "0.5"]) == 1
    assert main(base + ["--undirected", "--gamma", "0.5", "--gamma-grid"]) == 1
    capsys.readouterr()


def test_analyze_respects_dense_threshold_env(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "10")
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            "er:n=30,p=0.15,seed=5",
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0  # forced through the iterative eigensolver route
    assert read_correlations_csv(out / "correlations.csv")


def test_analyze_two_nodes_above_the_dense_threshold_fails_cleanly(
    tmp_path, monkeypatch, capsys
) -> None:
    # too small for the iterative route on either side of the threshold:
    # an error with its exit code, never a traceback
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "1")
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "two.txt", TWO_CYCLE),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "two/symmetrized/gamma=0.5" in err
    # the message names the cause, not an internal argument
    assert "raise the dense threshold" in err
    assert "k must be a positive integer" not in err


def test_analyze_rejects_bad_dense_threshold_env(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "soon")
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "pair.txt", TWO_CYCLE),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "IMPACTFIELD_DENSE_THRESHOLD" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate


def test_generate_er_writes_header_and_edges(tmp_path) -> None:
    out = tmp_path / "er.txt"
    code = main(["generate", "er", "--n", "50", "--p", "0.1", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# er n=50")
    assert len(lines) > 1


def test_generate_er_with_zero_probability_has_no_edges(tmp_path) -> None:
    out = tmp_path / "er0.txt"
    code = main(["generate", "er", "--n", "10", "--p", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines == []


def test_generate_is_byte_identical_across_runs(tmp_path) -> None:
    args = ["generate", "er", "--n", "200", "--p", "0.025", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a.txt")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_generate_pa_edge_count(tmp_path) -> None:
    out = tmp_path / "pa.txt"
    code = main(["generate", "pa", "--n", "50", "--m", "2", "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(lines) == 97  # 1 + sum over arrivals of min(m, existing)


def test_generate_validates_parameter_pairing(tmp_path, capsys) -> None:
    out = str(tmp_path / "x.txt")
    assert main(["generate", "er", "--n", "10", "--seed", "1", "--out", out]) == 1
    assert main(["generate", "er", "--n", "10", "--p", "0.1", "--m", "2", "--seed", "1", "--out", out]) == 1
    assert main(["generate", "pa", "--n", "10", "--seed", "1", "--out", out]) == 1
    assert main(["generate", "pa", "--n", "10", "--m", "2", "--directed", "--seed", "1", "--out", out]) == 1
    capsys.readouterr()


def test_generated_file_feeds_analyze(tmp_path) -> None:
    edge_file = tmp_path / "er.txt"
    assert main(["generate", "er", "--n", "40", "--p", "0.12", "--seed", "21", "--out", str(edge_file)]) == 0
    out = tmp_path / "out"
    code = main(
        ["analyze", "--input", str(edge_file), "--undirected", "--gamma", "0.875", "--out", str(out)]
    )
    assert code == 0
    assert read_correlations_csv(out / "correlations.csv")


# ---------------------------------------------------------------------------
# replicate


def make_corpus(tmp_path, count: int = 3):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(count):
        main(
            [
                "generate",
                "er",
                "--n",
                "25",
                "--p",
                "0.2",
                "--directed",
                "--seed",
                str(100 + index),
                "--out",
                str(corpus / f"net{index}.txt"),
            ]
        )
    return corpus


def test_replicate_covers_the_corpus(tmp_path) -> None:
    corpus = make_corpus(tmp_path)
    out = tmp_path / "out"
    code = main(["replicate", "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    records = read_correlations_csv(out / "correlations.csv")
    # 3 networks x 2 treatments x 5 grid gammas x 2 orders
    assert len(records) == 60
    entries = read_manifest_csv(out / "manifest.csv")
    assert [entry.network for entry in entries] == ["net0", "net1", "net2"]
    for entry in entries:
        assert entry.status == "ok"
        assert entry.mean_degree == pytest.approx(2.0 * entry.edges / entry.n, abs=1e-12)
        assert entry.diameter >= 1


def test_replicate_is_deterministic_and_worker_invariant(tmp_path) -> None:
    corpus = make_corpus(tmp_path)
    outputs = {}
    for label, workers in (("one", "1"), ("again", "1"), ("two", "2")):
        out = tmp_path / label
        assert main(["replicate", "--corpus", str(corpus), "--out", str(out), "--workers", workers]) == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("curves.csv", "fits.csv", "correlations.csv", "manifest.csv")
        }
    assert outputs["one"] == outputs["again"]
    assert outputs["one"] == outputs["two"]


def test_replicate_logs_bad_network_and_continues(tmp_path, capsys) -> None:
    corpus = make_corpus(tmp_path, count=2)
    (corpus / "broken.txt").write_text("a b\nmalformed line here\n")
    out = tmp_path / "out"
    code = main(["replicate", "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert entries["broken"].status.startswith("error:")
    assert entries["net0"].status == "ok"
    assert entries["net1"].status == "ok"
    assert len(read_correlations_csv(out / "correlations.csv")) == 40
    capsys.readouterr()


def test_replicate_records_undecodable_file_and_continues(tmp_path, capsys) -> None:
    corpus = make_corpus(tmp_path, count=2)
    (corpus / "latin.txt").write_bytes(b"a b\n\xe9t\xe9 b\n")
    out = tmp_path / "out"
    code = main(["replicate", "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert entries["latin"].status.startswith("error:")
    assert entries["net0"].status == "ok"
    assert entries["net1"].status == "ok"
    assert len(read_correlations_csv(out / "correlations.csv")) == 40
    capsys.readouterr()


def test_replicate_records_an_iterative_solver_failure_and_continues(
    tmp_path, monkeypatch, capsys
) -> None:
    # ARPACK fails on the directed twin (every eigenvalue repeats); that is
    # a failed treatment in the manifest, not a traceback ending the run
    corpus = make_corpus(tmp_path, count=1)
    twin = twin_components(generate_er(n=20, p=0.15, directed=True, seed=0))
    (corpus / "twin.txt").write_text(serialize_edge_list(twin))
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "10")
    out = tmp_path / "out"
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out)]) == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert entries["twin"].status == "partial: 5 of 10 cells failed"
    assert entries["net0"].status == "ok"
    capsys.readouterr()


def test_replicate_records_a_dead_worker_and_continues(tmp_path, monkeypatch, capsys) -> None:
    # a worker that dies (killed, or out of memory under the OOM killer)
    # breaks the process pool; the networks lost with it are rerun alone,
    # only the one that dies again gets an error row, and the run still
    # writes its tables
    corpus = make_corpus(tmp_path)
    study = cli.run_study

    def crash_on_net1(graph, network, **options):
        if network == "net1":
            os._exit(1)
        return study(graph, network=network, **options)

    monkeypatch.setattr(cli, "run_study", crash_on_net1)
    # forked workers inherit the patched study
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork),
    )
    out = tmp_path / "out"
    code = main(["replicate", "--corpus", str(corpus), "--out", str(out), "--workers", "2"])
    assert code == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert sorted(entries) == ["net0", "net1", "net2"]
    assert entries["net1"].status.startswith("error: BrokenProcessPool")
    assert entries["net0"].status == entries["net2"].status == "ok"
    assert {row.network for row in read_correlations_csv(out / "correlations.csv")} == {
        "net0", "net2"
    }
    capsys.readouterr()


def test_replicate_records_a_memory_error_and_continues(tmp_path, monkeypatch, capsys) -> None:
    corpus = make_corpus(tmp_path, count=2)
    study = cli.run_study

    def exhaust_on_net0(graph, network, **options):
        if network == "net0":
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        return study(graph, network=network, **options)

    monkeypatch.setattr(cli, "run_study", exhaust_on_net0)
    out = tmp_path / "out"
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out)]) == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert sorted(entries) == ["net0", "net1"]
    assert entries["net0"].status.startswith("error:")
    assert entries["net1"].status == "ok"
    assert len(read_correlations_csv(out / "correlations.csv")) == 20
    capsys.readouterr()


@pytest.mark.parametrize("option", BAD_STUDY_OPTIONS)
def test_replicate_rejects_bad_study_options_up_front(tmp_path, capsys, option) -> None:
    corpus = make_corpus(tmp_path, count=1)
    out = tmp_path / "out"
    code = main(["replicate", "--corpus", str(corpus), "--out", str(out)] + option)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_replicate_empty_corpus_fails(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code = main(["replicate", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "no inputs" in capsys.readouterr().err


def test_replicate_undirected_flag(tmp_path) -> None:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    main(["generate", "er", "--n", "20", "--p", "0.2", "--seed", "5", "--out", str(corpus / "u.txt")])
    out = tmp_path / "out"
    code = main(
        ["replicate", "--corpus", str(corpus), "--out", str(out), "--undirected", "--gamma", "0.5"]
    )
    assert code == 0
    records = read_correlations_csv(out / "correlations.csv")
    assert len(records) == 2  # single treatment, single gamma, orders 1 and 2
    assert all(record.treatment.value == "symmetrized" for record in records)


# ---------------------------------------------------------------------------
# output paths


@pytest.mark.parametrize("command", ["analyze", "generate", "replicate"])
def test_out_below_a_regular_file_is_a_validation_error(tmp_path, capsys, command) -> None:
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = str(blocker / "out")
    if command == "analyze":
        pair = write_input(tmp_path, "pair.txt", TWO_CYCLE)
        argv = ["analyze", "--input", pair, "--undirected", "--gamma", "0.5", "--out", out]
    elif command == "generate":
        argv = ["generate", "er", "--n", "10", "--p", "0.2", "--seed", "1",
                "--out", str(blocker / "out" / "er.txt")]
    else:
        argv = ["replicate", "--corpus", str(make_corpus(tmp_path, count=1)), "--out", out]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("impactfield: error:")
    assert not list(tmp_path.rglob("*.csv"))
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("analyze", "fits.csv"),
        ("analyze", "dyads_symmetrized_0.5.csv"),
        ("replicate", "curves.csv"),
        ("replicate", "manifest.csv"),
    ],
)
def test_failed_output_write_is_a_validation_error(tmp_path, capsys, command, blocked) -> None:
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "analyze":
        paw = write_input(tmp_path, "paw.txt", PAW)
        argv = ["analyze", "--input", paw, "--undirected", "--gamma", "0.5", "--dyads"]
    else:
        argv = ["replicate", "--corpus", str(make_corpus(tmp_path, count=1))]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"impactfield: error: cannot write {out / blocked}:")
    assert "Traceback" not in err
    assert (out / blocked).is_dir()
    assert not [path for path in out.iterdir() if path.name.startswith(".")]


def _die(*args, **kwargs):
    os._exit(1)


def test_dead_dyad_format_worker_is_a_validation_error(tmp_path, monkeypatch, capsys) -> None:
    argv = ["analyze", "--input", "er:n=80,p=0.05", "--undirected", "--gamma", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "tables")]) == 0
    # two CPUs, so the several blocks of the dump go to a pool of forked
    # workers, each of which dies on its first block
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(impactfield.io, "_dyad_block", _die)
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork),
    )
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--dyads", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"impactfield: error: cannot write {out / 'dyads_symmetrized_0.5.csv'}:")
    assert "Traceback" not in err
    tables = ["correlations.csv", "curves.csv", "fits.csv"]
    assert sorted(path.name for path in out.iterdir()) == tables
    for name in tables:
        assert (out / name).read_bytes() == (tmp_path / "tables" / name).read_bytes()


def test_generate_out_naming_a_directory_is_a_validation_error(tmp_path, capsys) -> None:
    argv = ["generate", "er", "--n", "10", "--p", "0.2", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("impactfield: error: cannot write")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_smoke(tmp_path) -> None:
    out = tmp_path / "er.txt"
    result = subprocess.run(
        ["impactfield", "generate", "er", "--n", "10", "--p", "0.2", "--seed", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert out.exists()


def test_module_reports_usage_without_args() -> None:
    result = subprocess.run(
        [sys.executable, "-c", "from impactfield.cli import main; main([])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(impactfield.__file__).parent.parent)},
    )
    assert result.returncode == 2  # argparse usage failure
    assert "usage" in result.stderr
