"""End-to-end command-line tests.

Everything goes through main(argv) so exit codes and messages are the
ones a shell user sees; one subprocess test confirms the installed
entry point itself.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse.linalg

import impactfield
from impactfield import cli
from impactfield.analysis import DEFAULT_FIT_RANGE, DEFAULT_ORDERS, Treatment, run_study
from impactfield.cli import main
from impactfield.graph import generate_er, parse_edge_list, serialize_edge_list
from impactfield.impact import gamma_grid

from util import (
    TracedMemory,
    cell_propagator_failing_at,
    cycle_with_trees,
    hung_path,
    read_correlations_csv,
    read_curves_csv,
    read_dyads_csv,
    read_manifest_csv,
    reciprocal_digraph,
    twin_components,
)

# one bad value per study option, shared by analyze and replicate
BAD_STUDY_OPTIONS = [
    ["--gamma", "1.5"],
    ["--orders", "0"],
    ["--fit-range", "6,1"],
    ["--fit-range", "3,3"],  # holds one distance: no fit is possible
    ["--fit-range", "0,1"],
]

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
    correlations = read_correlations_csv(out / "correlations.csv")
    assert list(correlations) == list(curves)
    # orders 1 and 2 per gamma
    assert [[r.order for r in records] for records in correlations.values()] == [[1, 2]] * 5
    assert {network for network, _, _ in correlations} == {"paw"}


def test_analyze_transitive_graph_suppresses_constant_correlations(tmp_path, capsys) -> None:
    # every dyad of the triangle sits at distance 1 with identical
    # impact, so the correlation is undefined and the single distance
    # cannot be fit; the run still succeeds and says why on stderr
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
    correlations = read_correlations_csv(out / "correlations.csv")
    assert all(record.order != 1 for records in correlations.values() for record in records)
    notes = capsys.readouterr().err.splitlines()
    assert all(line.startswith("impactfield: cell tri/symmetrized/gamma=0.5: ") for line in notes)
    assert "fit skipped" in notes[0]
    assert "order=1 correlation suppressed" in notes[1]


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
    correlations = read_correlations_csv(out / "correlations.csv")
    assert {treatment.value for _, treatment, _ in correlations} == {"directed", "symmetrized"}


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
    correlations = read_correlations_csv(out / "correlations.csv")
    assert correlations and {network for network, _, _ in correlations} == {"er-n30-p0.15-seed5"}


@pytest.mark.parametrize(
    "spec",
    [
        "er:n=abc,p=0.1",
        "er:n=30,p=high",
        "pa:n=30,m=2.5",
        "er:n=30,p=0.1,seed=x",
        "er:n=10,p=0.1,m=2",  # generate's pairing rule: m does not apply to er
        "er:n=30,p=0.1,size=3",
        "er:n=30,p=0.2,directed=maybe",
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


@pytest.mark.parametrize(
    "value, directed",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)],
)
def test_generator_spec_reads_directed_case_insensitively(value, directed) -> None:
    graph = cli._parse_generator_spec(f"er:n=8,p=0.5,directed={value}", directed, 0)
    assert graph.directed is directed


@pytest.mark.parametrize("n", [39, 40])
def test_analyze_tables_do_not_depend_on_dyads(tmp_path, n) -> None:
    # --dyads reads the same packed inverse as the pass, after it, so the
    # tables of both runs come from the same floats
    spec = ["analyze", "--input", f"er:n={n},p=0.1,seed=3", "--undirected"]
    assert main(spec + ["--out", str(tmp_path / "lean")]) == 0
    assert main(spec + ["--dyads", "--out", str(tmp_path / "kept")]) == 0
    for name in ("curves.csv", "fits.csv", "correlations.csv"):
        assert (tmp_path / "lean" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes()
    assert list((tmp_path / "kept").glob("dyads_*.csv"))


def test_reciprocal_digraph_treatments_write_the_same_bytes(tmp_path) -> None:
    # arcs in equal-weight pairs make W symmetric, so both treatments of the
    # digraph take one route and mirror one triangle into their dumps
    graph = reciprocal_digraph(generate_er(n=40, p=0.1, directed=False, seed=5))
    source = write_input(tmp_path, "pairs.txt", serialize_edge_list(graph))
    argv = ["analyze", "--input", source, "--directed", "--symmetrize", "--dyads"]
    assert main(argv + ["--gamma", "0.5", "--gamma", "0.875", "--out", str(tmp_path)]) == 0
    for gamma in ("0.5", "0.875"):
        directed = (tmp_path / f"dyads_directed_{gamma}.csv").read_bytes()
        assert directed == (tmp_path / f"dyads_symmetrized_{gamma}.csv").read_bytes()


def test_analyze_order_above_the_kept_modes_is_noted(tmp_path, capsys) -> None:
    # a 2-cycle with trees off it keeps two modes; order 3 gets a note,
    # and the curve, the fit and orders 1 and 2 stay
    source = write_input(tmp_path, "g.txt", serialize_edge_list(cycle_with_trees(2, 60, seed=2)))
    spec = ["analyze", "--input", source, "--directed", "--gamma", "0.5"]
    assert main(spec + ["--out", str(tmp_path / "two")]) == 0
    capsys.readouterr()
    assert main(spec + ["--orders", "1,2,3", "--dyads", "--out", str(tmp_path / "three")]) == 0
    err = capsys.readouterr().err
    assert err == (
        "impactfield: cell g/directed/gamma=0.5: order=3 correlation suppressed: "
        "order 3 exceeds the 2 modes kept\n"
    )
    for name in ("curves.csv", "fits.csv", "correlations.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()
    dump = tmp_path / "three" / "dyads_directed_0.5.csv"
    assert dump.read_text().partition("\n")[0] == "src,dst,dist,exact,approx1,approx2"


def test_dyad_dumps_hold_no_matrix_past_their_cell(tmp_path, monkeypatch) -> None:
    # each dump is written from its cell's row blocks while the cell's
    # packed inverse is alive, so the peak does not grow with the cells;
    # a kept exact matrix and approximations would add 3 * 8n^2 per gamma.
    # The formatting is stubbed, so the peak is the study's, not a task's text.
    n = 400
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    def no_text(task, **kwargs):
        return b"", np.zeros(len(task[1]), int), len(task[1])

    monkeypatch.setattr(impactfield.io, "_dyad_task", no_text)
    spec = ["analyze", "--input", f"er:n={n},p={5 / (n - 1)!r},seed=1", "--undirected", "--dyads"]
    peaks = []
    for gammas, out in ((["--gamma", "0.5"], "one"), (["--gamma-grid"], "grid")):
        with TracedMemory() as memory:
            assert main(spec + gammas + ["--out", str(tmp_path / out)]) == 0
            peaks.append(memory.growth())
    assert len(list((tmp_path / "grid").glob("dyads_*.csv"))) == 5
    assert peaks[1] < peaks[0] + 0.1 * 8 * n * n
    assert peaks[1] < 4 * 8 * n * n


def test_analyze_writes_a_255_hop_geodesic_unwrapped(tmp_path) -> None:
    # n > 256 while the longest geodesic fits uint8: hop 255 reaches the
    # curve and the dump as 255, with no uint8 sum wrapping it (a scalar's
    # overflow warns, and the test settings make that an error)
    graph = hung_path(255, directed=False)
    source = write_input(tmp_path, "hung.txt", serialize_edge_list(graph))
    out = tmp_path / "out"
    argv = ["analyze", "--input", source, "--undirected", "--gamma", "0.5", "--dyads"]
    assert main(argv + ["--out", str(out)]) == 0
    (curve,) = read_curves_csv(out / "curves.csv").values()
    assert [p.distance for p in curve.points] == list(range(1, 256))
    assert curve.points[-1].n_pairs == 2
    rows = read_dyads_csv(out / "dyads_symmetrized_0.5.csv")
    assert len(rows) == graph.n * (graph.n - 1)
    far = sorted((row["src"], row["dst"]) for row in rows if row["dist"] == 255)
    assert far == [("0", "255"), ("255", "0")]


def test_repeated_gamma_is_one_cell(tmp_path) -> None:
    spec = ["analyze", "--input", "er:n=40,p=0.1,seed=1", "--undirected", "--dyads"]
    assert main(spec + ["--gamma", "0.5", "--out", str(tmp_path / "once")]) == 0
    assert main(spec + ["--gamma", "0.5", "--gamma", "0.5", "--out", str(tmp_path / "twice")]) == 0
    names = sorted(path.name for path in (tmp_path / "once").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "twice").iterdir())
    for name in names:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "twice" / name).read_bytes()
    graph = generate_er(n=20, p=0.2, directed=True, seed=41)
    cells = run_study(graph, gammas=[0.5, 0.5])
    assert [(cell.treatment, cell.gamma) for cell in cells] == [
        (Treatment.DIRECTED, 0.5),
        (Treatment.SYMMETRIZED, 0.5),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "x", "--undirected", "--out", "x"],
        ["replicate", "--corpus", "x", "--out", "x"],
    ],
)
def test_study_option_defaults_are_the_library_ones(argv) -> None:
    study = cli._study_options(cli.build_parser().parse_args(argv))
    assert study["gammas"] == gamma_grid()
    assert study["orders"] == DEFAULT_ORDERS
    assert study["fit_range"] == DEFAULT_FIT_RANGE


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


def test_byte_order_mark_is_not_part_of_the_first_label(tmp_path) -> None:
    # with the mark kept, the directed 3-cycle would gain a fourth node
    # and become an acyclic path
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(TRIANGLE.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + TRIANGLE.encode())
    graph = cli._read_edge_list(plain, directed=True)
    assert cli._read_edge_list(marked, directed=True) == graph
    assert graph.labels == ("a", "b", "c")


def test_analyze_dense_eigensolver_failure_exits_three(tmp_path, capsys, monkeypatch) -> None:
    def fail(matrix, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the radius and the decomposition share one eigensolve, whichever it is
    for solver in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, solver, fail)
    path = write_input(tmp_path, "paw.txt", PAW)
    for treatment in ("--undirected", "--directed"):
        code = main(["analyze", "--input", path, treatment, "--gamma", "0.5",
                     "--out", str(tmp_path / treatment.lstrip("-"))])
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


def test_analyze_cell_failing_after_decomposition_keeps_the_others(
    tmp_path, capsys, monkeypatch
) -> None:
    monkeypatch.setattr("impactfield.analysis._cell_propagator", cell_propagator_failing_at(0.9))
    out = tmp_path / "out"
    path = write_input(tmp_path, "paw.txt", PAW)
    code = main(["analyze", "--input", path, "--undirected", "--gamma", "0.5", "--gamma", "0.9",
                 "--out", str(out)])
    assert code == 3
    assert list(read_curves_csv(out / "curves.csv")) == [("paw", Treatment.SYMMETRIZED, 0.5)]
    assert (
        "impactfield: cell paw/symmetrized/gamma=0.9 failed: singular system at gamma=0.9\n"
        in capsys.readouterr().err
    )


def test_analyze_ill_conditioned_leading_cluster_exits_three(tmp_path, capsys) -> None:
    # two cycles of equal radius, one reaching the other, make eigenvalue 1
    # defective; the kept modes' condition numbers reach 1.3e16, and no
    # modal approximation holds there
    spec = "er:n=263,p=0.004038803532229304,directed=1,seed=898932734"
    code = main(
        ["analyze", "--input", spec, "--directed", "--gamma", "0.5", "--out", str(tmp_path / "out")]
    )
    assert code == 3
    assert "has condition number" in capsys.readouterr().err


def test_analyze_acyclic_digraph_exits_one(tmp_path, capsys) -> None:
    # the radius of a DAG is 0 by structure: a validation error, not the
    # numerical failure (exit 3) an eigensolver's noise would cause
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


def test_analyze_overflowing_spectral_radius_exits_one(tmp_path, capsys) -> None:
    # the radius of this triangle is 2e308, which overflows to inf; dividing
    # by it would give W = 0 and an impact of 0.0 at every distance
    heavy = "a b 1e308\nb c 1e308\na c 1e308\n"
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "heavy.txt", heavy),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert "spectral radius inf" in capsys.readouterr().err
    assert read_curves_csv(out / "curves.csv") == {}


def test_overflowing_radius_exits_one_above_the_dense_threshold(
    tmp_path, capsys, monkeypatch
) -> None:
    # at threshold 2 the radius comes from ARPACK alone
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "2")
    heavy = "a b 1e308\nb c 1e308\na c 1e308\n"
    code = main(
        [
            "analyze",
            "--input",
            write_input(tmp_path, "heavy.txt", heavy),
            "--undirected",
            "--gamma",
            "0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "spectral radius inf" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", [None, "2"], ids=["dense", "iterative"])
@pytest.mark.parametrize("direction", ["--directed", "--undirected"])
def test_analyze_all_zero_weights_exit_one(
    tmp_path, capsys, monkeypatch, direction, threshold
) -> None:
    # an all-zero adjacency has radius 0 by structure on both sides of the
    # dense threshold; ARPACK alone fails on it (error -9, exit 3)
    if threshold is not None:
        monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", threshold)
    zero = "a b 0.0\nb c 0.0\nc a 0.0\n"
    argv = ["analyze", "--input", write_input(tmp_path, "zero.txt", zero), direction]
    assert main(argv + ["--gamma", "0.5", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "spectral radius is zero" in err
    assert "ARPACK" not in err


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


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (
            [],
            {"IMPACTFIELD_DENSE_THRESHOLD": "0"},
            "IMPACTFIELD_DENSE_THRESHOLD must be positive, got 0",
        ),
        (["--orders", "1,x"], {}, "--orders must be a comma-separated integer list, got '1,x'"),
        (["--orders", ","], {}, "--orders must not be empty"),
        (["--fit-range", "1,2,3"], {}, "--fit-range must be MIN,MAX"),
        (
            ["--input", "pa:n=10,m=2,p=0.1"],
            {},
            "generator spec 'pa:n=10,m=2,p=0.1': p does not apply to pa",
        ),
        (["--input", "er:p=0.1"], {}, "generator spec 'er:p=0.1' is missing 'n'"),
        (
            ["--input", "er:n=10,p=0.3,directed=1"],
            {},
            "generator spec directedness does not match the --directed/--undirected flag",
        ),
        (["replicate", "--corpus", "{missing}"], {}, "corpus directory {missing} does not exist"),
        (["replicate", "--corpus", "{corpus}", "--workers", "0"], {}, "workers must be at least 1"),
    ],
    ids=[
        "zero-dense-threshold",
        "non-integer-order",
        "empty-orders",
        "three-fit-bounds",
        "pa-with-p",
        "er-without-n",
        "spec-directedness",
        "missing-corpus",
        "zero-workers",
    ],
)
def test_validation_exits_name_their_fault(
    tmp_path, capsys, monkeypatch, argv, env, message
) -> None:
    # an analyze command line unless argv starts a replicate one; a later
    # --input overrides the default one
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    paths = {
        "missing": str(tmp_path / "missing"),
        "corpus": str(make_corpus(tmp_path, count=1)),
    }
    out = tmp_path / "out"
    if argv[:1] != ["replicate"]:
        pair = write_input(tmp_path, "pair.txt", TWO_CYCLE)
        argv = ["analyze", "--input", pair, "--undirected", "--gamma", "0.5"] + argv
    code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"impactfield: error: {message.format(**paths)}\n"
    assert not list(out.glob("*.csv"))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "er", "--n", "10", "--p", "0.3", "--seed", "-1", "--out", "x.txt"],
        ["generate", "pa", "--n", "10", "--m", "2", "--seed", "-1", "--out", "x.txt"],
        ["analyze", "--input", "er:n=10,p=0.3,seed=-2", "--undirected", "--out", "out"],
    ],
)
def test_negative_seed_is_a_validation_error(tmp_path, capsys, argv) -> None:
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("impactfield: error:") and "seed must be nonnegative" in err
    assert "Traceback" not in err


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
    correlations = read_correlations_csv(out / "correlations.csv")
    # 3 networks x 2 treatments x 5 grid gammas x 2 orders
    assert sum(map(len, correlations.values())) == 60
    entries = read_manifest_csv(out / "manifest.csv")
    assert [entry.network for entry in entries] == ["net0", "net1", "net2"]
    with open(out / "manifest.csv", newline="", encoding="utf-8") as handle:
        mean_degrees = [float(row["mean_degree"]) for row in csv.DictReader(handle)]
    for entry, mean_degree in zip(entries, mean_degrees, strict=True):
        assert entry.status == "ok"
        assert mean_degree == pytest.approx(2.0 * entry.edges / entry.n, abs=1e-12)
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


@pytest.fixture
def pool_widths(monkeypatch) -> list[int]:
    """The width of each process pool started; threads stand in for the processes."""
    widths: list[int] = []

    def recording_pool(max_workers, initializer):
        widths.append(max_workers)
        return concurrent.futures.ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    return widths


def test_replicate_pool_is_no_wider_than_the_corpus(tmp_path, pool_widths) -> None:
    # under the fork start method a process pool launches every worker at
    # its first submit, so a pool wider than the corpus starts idle processes
    corpus = make_corpus(tmp_path, count=2)
    out = tmp_path / "out"
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out), "--workers", "8"]) == 0
    assert pool_widths == [2]
    assert [entry.status for entry in read_manifest_csv(out / "manifest.csv")] == ["ok", "ok"]


@pytest.mark.parametrize(("files", "cpus"), [(2, 4), (4, 3)], ids=["files", "cpus"])
def test_replicate_default_pool_has_one_worker_per_usable_cpu_and_file(
    tmp_path, monkeypatch, pool_widths, files, cpus
) -> None:
    corpus = make_corpus(tmp_path, count=files)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    # an OpenBLAS to pin, whichever BLAS this process has loaded
    monkeypatch.setattr(cli, "_openblas_thread_calls", lambda: [(lambda count: None, lambda: 2)])
    out = tmp_path / "out"
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert pool_widths == [min(cpus, files)]
    assert {entry.status for entry in read_manifest_csv(out / "manifest.csv")} == {"ok"}


def test_replicate_without_an_openblas_to_pin_runs_in_process(
    tmp_path, monkeypatch, pool_widths
) -> None:
    # unpinned workers would each run full-size BLAS pools
    corpus = make_corpus(tmp_path, count=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_loaded_openblas", lambda: [])
    out = tmp_path / "out"
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert pool_widths == []
    assert [entry.status for entry in read_manifest_csv(out / "manifest.csv")] == ["ok", "ok"]


def _blas_thread_counts() -> list[int]:
    return [getter() for _, getter in cli._openblas_thread_calls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads for the test, so a pin to one shows.

    The value is the number of libraries found.
    """
    calls = cli._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS is loaded")
    saved = _blas_thread_counts()
    for setter, _ in calls:
        setter(2)
    yield len(calls)
    for (setter, _), count in zip(calls, saved):
        setter(count)


def test_one_blas_thread_pins_every_openblas_and_restores_its_count(two_blas_threads) -> None:
    with cli._one_blas_thread() as pinned:
        assert pinned
        assert _blas_thread_counts() == [1] * two_blas_threads
    assert _blas_thread_counts() == [2] * two_blas_threads


def test_study_pool_workers_run_one_blas_thread(two_blas_threads) -> None:
    # a forked worker starts with this process's two threads
    with cli._study_pool(1) as pool:
        assert pool.submit(_blas_thread_counts).result(timeout=120) == [1] * two_blas_threads


def test_replicate_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path) -> None:
    # at n=300 the float columns of a two-thread study differed from a
    # one-thread study in the last digits; replicate now runs one thread
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    seed = 0
    for name in ("net0", "net1"):
        while True:
            graph = generate_er(n=300, p=5 / 598, directed=True, seed=seed)
            seed += 1
            components, _ = scipy.sparse.csgraph.connected_components(
                graph.adjacency_sparse(), directed=True, connection="strong"
            )
            if components < graph.n:  # a strong component of two nodes or more holds a cycle
                break
        (corpus / f"{name}.txt").write_text(serialize_edge_list(graph))
    package_root = str(Path(impactfield.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        for workers in ("1", "2"):
            out = tmp_path / f"threads{threads}_workers{workers}"
            result = subprocess.run(
                [sys.executable, "-c", "import sys; from impactfield.cli import main; sys.exit(main())",
                 "replicate", "--corpus", str(corpus), "--out", str(out), "--workers", workers],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs[threads, workers] = {
                name: (out / name).read_bytes()
                for name in ("curves.csv", "fits.csv", "correlations.csv", "manifest.csv")
            }
    assert {entry.status for entry in read_manifest_csv(out / "manifest.csv")} == {"ok"}
    reference = outputs["1", "1"]
    assert all(tables == reference for tables in outputs.values())


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
    assert sum(map(len, read_correlations_csv(out / "correlations.csv").values())) == 40
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
    assert sum(map(len, read_correlations_csv(out / "correlations.csv").values())) == 40
    capsys.readouterr()


def test_replicate_records_an_iterative_solver_failure_and_continues(
    tmp_path, monkeypatch, capsys
) -> None:
    # ARPACK failing on the directed twin's decomposition is a failed
    # treatment in the manifest, not a traceback ending the run. Whether
    # the real solver fails on the twin depends on rounding, so the failure
    # is injected, into the twin's multi-mode runs only.
    corpus = make_corpus(tmp_path, count=1)
    twin = twin_components(generate_er(n=20, p=0.15, directed=True, seed=0))
    (corpus / "twin.txt").write_text(serialize_edge_list(twin))
    twin_n = parse_edge_list((corpus / "twin.txt").read_text(), directed=True).n
    assert parse_edge_list((corpus / "net0.txt").read_text(), directed=True).n != twin_n
    eigs = scipy.sparse.linalg.eigs

    def fail_on_twin(matrix, k=6, **options):
        if matrix.shape[0] == twin_n and k > 1:
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "injected", np.empty(0), np.empty((twin_n, 0))
            )
        return eigs(matrix, k=k, **options)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail_on_twin)
    monkeypatch.setenv("IMPACTFIELD_DENSE_THRESHOLD", "10")
    out = tmp_path / "out"
    # the patched solver lives in this process: a spawned worker would not see it
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out), "--workers", "1"]) == 0
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
    assert {network for network, _, _ in read_correlations_csv(out / "correlations.csv")} == {
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
    # the patched study lives in this process: a spawned worker would not see it
    assert main(["replicate", "--corpus", str(corpus), "--out", str(out), "--workers", "1"]) == 0
    entries = {entry.network: entry for entry in read_manifest_csv(out / "manifest.csv")}
    assert sorted(entries) == ["net0", "net1"]
    assert entries["net0"].status.startswith("error:")
    assert entries["net1"].status == "ok"
    assert sum(map(len, read_correlations_csv(out / "correlations.csv").values())) == 20
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
    correlations = read_correlations_csv(out / "correlations.csv")
    # single treatment, single gamma, orders 1 and 2
    assert list(correlations) == [("u", Treatment.SYMMETRIZED, 0.5)]
    assert [record.order for record in correlations[("u", Treatment.SYMMETRIZED, 0.5)]] == [1, 2]


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
    monkeypatch.setattr(impactfield.io, "_dyad_task", _die)
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
