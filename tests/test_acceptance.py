"""Acceptance checklist: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get a one-line
``[PASS]``/``[FAIL]`` report per criterion. The criteria split into
closed-form oracles (tiny cycles with hand-derivable propagators),
identity checks over a random-graph corpus, statistical properties of
the study sweep on fixed-seed synthetic corpora, determinism of the
replication command, and a large-graph timing smoke test.

Corpora are frozen by seed so every run checks the same graphs. The
study-sweep fixtures are module-scoped because criteria 6 through 8
share the same sweeps; their wall-clock budget is asserted once per
criterion against the recorded batch time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from impactfield import (
    Graph,
    Treatment,
    build_weight,
    decompose,
    equilibrium_state,
    exact_propagator,
    gamma_grid,
    generate_er,
    generate_preferential,
    geodesic_distances,
    run_study,
    select_modes,
)
from impactfield.cli import main
from impactfield.errors import DefectivenessError, GraphValidationError
from impactfield.impact import approx_impact

from util import (
    arcs,
    connected_er,
    distance_factored_impact,
    series_oracle,
    series_terms_for_tolerance,
    small_er_corpus,
)


@contextmanager
def reported(number: int, description: str):
    """Print one checklist line per criterion, after the body settles."""
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def directed_er_corpus(count: int = 20, start_seed: int = 2000) -> list[Graph]:
    """Directed ER draws at mean total degree 5, skipping acyclic ones."""
    graphs: list[Graph] = []
    seed = start_seed
    while len(graphs) < count:
        candidate = generate_er(n=300, p=5.0 / 598.0, directed=True, seed=seed)
        seed += 1
        try:
            build_weight(candidate, 0.5)
        except GraphValidationError:
            continue
        graphs.append(candidate)
    return graphs


@pytest.fixture(scope="module")
def identity_corpus() -> list[Graph]:
    return small_er_corpus()


@pytest.fixture(scope="module")
def er_sweeps() -> dict:
    """Full gamma-grid study sweeps over both 300-node ER corpora."""
    undirected = connected_er(300, 5.0 / 299.0, 20, start_seed=1000)
    directed = directed_er_corpus(20, start_seed=2000)
    started = time.perf_counter()
    undirected_cells = []
    for index, graph in enumerate(undirected):
        undirected_cells.extend(run_study(graph, network=f"er-und-{index:02d}"))
    directed_cells = []
    for index, graph in enumerate(directed):
        directed_cells.extend(run_study(graph, network=f"er-dir-{index:02d}"))
    elapsed = time.perf_counter() - started
    for cell in undirected_cells + directed_cells:
        assert cell.error is None, f"{cell.network} gamma={cell.gamma}: {cell.error}"
    return {
        "undirected": undirected_cells,
        "directed": directed_cells,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def pa_cells() -> list:
    """Preferential-attachment sweep at gamma 0.5 (hub-and-spoke regime)."""
    cells = []
    for offset in range(10):
        graph = generate_preferential(n=150, m=3, seed=1000 + offset)
        cells.extend(run_study(graph, gammas=[0.5], network=f"pa-{offset:02d}"))
    for cell in cells:
        assert cell.error is None, f"{cell.network}: {cell.error}"
    return cells


def correlations_by_order(cell) -> dict[int, float]:
    return {record.order: record.pearson_r for record in cell.correlations}


def mean_order1(cells, treatment: Treatment, gamma: float) -> float:
    values = [
        correlations_by_order(cell)[1]
        for cell in cells
        if cell.treatment is treatment and cell.gamma == gamma
    ]
    assert values, f"no cells for {treatment.value} at gamma={gamma}"
    return float(np.mean(values))


def test_criterion_1_two_cycle_closed_form():
    with reported(1, "2-cycle closed-form propagator and equilibrium (1e-12)"):
        started = time.perf_counter()
        weight = build_weight(arcs(2, [(0, 1)], directed=False), 0.5)
        exact = exact_propagator(weight)
        expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
        assert np.max(np.abs(exact.values - expected)) <= 1e-12
        state = equilibrium_state(weight, np.array([1.0, 0.0]))
        assert np.max(np.abs(state - np.array([4.0 / 3.0, 2.0 / 3.0]))) <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_three_cycle_closed_form():
    with reported(2, "3-cycle closed form, order-2 exactness, imaginary residue"):
        started = time.perf_counter()
        graph = arcs(3, [(0, 1), (1, 2), (2, 0)])
        dist = geodesic_distances(graph)
        decomposition = decompose(graph)
        for gamma in gamma_grid():
            weight = build_weight(graph, gamma)
            exact = exact_propagator(weight)
            closed = gamma ** dist.hops / (1.0 - gamma ** 3)
            assert np.max(np.abs(exact.values - closed)) <= 1e-10

            modes = select_modes(decomposition, gamma, order=2)
            assert len(modes.eigenvalues) == 3  # conjugate pair pulls in mode 3
            approx = approx_impact(modes, dist)
            assert np.max(np.abs(approx.values - exact.values)) <= 1e-8

            total = np.zeros((3, 3), dtype=complex)
            for m in range(len(modes.eigenvalues)):
                table = modes.gains[m] * np.power(
                    gamma * modes.eigenvalues[m], dist.hops
                )
                table = table * np.outer(
                    modes.receive_vectors[:, m], modes.send_rows[m, :]
                )
                total += table
            assert np.max(np.abs(total.imag)) <= 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_3_series_oracle_equivalence(identity_corpus):
    with reported(3, "propagator equals truncated walk series on 50 ER graphs"):
        started = time.perf_counter()
        worst = 0.0
        for graph in identity_corpus:
            for gamma in gamma_grid():
                weight = build_weight(graph, gamma)
                exact = exact_propagator(weight)
                series = series_oracle(weight, series_terms_for_tolerance(gamma))
                worst = max(worst, float(np.max(np.abs(exact.values - series.values))))
        assert worst <= 1e-8
        assert time.perf_counter() - started < 60.0


def test_criterion_4_distance_factored_identity(identity_corpus):
    with reported(4, "distance-factored identity matches propagator (1e-8)"):
        started = time.perf_counter()
        worst = 0.0
        for graph in identity_corpus:
            dist = geodesic_distances(graph)
            for gamma in gamma_grid():
                weight = build_weight(graph, gamma)
                exact = exact_propagator(weight)
                factored = distance_factored_impact(weight, dist)
                gap = np.abs(factored.values - exact.values)[dist.reachable]
                worst = max(worst, float(np.max(gap)))
        assert worst <= 1e-8
        assert time.perf_counter() - started < 60.0


def test_criterion_5_full_rank_spectral_exactness(identity_corpus):
    with reported(5, "order-n spectral reconstruction is exact (1e-6)"):
        started = time.perf_counter()
        tested = 0
        tested_directed = 0
        worst = 0.0
        for graph in identity_corpus:
            if graph.n > 30:
                continue
            try:
                decomposition = decompose(graph)
            except DefectivenessError:
                continue  # defective transient: no full eigenbasis to test
            tested += 1
            tested_directed += int(graph.directed)
            dist = geodesic_distances(graph)
            for gamma in gamma_grid():
                weight = build_weight(graph, gamma)
                exact = exact_propagator(weight)
                modes = select_modes(decomposition, gamma, order=graph.n)
                approx = approx_impact(modes, dist)
                gap = np.abs(approx.values - exact.values)[dist.reachable]
                worst = max(worst, float(np.max(gap)))
        assert tested >= 20 and tested_directed >= 5
        assert worst <= 1e-6
        assert time.perf_counter() - started < 60.0


def test_criterion_6_exponential_decay(er_sweeps):
    with reported(6, "semi-log decay fits: slope < 0 in 20/20, r2 >= 0.9 in >= 18/20"):
        fits = [
            cell.fit
            for cell in er_sweeps["undirected"]
            if cell.gamma == 0.875
        ]
        assert len(fits) == 20
        assert all(fit is not None and fit.slope < 0.0 for fit in fits)
        strong = sum(1 for fit in fits if fit.r_squared >= 0.9)
        assert strong >= 18
        assert er_sweeps["elapsed"] < 300.0


def test_criterion_7_correlation_rises_with_gamma(er_sweeps):
    with reported(7, "mean order-1 correlation higher at gamma 0.96875 than 0.5"):
        directed = er_sweeps["directed"]
        pooled = er_sweeps["undirected"] + directed
        assert mean_order1(directed, Treatment.DIRECTED, 0.96875) > mean_order1(
            directed, Treatment.DIRECTED, 0.5
        )
        assert mean_order1(pooled, Treatment.SYMMETRIZED, 0.96875) > mean_order1(
            pooled, Treatment.SYMMETRIZED, 0.5
        )
        assert er_sweeps["elapsed"] < 300.0


def test_criterion_8_order_2_improvement(er_sweeps, pa_cells):
    with reported(8, "order-2 no worse than order-1 (cells), better on PA medians"):
        cells = er_sweeps["undirected"] + er_sweeps["directed"]
        assert len(cells) == 300  # 20 undirected + 20 directed x 2 treatments, x 5 gammas
        improved = 0
        for cell in cells:
            by_order = correlations_by_order(cell)
            assert 1 in by_order and 2 in by_order, f"{cell.network}: {cell.notes}"
            improved += int(by_order[2] >= by_order[1] - 0.05)
        assert improved / len(cells) >= 0.90

        first = [correlations_by_order(cell)[1] for cell in pa_cells]
        second = [correlations_by_order(cell)[2] for cell in pa_cells]
        assert len(first) == 10
        assert float(np.median(second)) >= float(np.median(first))


def test_criterion_9_replicate_determinism(tmp_path):
    with reported(9, "two replicate runs produce byte-identical CSVs"):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in (11, 12, 13):
            code = main(
                [
                    "generate",
                    "er",
                    "--n", "60",
                    "--p", "0.08",
                    "--directed",
                    "--seed", str(seed),
                    "--out", str(corpus / f"net{seed}.txt"),
                ]
            )
            assert code == 0

        def replicate(out: Path) -> dict[str, bytes]:
            assert main(["replicate", "--corpus", str(corpus), "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}

        first = replicate(tmp_path / "run1")
        second = replicate(tmp_path / "run2")
        assert set(first) == {"curves.csv", "fits.csv", "correlations.csv", "manifest.csv"}
        assert first == second


def test_criterion_10_large_graph_smoke(tmp_path):
    with reported(10, "n=2500 ER full gamma grid with order-2 in under 10 minutes"):
        started = time.perf_counter()
        out = tmp_path / "scale"
        code = main(
            [
                "analyze",
                "--input", f"er:n=2500,p={5.0 / 2499.0!r},seed=7",
                "--undirected",
                "--gamma-grid",
                "--orders", "2",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        correlations = (out / "correlations.csv").read_text().splitlines()
        gammas = {line.split(",")[2] for line in correlations[1:]}
        assert len(gammas) == 5
        assert (out / "curves.csv").exists() and (out / "fits.csv").exists()
        assert elapsed < 600.0
