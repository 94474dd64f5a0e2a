"""Self-tests of the benchmark's checker, references and tracer.

    python3 -m pytest -q perfbench/selftest.py

Most tests run a cheap slice of a workload's job list, so the whole file
takes well under a minute.  The file name keeps it out of the repository's
default test collection.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from run import band_mean, bootstrap, count_failures, run_pass

bootstrap()

import refs  # noqa: E402
import workloads  # noqa: E402
from homforge import circuit, graphs, randgen, verify  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402


def _slice(name: str, seed: int):
    """A cheap prefix-closed part of the workload's jobs."""
    jobs = workloads.build(name, seed).jobs
    if name == "fields-small":
        keep = [j for j in jobs if j.name in ("corpus-0", "corpus-1", "corpus-2")
                or (j.stream == "family" and "-6-" not in j.name)]
    elif name == "hom-batch":
        keep = [j for j in jobs if j.name.split("-")[1] == "10"]
    elif name == "coeff-count":
        keep = [j for j in jobs if j.stream in ("vc", "tdm")
                or (j.stream == "cis" and int(j.name.split("-")[1]) <= 4)]
    else:
        keep = [j for j in jobs if j.name == "search-triple-0"
                or j.name.endswith(("-0", "-1", "-2"))]
    return keep


def _corrupt(name: str, jobs, outputs) -> None:
    """Change one output so that it is wrong but well-formed."""
    if name == "fields-small":
        first = outputs[0][0]                  # corpus-0 over F_2
        first[0] = (first[0] + 1) % 2
    elif name == "hom-batch":
        i = next(i for i, j in enumerate(jobs) if j.stream == "eval")
        outputs[i] = (outputs[i] + 1) % 5      # first chunk is over F_5
    elif name == "coeff-count":
        p = int(jobs[0].name.split("-p")[1].split("-")[0])
        outputs[0] = (outputs[0] + 1) % p
    else:
        i = next(i for i, j in enumerate(jobs) if j.stream == "cycle")
        ok, n_homs, factor, paths = outputs[i]
        outputs[i] = (ok, n_homs + 1, factor, paths)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_is_counted(name):
    jobs = _slice(name, 0)
    wall, latencies, outputs = run_pass(jobs)
    assert count_failures(jobs, [(wall, latencies, outputs)])[0] == 0
    _corrupt(name, jobs, outputs)
    failed, _ = count_failures(jobs, [(wall, latencies, outputs)])
    assert failed == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_changes_inputs_and_passes(name):
    assert workloads.build(name, 0).digest != workloads.build(name, 1).digest
    jobs = _slice(name, 1)
    assert count_failures(jobs, [run_pass(jobs)])[0] == 0


def test_fault_injected_job_counts_only_as_mismatch():
    jobs = [j for j in workloads.build("gadget-verify", 0).jobs
            if j.name == "search-triple-0" or j.stream == "parse_fault"][:2]
    assert jobs[1].stream == "parse_fault"
    _wall, _lat, outputs = run_pass(jobs)
    reported_ok, n_homs, mons = outputs[1]
    assert reported_ok is False
    assert jobs[1].check(outputs[1])
    assert not jobs[1].check((True, n_homs, mons))


def test_tracer_counts_and_restores():
    originals = (verify.enumerate_homs, graphs.is_rigid, circuit.Circuit.eval_batch)
    jobs = _slice("hom-batch", 0)
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(jobs)
    finally:
        tracer.uninstall()
    assert (verify.enumerate_homs, graphs.is_rigid, circuit.Circuit.eval_batch) == originals
    metrics = tracer.metrics(1, 1.0, 1.0)
    assert metrics["circuit.eval_batch.calls"][0] == sum(j.stream == "eval" for j in jobs)
    assert metrics["compiler.compile_hom.calls"][0] == 1
    assert 0 < metrics["compiler.gates_live"][0] <= metrics["compiler.gates_emitted"][0]


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_contraction_reference_matches_brute_force(q):
    rng = random.Random(q)
    for _ in range(5):
        G, _td = randgen.random_partial_ktree(rng.randint(3, 7), 2, rng)
        H = randgen.gnp(rng.randint(2, 4), 0.7, rng)
        labels = workloads.pair_labels(G, H)
        values = {lab: np.array([rng.randrange(q) for _ in range(16)]) for lab in labels}
        homs = graphs.enumerate_homs(G, H)
        edges = sorted(G.edges)
        want = refs.hom_sum_bruteforce(edges, G.n, H.n, homs, values, q)
        got = refs.hom_sum_contraction(G.n, edges, sorted(H.edges), H.n, values, q, chunk=5)
        assert np.array_equal(got, want)


def test_band_mean_averages_around_the_percentile():
    assert band_mean(list(range(101)), 50) == 50
    assert band_mean(list(range(101)), 90) == 90
    # one value next to the percentile moves it by a share of its change
    values = [1.0] * 50 + [3.0] * 51
    assert band_mean(values, 50) == pytest.approx((5 * 1.0 + 6 * 3.0) / 11)


def test_probe_calls_no_library_code():
    speed = Speed()
    tracer = Tracer()
    tracer.install()
    try:
        speed.probe()
    finally:
        tracer.uninstall()
    assert not tracer.spans and not sum(tracer.counts.values())
    assert speed.scale(speed.at[0], speed.at[0]) > 0
