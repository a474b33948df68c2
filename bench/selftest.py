"""Self-tests of the benchmark: python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package test suite's collection; they
check the harness (oracles, tracer, output contract), not the library.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, n_ops):
    """The first ``n_ops`` operations of a workload and their records,
    with scan_dense cut to 2000 points per scan and every operation given
    the full oracle."""
    wl = workloads.WORKLOADS[name](3, tmp_path)
    if name == "scan_dense":
        wl.points = 2000
    ops, records = [], []
    batches = wl.batches()
    while len(ops) < n_ops:
        for op in next(batches):
            op.full = op.mp_check = True
            ops.append(op)
            records.append(wl.record(op, wl.run(op)))
    return ops[:n_ops], records[:n_ops]


def check(name, ops, records):
    return [oracle.CHECKS[name](op, rec) for op, rec in zip(ops, records)]


@pytest.mark.parametrize("name, n_ops", [
    ("scan_dense", 3), ("channel_sweep", 20), ("poles_sweep", 30),
    ("channel_wide", 5), ("poles_wide", 5),
])
def test_tiny_run_passes_the_oracles(name, n_ops, tmp_path):
    ops, records = tiny(name, tmp_path, n_ops)
    failures = check(name, ops, records)
    if name in run.BENCHMARK_WORKLOADS:
        assert failures == [[]] * len(ops)
    else:
        assert len(failures) == len(ops)  # probes may fail by design


def test_phase_shifted_by_a_third_of_pi_fails(tmp_path):
    ops, records = tiny("channel_sweep", tmp_path, 1)
    records[0]["cols"][0, 150] += math.pi / 3
    assert check("channel_sweep", ops, records)[0]


def test_branch_off_by_pi_fails(tmp_path):
    # mod pi the values are right; only the lift is wrong
    ops, records = tiny("channel_sweep", tmp_path, 1)
    records[0]["cols"][0, 200:] += math.pi
    assert any("delta_full" in e for e in check("channel_sweep", ops, records)[0])


def test_corrupted_csv_and_poles_fail(tmp_path):
    ops, records = tiny("scan_dense", tmp_path, 1)
    i, line = records[0]["csv_sample"][0]
    fields = line.split(",")
    fields[1] = repr(float(fields[1]) + math.pi / 3)
    records[0]["csv_sample"][0] = (i, ",".join(fields))
    assert check("scan_dense", ops, records)[0]

    ops, records = tiny("poles_sweep", tmp_path, 1)
    records[0]["roots"][0] *= 1 + 1e-6
    assert check("poles_sweep", ops, records)[0]


def test_duplicated_root_fails(tmp_path):
    # Every residual stays tiny; only the coefficient rebuild sees it.
    ops, records = tiny("poles_sweep", tmp_path, 12)
    for op, rec in zip(ops, records):
        op.mp_check = False
        rec["roots"][1] = rec["roots"][0]
        errs = check("poles_sweep", [op], [rec])[0]
        assert any("rebuild" in e for e in errs), op.channel


def test_exception_counts_as_failure(tmp_path):
    wl = workloads.PolesSweep(3)
    op = next(wl.batches())[0]
    assert run.verifier("poles_sweep", wl)(op, ValueError("x")) == ["raised ValueError: x"]


def test_reference_branch_counts_a_sub_grid_resonance():
    # Two samples straddle a resonance far narrower than their spacing: the
    # pointwise phases are nearly equal, the continuous phase rose by pi.
    l, lam, chi = 3, 0.4593959087120639, -0.11245699572246258
    ks = np.array([0.107, 0.1075])
    branch, _ = oracle.lifted_reference(lambda q: oracle.full_parts(l, lam, chi, q), ks)
    assert abs(branch[1] - branch[0] - math.pi) < 1e-5


def test_tracer_restores_names_and_accounts_for_wall_time(tmp_path):
    wl = workloads.ChannelSweep(5, tmp_path)
    ops = [next(wl.batches())[0] for _ in range(3)]
    before = workloads.scattering.riccati_bessel
    tracer = Tracer()
    with tracer:
        assert workloads.scattering.riccati_bessel is not before
        wall = 0.0
        for i, op in enumerate(ops):
            tracer.op_id = i
            t0 = time.perf_counter()
            wl.run(op)
            wall += time.perf_counter() - t0
    assert workloads.scattering.riccati_bessel is before
    assert np.roots.__module__.startswith("numpy")
    m = {k: v["value"] for k, v in tracer.metrics(len(ops), wall).items()}
    selfs = [v for k, v in m.items() if k.endswith("self_s")]
    assert math.isclose(sum(selfs) + m["trace.unattributed_s"], m["trace.wall_s"], rel_tol=1e-9)
    assert m["poles.calls"] == 1.0
    assert m["scattering.evals_per_point"] > 1.0


def test_tracer_counts_the_fallback_solver(monkeypatch):
    # Starve Aberth of iterations so find_poles falls back to numpy.roots.
    solver = workloads.poles.polynomial_roots
    monkeypatch.setattr(workloads.poles, "polynomial_roots",
                        lambda coeffs: solver(coeffs, max_iter=1))
    tracer = Tracer()
    with tracer:
        workloads.poles.find_poles(workloads.Channel(3, 0.1, -2.0))
    np.roots([1.0, -1.0])  # outside find_poles and the tracer: not counted
    assert tracer.metrics(1, 1.0)["poles.fallback_calls"]["value"] == 1.0


def last_json(args, cwd):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc, proc.stdout.splitlines()[-1] if proc.stdout else ""


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_contract(trace, key):
    name = "poles_sweep" if trace == 0 else "channel_sweep"
    proc, line = last_json(BENCHMARK["command"][1:] + [
        "--workload", name, "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
        workloads.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, line = last_json(BENCHMARK["command"][1:] + [
        "--workload", "poles_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not line.startswith("{")
