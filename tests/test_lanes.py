"""Forward-only passes in lanes: the same bytes and the same errors for any lane count."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rankpress import autodiff as ad
from rankpress import nets
from rankpress.autodiff import ShapeError, Tensor
from rankpress.nets import PREDICT_ROWS, build_teacher, forward_chunks
from rankpress.optim import predict_probabilities, prox_l1_step
from rankpress.pipeline import PipelineConfig
from rankpress.pruning import build_pruning_plan, compute_density, prune_network
from rankpress.stats import predict_scores
from rankpress.synthdata import eval_dtype, pair_dtype


def _force_lanes(monkeypatch, lanes):
    monkeypatch.setattr(nets, "forward_lanes", lambda chunks: min(chunks, lanes))


@pytest.fixture(scope="module")
def teacher_and_student():
    cfg = PipelineConfig(channels=1, patch=12, conv_widths=(8, 12), dense_widths=(8,), seed=5)
    spec, params = build_teacher(cfg)
    student = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    prox_l1_step(student, 1.0, 0.1)  # zero the smaller weights, so whole channels go
    s_spec, s_params = prune_network(spec, student, build_pruning_plan(
        spec, compute_density(spec, student), student))
    assert s_spec.layers[0].out_ch < spec.layers[0].out_ch
    return {"teacher": (spec, params), "student": (s_spec, s_params)}


def _records(dtype, n, seed):
    records = np.zeros(n, dtype)
    rng = np.random.default_rng(seed)
    for field in dtype.names:
        if dtype[field].kind == "f":
            records[field] = rng.random(records[field].shape, dtype=np.float32)
    return records


# a single chunk, a full chunk and a short one, four chunks with a short last one
@pytest.mark.parametrize("chunks", [0.5, 1.25, 3.5])
@pytest.mark.parametrize("net", ["teacher", "student"])
def test_one_and_two_lanes_give_the_same_bytes(teacher_and_student, monkeypatch, net, chunks):
    spec, params = teacher_and_student[net]
    items = _records(eval_dtype(1, 12, 12), int(chunks * PREDICT_ROWS), 1)
    pairs = _records(pair_dtype(1, 12, 12), int(chunks * PREDICT_ROWS // 2), 2)
    got = {}
    for lanes in (1, 2):
        _force_lanes(monkeypatch, lanes)
        got[lanes] = (predict_scores(spec, params, items), predict_probabilities(spec, params, pairs))
    for one, two in zip(got[1], got[2]):
        assert one.dtype == two.dtype and one.shape == two.shape
        assert one.tobytes() == two.tobytes()
    assert got[1][0].shape == (len(items),) and got[1][1].shape == (len(pairs),)


def test_two_lanes_share_the_chunks_and_keep_their_order(monkeypatch):
    _force_lanes(monkeypatch, 2)
    both_running = threading.Barrier(2, timeout=10)  # breaks unless two lanes run chunks 0 and 1
    lanes, recording = set(), []

    def forward(rows):
        if rows.start < 10:
            both_running.wait()
        lanes.add(threading.get_ident())
        recording.append(ad.mul(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad)
        return np.float32(3e38) * np.arange(rows.start, rows.stop, dtype=np.float32)

    with np.errstate(over="ignore"):  # holds in every lane: overflow is an error under pytest
        out = forward_chunks(forward, 23, 5)
    assert len(lanes) == 2 and recording == [False] * 5
    with np.errstate(over="ignore"):
        assert out.tobytes() == (np.float32(3e38) * np.arange(23, dtype=np.float32)).tobytes()


def test_one_lane_is_the_calling_thread_alone_without_a_pool(monkeypatch):
    _force_lanes(monkeypatch, 1)
    monkeypatch.setattr(nets, "_lane_pool", lambda: pytest.fail("one lane created the pool"))
    threads = set()

    def forward(rows):
        threads.add(threading.get_ident())
        return np.arange(rows.start, rows.stop)

    assert forward_chunks(forward, 23, 5).tolist() == list(range(23))
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("lanes", [1, 2])
def test_a_failing_chunk_raises_as_a_loop_over_the_chunks_would(monkeypatch, lanes):
    _force_lanes(monkeypatch, lanes)
    later_failed = threading.Event()

    def forward(rows):
        if rows.start == 15:
            later_failed.set()
        elif rows.start == 10 and lanes == 2:
            later_failed.wait(timeout=10)  # so in two lanes the later chunk fails first
        if rows.start >= 10:
            raise ValueError(f"chunk at {rows.start}")
        return np.arange(rows.start, rows.stop)

    with pytest.raises(ValueError, match="^chunk at 10$"):
        forward_chunks(forward, 40, 5)
    assert forward_chunks(lambda rows: np.arange(rows.start, rows.stop), 7, 5).tolist() == \
        list(range(7))


def test_a_failing_pass_raises_the_same_error_in_every_lane_count(teacher_and_student,
                                                                  monkeypatch):
    spec, params = teacher_and_student["teacher"]
    items = _records(eval_dtype(1, 16, 16), 100, 3)  # the net takes 12x12 patches
    errors = []
    for lanes in (1, 2):
        _force_lanes(monkeypatch, lanes)
        with pytest.raises(ShapeError) as info:
            predict_scores(spec, params, items)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_one_lane_per_usable_cpu_only_with_one_blas_thread(monkeypatch):
    cases = {2: [(1, 24, 2), (1, 1, 1), (2, 24, 1), (3, 24, 1), (None, 24, 1)],
             8: [(1, 24, 8), (1, 3, 3), (2, 24, 1), (8, 24, 1)]}
    for cpus, rows in cases.items():
        monkeypatch.setattr(nets.os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        for threads, chunks, lanes in rows:
            monkeypatch.setattr(nets, "blas_threads", lambda threads=threads: threads)
            assert nets.forward_lanes(chunks) == lanes, (cpus, threads, chunks)


def _python(script: str, **env) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": path, **env},
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.strip()


@pytest.mark.skipif(nets.openblas_core() is None, reason="numpy does not bundle OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_are_read_from_the_library(threads):
    script = "from rankpress import nets\nprint(nets.blas_threads(), nets.forward_lanes(24))\n"
    cpus = len(os.sched_getaffinity(0))
    if cpus < threads:
        pytest.skip("OpenBLAS runs no more threads than there are CPUs")
    assert _python(script, OPENBLAS_NUM_THREADS=str(threads)) == \
        f"{threads} {min(24, cpus) if threads == 1 else 1}"


def test_importing_the_cli_starts_no_thread():
    script = ("import sys, threading\n"
              "import rankpress.cli\n"
              "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n")
    assert _python(script) == "1 False"
