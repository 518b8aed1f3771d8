"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


# -- op lists ---------------------------------------------------------------

@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    assert ops.op_list(workload, 7) == ops.op_list(workload, 7)
    assert ops.op_list(workload, 7) != ops.op_list(workload, 8)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_seeds_keep_the_mix(workload):
    def mix(seed):
        return sorted((op["kind"], op["cli"], op["name"])
                      for op in ops.op_list(workload, seed))
    assert mix(1) == mix(2)


def test_reads_follow_their_writes():
    for seed in range(5):
        for op in ops.op_list("certs", seed):
            if isinstance(op.get("ref"), int):
                assert op["ref"] < op["id"]


def test_large_writes_end_the_pass_in_a_fixed_order():
    for seed in range(5):
        tail = [(op["kind"], abs(op["args"]["params"][2]))
                for op in ops.op_list("certs", seed)[-4:]
                if op["kind"] != "read"]
        assert tail == [("write_L", 40), ("write_A", 50)]
        assert [op["args"]["params"] for op in ops.op_list("words", seed)[-4:]] \
            == [[3, 3, 3, 3], [3, -3, 3, 3], [-3, 3, 3, 3], [-3, -3, 3, 3]]


# -- percentiles ------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 201))          # 1..200
    assert run.percentile(values, 50) == 100
    assert run.percentile(values, 95) == 190
    assert run.beyond(values, 95) == 10
    assert run.percentile([5.0], 95) == 5.0
    assert run.beyond([5.0], 95) == 0


@pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 199, 200, 201, 457])
def test_percentile_rule(n):
    values = [((i * 7919) % 10007) / 10.0 for i in range(n)]   # distinct
    for p in (50, 95):
        x = run.percentile(values, p)
        assert x in values
        assert sum(v <= x for v in values) >= p / 100.0 * n
        assert sum(v < x for v in values) < p / 100.0 * n
    assert run.beyond(values, 95) == sum(v > run.percentile(values, 95)
                                         for v in values)


def test_times_are_scaled_by_the_reference_work():
    bench = run.Run(str(ROOT), "words", 1, 1.0, False)
    bench.records = [{"id": op["id"], "t": 0.01 * (1 + op["id"] % 7),
                      "status": "ok", "traced": False} for op in bench.ops]
    bench.setups, bench.peak_kb = [0.2, 0.3, 0.25], 40960
    bench.references = [2 * run.REFERENCE_S] * 5   # a machine at half speed
    scale = bench.speed_scale()
    assert scale == pytest.approx(0.5)
    timed, scaled = bench.end_to_end(), bench.end_to_end(scale)
    for name in ("op_p50_ms", "op_p95_ms", "setup_s"):
        assert scaled[name] == pytest.approx(timed[name] / 2)
    assert scaled["ops_per_s"] == pytest.approx(timed["ops_per_s"] * 2)
    assert scaled["peak_rss_mb"] == timed["peak_rss_mb"] == 40.0
    # a timeout lasts as long as the limit on any machine: not scaled
    busy = sum(r["t"] for r in bench.records)
    bench.records[0].update(status="timeout", t=60.0)
    ok = len(bench.records) - 1
    assert bench.ops_per_s(bench.records, scale) == pytest.approx(
        ok / ((busy - 0.01) * scale + 60.0))


# -- tracing ----------------------------------------------------------------

def _self_times(starts, ends, parents):
    """Self time of each span from the span columns: its duration minus the
    durations of its direct children."""
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


def test_self_time_never_exceeds_span_time():
    import bridgecover.cli  # noqa: F401  (loads every module)
    from bridgecover import presentations, twobridge
    original = twobridge.h1_cyclic_cover_order
    tracer = tracing.Tracer(sys.modules["bridgecover"])
    tracer.install()
    try:
        assert twobridge.h1_cyclic_cover_order is not original
        tracer.op_id = 0
        twobridge.h1_cyclic_cover_order([4, -2, 2, -4], 7)
        presentations.verify_product_identity(2, -1, 1, 2)
        tracer.op_id = -1
    finally:
        tracer.uninstall()
    assert twobridge.h1_cyclic_cover_order is original
    starts, ends = tracer.starts.tolist(), tracer.ends.tolist()
    parents = tracer.parents.tolist()
    assert len(starts) > 10
    selfs = _self_times(starts, ends, parents)
    for s, a, b in zip(selfs, starts, ends):
        assert -1e-9 <= s <= b - a + 1e-12
    metrics = tracer.layer_metrics()
    for layer, name in enumerate(tracer.layers):
        spans = sum(b - a for a, b, n in zip(starts, ends,
                                            tracer.names.tolist()) if n == layer)
        assert -1e-9 <= metrics[f"{name}.self_ms"] <= spans * 1e3 + 1e-9
    assert metrics["intlinalg.resultant.calls"] == 1
    assert metrics["twobridge.alexander.calls"] == 1
    assert metrics["presentations.verify_product_identity.calls"] == 1
    total = sum(b - a for a, b, p in zip(starts, ends, parents) if p < 0)
    assert sum(v for k, v in metrics.items() if k.endswith(".self_ms")) \
        == pytest.approx(total * 1e3, rel=1e-6)


def test_wrappers_reach_names_imported_elsewhere():
    import bridgecover.cli
    from bridgecover import goeritz, intlinalg, twobridge
    tracer = tracing.Tracer(sys.modules["bridgecover"])
    tracer.install()
    try:
        assert twobridge.det_bareiss is intlinalg.det_bareiss
        assert goeritz.det_bareiss is intlinalg.det_bareiss
        assert bridgecover.cli.h1_order is \
            sys.modules["bridgecover.presentations"].h1_order
        assert getattr(intlinalg.det_bareiss, "__wrapped__", None) is not None
    finally:
        tracer.uninstall()
    assert getattr(intlinalg.det_bareiss, "__wrapped__", None) is None


# -- answer checks ----------------------------------------------------------

def test_h1_reference_matches_known_orders():
    from bridgecover.twobridge import h1_cyclic_cover_order
    for terms, n in (([2, -2], 2), ([4, -2, 2, -4], 3), ([6, -4], 8),
                     ([2, 2], 6)):
        want = h1_cyclic_cover_order(terms, n)
        got = check.h1_reference(terms, n)
        assert (got if got is not None else "INF") == \
            (want if isinstance(want, int) else "INF")


def test_cyclic_reduction():
    assert check.cyclic_reduction("x^(2) y x^(-2) z y^(-1)") == \
        [("x", 2), ("y", 1), ("x", -2), ("z", 1), ("y", -1)]
    assert check.is_rotation(check.cyclic_reduction("y^(-1) z y x y"),
                             [("z", 1), ("y", 1), ("x", 1)])
    assert check.cyclic_reduction("x x^(-1)") == []
    assert not check.is_rotation(check.cyclic_reduction("x y z"),
                                 [("z", 1), ("y", 1), ("x", 1)])


def test_mutate_changes_one_leaf():
    text = (ROOT / "tests" / "golden" / "cert_L1111.json").read_text()
    leaves = dict(worker.leaf_paths(json.loads(text)))
    for pick in range(len(leaves)):
        changed = dict(worker.leaf_paths(json.loads(worker.mutate(text, pick))))
        assert changed.keys() == leaves.keys()
        assert sum(changed[k] != leaves[k] for k in leaves) == 1


# -- the command ------------------------------------------------------------

def _checkout(tmp_path):
    for part in ("perfbench", "src", "tests/golden"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         "--trace", "0", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)


def test_wrong_answer_exits_nonzero(tmp_path):
    root = _checkout(tmp_path)
    source = root / "src" / "bridgecover" / "twobridge.py"
    text = source.read_text()
    assert "return order if order else INFINITE" in text
    source.write_text(text.replace("return order if order else INFINITE",
                                   "return order + 1 if order else INFINITE"))
    result = _bench(root, "--workload", "homology")
    assert result.returncode == 1
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = _bench(tmp_path, "--workload", "words")
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
