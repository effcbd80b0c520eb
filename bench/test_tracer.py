"""Self-tests of the tracer, the output checks and the digests."""

import inspect
import sys
import types
from dataclasses import replace

import pytest

import physec
import physec.cli
from physec import evaluation
from physec.evaluation import DetectorKind, ExperimentConfig
from tracer import LAYERS, Tracer, public_callables, traced_key
from workloads import CheckFailed, check_result, result_digest

TOY_SOURCE = '''
__all__ = ["inner", "outer"]

def inner(x):
    return x + 1

def outer(x):
    return inner(x) * 2
'''


def test_self_time_is_total_minus_children(monkeypatch):
    package = types.ModuleType("toypkg")
    layer = types.ModuleType("toypkg.a")
    layer.__dict__["__name__"] = "toypkg.a"
    exec(TOY_SOURCE, layer.__dict__)
    monkeypatch.setitem(sys.modules, "toypkg", package)
    monkeypatch.setitem(sys.modules, "toypkg.a", layer)
    # outer starts at 0, inner runs from 1 to 3, outer ends at 6
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = Tracer("toypkg", layers=("a",), clock=lambda: next(ticks))
    with tracer:
        assert layer.outer(1) == 4
    assert tracer.calls["a.outer"] == [1, 6.0, 4.0]
    assert tracer.calls["a.inner"] == [1, 2.0, 2.0]
    assert tracer.layer_totals()["a"] == [2, 6.0]


def _package_namespaces():
    return [vars(m) for n, m in sys.modules.items() if n == "physec" or n.startswith("physec.")]


def test_every_public_callable_is_wrapped_at_every_binding():
    modules = {layer: sys.modules[f"physec.{layer}"] for layer in LAYERS}
    originals = {
        id(obj): obj
        for module in modules.values()
        for _, obj in public_callables(module)
        if inspect.isfunction(obj)
    }
    before = [dict(ns) for ns in _package_namespaces()]
    with Tracer("physec"):
        for layer, module in modules.items():
            callables = public_callables(module)
            assert callables, f"layer {layer} exposes no public callable"
            for name, obj in callables:
                assert traced_key(obj) is not None, f"{layer}.{name} is not wrapped"
        for ns in _package_namespaces():
            leftover = [name for name, value in ns.items() if id(value) in originals]
            assert not leftover, f"unwrapped bindings in {ns['__name__']}: {leftover}"
        # re-exports are charged to the layer that defines them
        assert traced_key(physec.mse.as_feature_matrix) == "gmm.as_feature_matrix"
        assert traced_key(physec.mse.lower_tail_threshold) == "gmm.lower_tail_threshold"
        assert traced_key(physec.run_experiment) == "evaluation.run_experiment"
        # a layer without __all__ exposes its public functions and classes
        assert traced_key(physec.cli.main) == "cli.main"
        assert traced_key(physec.cli.Settings) == "cli.Settings"
        assert traced_key(evaluation.Counts) == "evaluation.Counts"
    assert [dict(ns) for ns in _package_namespaces()] == before
    for module in modules.values():
        for name, obj in public_callables(module):
            assert traced_key(obj) is None, f"{name} still wrapped after uninstall"


DESK = ExperimentConfig(m_subcarriers=8, num_blocks=4, block_size=200, rng_seed=3)


@pytest.mark.parametrize(
    "config", [DESK, replace(DESK, detector=DetectorKind.MSE, coherence_samples=1e4)]
)
def test_wrapped_calls_return_what_unwrapped_calls_do(config):
    plain = evaluation.run_experiment(config)
    tracer = Tracer("physec")
    with tracer:
        traced = evaluation.run_experiment(config)
    assert result_digest(traced) == result_digest(plain)
    metrics = tracer.layer_metrics()
    assert metrics["channel.calls"][0] > 0
    if config.detector is DetectorKind.GMM:
        # one row per test message, plus the training and update blocks
        test_messages = (config.num_blocks - 1) * config.block_size
        assert metrics["gmm.score_calls"][0] > test_messages
        assert metrics["gmm.rows_scored"][0] > 2 * test_messages
    else:
        assert metrics["mse.calls"][0] > 0
        assert metrics["gmm.score_calls"][0] == 0


def test_output_checks_reject_inconsistent_results():
    result = evaluation.run_experiment(DESK)
    test_messages = (DESK.num_blocks - 1) * DESK.block_size
    check_result(result, test_messages)
    with pytest.raises(CheckFailed, match="counts sum"):
        check_result(result, test_messages + 1)
    with pytest.raises(CheckFailed, match="p_fa"):
        check_result(replace(result, p_fa=result.p_fa + 0.5), test_messages)
    with pytest.raises(CheckFailed, match="bob_scores"):
        check_result(replace(result, bob_scores=result.bob_scores[:-1]), test_messages)
