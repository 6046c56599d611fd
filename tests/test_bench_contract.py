"""The benchmark's tracer (rlahbench/tracing.py) wraps names inside rlah.

Renaming a wrapped function or method would otherwise break traced
benchmark runs without failing any test; here it fails at once.
"""

import importlib
import importlib.util
import os
from fractions import Fraction as F

import pytest

from rlah import asymptotics, distribution

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "rlahbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("rlahbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves(tracing):
    for module, cls, attr, *_ in tracing.WRAPS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
            assert attr in vars(owner), f"{module}.{cls}.{attr} is not defined in the class body"
        assert callable(getattr(owner, attr)), f"{module}.{cls or ''}.{attr} is missing"
    assert callable(distribution._pmf_head_cached.cache_info)


def test_install_traces_a_head_and_uninstall_restores(tracing):
    originals = (distribution.pmf_head, distribution._first_kind_prefix_scaled, distribution.PmfHead.head_cdf)
    tracer = tracing.install()
    try:
        assert len(tracer._restore) == len(tracing.WRAPS)
        tracer.active = True
        with tracer.span("op"):
            asymptotics.kolmogorov_distance(337, 1, F(1, 2))
            head = distribution.pmf_head(337, 2, F(1, 2), 40)
            head.upper_tail(9), head.head_cdf(12)  # kolmogorov_distance reads its tail with no head_cdf
        tracer.active = False
        metrics = tracing.layer_metrics(tracer, 1.0)
    finally:
        tracer.uninstall()
    assert (distribution.pmf_head, distribution._first_kind_prefix_scaled, distribution.PmfHead.head_cdf) == originals
    assert metrics["distribution.head.calls"] == 2
    assert metrics["distribution.head.misses"] == 2
    assert metrics["distribution.head_cdf.calls"] >= 2
    assert metrics["stirling.prefix.calls"] == 1  # both k share the (337, 1/2) prefix
    assert metrics["stirling.prefix.out_bits"] > 0
