"""Shared fixtures for the test suite."""

import itertools

import pytest
from hypothesis import settings

from repro.bench import RunOptions, artefact
from repro.core import context as context_module
from repro.simnet import Simulator
from repro.testbeds import make_iway, make_sp2

#: Opt-in budget for the differential oracles (tier-1 runs their small
#: one): ``--hypothesis-profile=deep``.
settings.register_profile("deep", max_examples=3000, deadline=None)


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def fresh_context_ids(monkeypatch):
    """Number this test's contexts from 1, as a fresh process would, so
    outputs naming context ids do not depend on which tests ran first."""
    monkeypatch.setattr(context_module, "_context_ids", itertools.count(1))


@pytest.fixture
def sp2():
    """A 2+2 node SP2 testbed with the default transport set."""
    return make_sp2(nodes_a=2, nodes_b=2)


@pytest.fixture
def sp2_wide():
    """A 4+2 node SP2 testbed."""
    return make_sp2(nodes_a=4, nodes_b=2)


@pytest.fixture
def iway():
    """The miniature I-WAY testbed."""
    return make_iway()


@pytest.fixture(scope="session")
def bench_exports(tmp_path_factory):
    """Where :func:`bench_result` artefacts export: ``<root>/<name>/``."""
    return tmp_path_factory.mktemp("bench-exports")


@pytest.fixture(scope="session")
def bench_result(bench_exports):
    """``bench_result(name)``: that artefact's result, as
    ``python -m repro.bench`` builds it, built once per session and
    shared by every test that inspects it."""
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = artefact(name).run(RunOptions(
                export_dir=str(bench_exports / name)))
        return cache[name]

    return build


def run_to_completion(nexus, *processes):
    """Run until every given process completes; returns their values."""
    done = nexus.sim.all_of(list(processes))
    nexus.run(until=done)
    return [p.value for p in processes]
