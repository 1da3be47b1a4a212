"""One round of every benchmark workload, judged by the workload's own check.

``bench/workloads.py`` calls ``amzv`` functions in its ``check`` as well as
in its timed operations, so a renamed function or a changed contract would
break the benchmark and no other test.  This runs one round of each workload
at seed 1 through ``run_round`` and ``Rounds`` of ``bench/run.py``, as an
untraced benchmark run does, and asserts that the round is correct.  Nothing
under ``bench/`` is edited, and no subprocess is started.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import amzv

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# identity instances one round covers, per workload
MIN_INSTANCES = {"verify-structural": 6838, "powsum-identities": 680, "zeta-values": 20,
                 "cli-oneshot": 175}


@pytest.fixture(scope="module")
def bench():
    """``bench/run.py`` loaded by path; the path entry and the modules it
    imports by their plain names are taken back afterwards."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    return module


@pytest.mark.parametrize("name", MIN_INSTANCES)
def test_one_round_passes_its_check(bench, name):
    wl = bench.WORKLOADS[name](1)
    wl.setup(amzv, {q: amzv.field_from_q(q) for q in wl.qs})
    rounds = bench.Rounds()
    rounds.add(*bench.run_round(wl.ops()))
    instances, _failed, problems = rounds.judge(wl)
    assert problems == []
    failed = {label for label, _dt, error in rounds.records[0] if error}
    assert failed == ({wl.known_fault} if wl.known_fault else set())
    assert instances >= MIN_INSTANCES[name]
