"""Property suite for the serving engine across config x fault x defense.

Small serving configs (arrival rate, replica count, cache on/off, bronze
fraction) are crossed with a crash, a partition or a gray failure, with
the defense plane on and off.  Every drawn run must keep the request
ledger balanced, replay byte-identically from its seed, and — with
defenses off — leave every defense counter dark.

Hypothesis runs derandomized with no example database, so the drawn
cases are the same on every run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presets import small_msa_system
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.serving import (
    AutoscalerConfig,
    DefenseConfig,
    ServingConfig,
    TraceConfig,
    simulate_serving,
)

DURATION_S = 3.0
#: Heavy enough requests that replicas are often mid-batch when hit.
SAMPLES = 32

#: One fault of each class, placed on the booster node the first replica
#: lands on, inside the trace horizon.
FAULTS = {
    "crash": FaultSpec(kind=FaultKind.NODE_CRASH, time=1.0, module="esb",
                       node=0, duration=1.0),
    "partition": FaultSpec(kind=FaultKind.NETWORK_PARTITION, time=0.8,
                           duration=0.6, probability=0.5),
    "gray": FaultSpec(kind=FaultKind.GRAY_FAILURE, time=0.5, module="esb",
                      node=0, duration=1.5, magnitude=6.0, probability=0.6),
}

cases = st.fixed_dictionaries({
    "rate": st.sampled_from([40.0, 90.0, 150.0]),
    "replicas": st.integers(min_value=1, max_value=3),
    "cache": st.sampled_from([0, 32]),
    "bronze": st.sampled_from([0.0, 0.3]),
    "fault": st.sampled_from(sorted(FAULTS)),
    "defend": st.booleans(),
    "seed": st.integers(min_value=0, max_value=3),
})



def deterministic(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    derandomize=True, database=None)


def _run(case):
    config = ServingConfig(
        trace=TraceConfig(rate_per_s=case["rate"], duration_s=DURATION_S,
                          seed=case["seed"], bronze_fraction=case["bronze"],
                          samples_per_request=SAMPLES),
        initial_replicas=case["replicas"],
        cache_capacity=case["cache"],
        autoscaler=AutoscalerConfig(enabled=False),
        defense=DefenseConfig(enabled=case["defend"]),
    )
    plan = FaultPlan(seed=case["seed"], specs=(FAULTS[case["fault"]],))
    return simulate_serving(config, system=small_msa_system(),
                            fault_injector=FaultInjector(plan))


@deterministic(120)
@given(cases)
def test_ledger_balances_and_replays(case):
    report = _run(case)
    m = report.metrics
    assert m.offered == m.admitted + m.rate_limited + m.shed
    assert m.admitted == m.completed
    assert _run(case).to_text() == report.to_text()


@deterministic(60)
@given(cases.map(lambda case: {**case, "defend": False}))
def test_defenses_off_leave_counters_dark(case):
    report = _run(case)
    assert report.suspicion_events == 0
    assert report.breaker_transitions == 0
    assert report.metrics.hedges_issued == 0
    assert report.brownout_path == ()
