"""Property-based fuzzing of full deployments under adversarial behaviour.

Hypothesis composes random-but-threat-model-valid fault timelines —
Byzantine compromise windows (every :class:`Behavior` combination), site
attacks, recoveries — and runs them through the real builder via FaultLab,
asserting the whole invariant catalogue: confidentiality, ordering
safety, checkpoint monotonicity, and liveness after quiescence.

Example count is deliberately small: each example builds and runs a full
14-replica deployment (~2-3 s). The CLI sweep (``repro faultlab``) covers
breadth; this covers the generator-independent corner shapes hypothesis
likes (zero-length gaps, boundary times, behaviour combinations).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultlab import FaultLabConfig, FaultSchedule, make_event, run_schedule
from repro.system.adversary import Behavior

ON_PREM_HOSTS = [f"cc-{cc}-r{i}" for cc in "ab" for i in range(4)]
SITES = ["cc-a", "cc-b", "dc-1", "dc-2"]
HORIZON = 9.0
FAULT_START = 1.5

behavior_sets = st.lists(
    st.sampled_from([b.value for b in Behavior]),
    min_size=1,
    max_size=2,
    unique=True,
)

compromise_strategy = st.tuples(
    st.integers(0, len(ON_PREM_HOSTS) - 1),   # victim
    behavior_sets,
    st.floats(FAULT_START, 4.0),              # start
    st.floats(0.4, 1.5),                      # duration
)

site_fault_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["isolate", "degrade"]),
        st.integers(0, len(SITES) - 1),
        st.floats(FAULT_START, 6.0),          # start
        st.floats(0.5, 2.0),                  # duration
    ),
)


def _build_schedule(seed, compromises, site_fault):
    """Assemble a valid FaultSchedule: compromise windows are laid out
    back-to-back (at most f=1 concurrent by construction), site faults
    may overlap them freely."""
    events = []
    cursor = 0.0
    for host_index, behaviors, start, duration in compromises:
        at = round(max(start, cursor + 0.05), 2)
        until = round(min(at + duration, HORIZON), 2)
        if until - at < 0.1:
            continue
        cursor = until
        events.append(
            make_event(at, "compromise", ON_PREM_HOSTS[host_index], until,
                       behaviors=sorted(behaviors))
        )
    if site_fault is not None:
        kind, site_index, start, duration = site_fault
        at = round(start, 2)
        until = round(min(at + duration, HORIZON), 2)
        if until - at >= 0.1:
            events.append(make_event(at, kind, SITES[site_index], until))
    events.sort(key=lambda e: (e.at, e.kind, e.target))
    return FaultSchedule(seed=seed, horizon=HORIZON, events=tuple(events))


@pytest.mark.slow
@given(
    seed=st.integers(1, 10_000),
    compromises=st.lists(compromise_strategy, min_size=1, max_size=2),
    site_fault=site_fault_strategy,
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_adversarial_timelines_preserve_invariants(seed, compromises, site_fault):
    schedule = _build_schedule(seed, compromises, site_fault)
    result = run_schedule(schedule, FaultLabConfig())
    assert result.ok, (
        f"invariants violated under {schedule.describe()}\n"
        + result.report.summary()
    )


@given(behaviors=behavior_sets, seed=st.integers(1, 10_000))
@settings(max_examples=4, deadline=None, derandomize=True)
def test_every_behavior_combination_is_confidential(behaviors, seed):
    # Whatever a compromised executing replica does — including leaking
    # every key it holds — data-center hosts never see plaintext.
    schedule = FaultSchedule(
        seed=seed,
        horizon=HORIZON,
        events=(
            make_event(2.0, "compromise", ON_PREM_HOSTS[seed % len(ON_PREM_HOSTS)],
                       5.0, behaviors=sorted(behaviors)),
        ),
    )
    result = run_schedule(schedule, FaultLabConfig())
    confidentiality = [
        v for v in result.report.violations if v.invariant == "confidentiality"
    ]
    assert not confidentiality, result.report.summary()
