"""Edge cases for the channel-level retry model (net.fleet.model_retries).

The retry model is pure arithmetic over air-time records, so every edge
can be pinned exactly with jitter disabled: window-boundary grazes,
budget exhaustion, and retry-vs-retry collisions.  The Hypothesis
properties at the end lock in the documented guarantee that the outcome
is invariant under permutation of the ``lost`` list, and pin the
bisection over delivered bursts to the plain linear overlap scan.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fleet import (
    AirTimeRecord,
    RetryPolicy,
    burst_in_noise,
    model_retries,
)

NO_JITTER = RetryPolicy(max_retries=2, backoff_s=0.5, jitter_s=0.0)


def _lost(node_id, start, end, seq=0):
    return AirTimeRecord(node_id=node_id, seq=seq, start=start, end=end)


def test_retry_starting_exactly_at_window_end_is_clear():
    """Noise windows are half-open on both sides of the overlap test: a
    retry starting exactly where the window closes survives."""
    window = (4.0, 6.0)
    record = _lost(1, 5.0, 5.5)  # in noise; retry lands at exactly 6.0
    retries, recovered = model_retries(
        [record], [], NO_JITTER, noise_windows=[window]
    )
    assert (retries, recovered) == (1, 1)
    assert not burst_in_noise(_lost(1, 6.0, 6.5), [window])


def test_retry_ending_exactly_at_window_start_is_clear():
    record = _lost(1, 5.0, 5.5)
    windows = [(4.0, 5.8), (6.5, 7.0)]  # retry is (6.0, 6.5): grazes both
    retries, recovered = model_retries(
        [record], [], NO_JITTER, noise_windows=windows
    )
    assert (retries, recovered) == (1, 1)
    assert not burst_in_noise(_lost(1, 6.0, 6.5), windows)


def test_retry_overlapping_window_interior_is_lost():
    """One ulp inside the window and the retry burns an attempt."""
    record = _lost(1, 5.0, 5.5)
    retries, recovered = model_retries(
        [record], [], NO_JITTER, noise_windows=[(4.0, 6.0 + 1e-9)]
    )
    # Attempt 1 (6.0, 6.5) clips the window; attempt 2 (7.5, 8.0) clears.
    assert (retries, recovered) == (2, 1)


def test_max_retries_exhausted_under_persistent_noise():
    policy = RetryPolicy(max_retries=3, backoff_s=0.5, jitter_s=0.0)
    record = _lost(1, 5.0, 5.5)
    retries, recovered = model_retries(
        [record], [], policy, noise_windows=[(4.0, 100.0)]
    )
    assert (retries, recovered) == (3, 0)


def test_retry_colliding_with_earlier_accepted_retry():
    """An accepted retry occupies the channel for later retries too."""
    window = (4.0, 5.8)
    first = _lost(1, 5.0, 5.5)
    second = _lost(2, 5.1, 5.6)
    retries, recovered = model_retries(
        [first, second], [], NO_JITTER, noise_windows=[window]
    )
    # first retries to (6.0, 6.5) and is accepted; second's attempt 1 at
    # (6.1, 6.6) collides with it, attempt 2 at (7.6, 8.1) clears.
    assert (retries, recovered) == (3, 2)


def test_retry_colliding_with_delivered_original():
    window = (4.0, 5.8)
    record = _lost(1, 5.0, 5.5)
    delivered = [AirTimeRecord(node_id=9, seq=0, start=5.9, end=6.4)]
    retries, recovered = model_retries(
        [record], delivered, NO_JITTER, noise_windows=[window]
    )
    # Attempt 1 (6.0, 6.5) hits the delivered burst; attempt 2 clears.
    assert (retries, recovered) == (2, 1)


@pytest.mark.parametrize("delivered_span", [(6.5, 7.0), (5.6, 6.0)],
                         ids=["after", "before"])
def test_retry_touching_a_delivered_burst_is_clear(delivered_span):
    """Bursts that only touch (one ends where the other starts) do not
    collide, on either side of the retry."""
    record = _lost(1, 5.0, 5.5)  # in noise; retry lands on (6.0, 6.5)
    start, end = delivered_span
    delivered = [
        AirTimeRecord(node_id=9, seq=0, start=1.0, end=2.0),
        AirTimeRecord(node_id=8, seq=0, start=start, end=end),
        AirTimeRecord(node_id=7, seq=0, start=8.0, end=9.0),
    ]
    retries, recovered = model_retries(
        [record], delivered, NO_JITTER, noise_windows=[(4.0, 5.8)]
    )
    assert (retries, recovered) == (1, 1)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    bursts=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    windows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        ),
        max_size=3,
    ),
)
def test_outcome_invariant_under_lost_permutation(data, bursts, windows):
    """retries/recovered depend only on the *set* of lost bursts."""
    lost = [
        _lost(node_id=k + 1, start=start, end=start + width)
        for k, (start, width) in enumerate(bursts)
    ]
    noise = [(lo, lo + width) for lo, width in windows]
    policy = RetryPolicy(max_retries=2, backoff_s=0.05, jitter_s=0.02)
    baseline = model_retries(lost, [], policy, noise_windows=noise)
    shuffled = data.draw(st.permutations(lost))
    assert model_retries(
        shuffled, [], policy, noise_windows=noise
    ) == baseline


def _linear_model_retries(lost, delivered, retry, noise_windows=(),
                          retry_seed=2008):
    """The reference: every candidate scans every occupied burst."""
    retries = recovered = 0
    occupied = list(delivered)
    for record in sorted(lost, key=lambda r: (r.start, r.node_id)):
        rng = random.Random(f"{retry_seed}:{record.node_id}:{record.seq}")
        duration = record.end - record.start
        t = record.end
        for attempt in range(1, retry.max_retries + 1):
            t += (
                retry.backoff_s * (2.0 ** (attempt - 1))
                + rng.uniform(0.0, retry.jitter_s)
            )
            candidate = AirTimeRecord(
                node_id=record.node_id, seq=record.seq,
                start=t, end=t + duration,
            )
            retries += 1
            t = candidate.end
            if burst_in_noise(candidate, noise_windows):
                continue
            if any(candidate.overlaps(r) for r in occupied):
                continue
            occupied.append(candidate)
            recovered += 1
            break
    return retries, recovered


#: Quarter-second grid times: with zero jitter and a grid backoff every
#: retry lands on the grid, so bursts touch end-to-start exactly — the
#: ties where the strict overlap test and the bisection must agree.
_GRID = st.integers(min_value=0, max_value=80).map(lambda k: k / 4.0)

_BURSTS = st.lists(
    st.one_of(
        st.tuples(_GRID, _GRID.filter(lambda width: width > 0.0)),
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
        ),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    lost_bursts=_BURSTS,
    delivered_bursts=_BURSTS,
    windows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        ),
        max_size=3,
    ),
    max_retries=st.integers(min_value=1, max_value=4),
    backoff_s=st.sampled_from([0.05, 0.25, 0.5]),
    jitter_s=st.sampled_from([0.0, 0.02, 0.3]),
)
def test_bisection_matches_linear_overlap_scan(
    data, lost_bursts, delivered_bursts, windows, max_retries, backoff_s,
    jitter_s,
):
    """Same (retries, recovered) as scanning every occupied burst, for
    overlapping and unsorted ``delivered`` lists, in any order."""
    lost = [
        _lost(node_id=k + 1, start=start, end=start + width)
        for k, (start, width) in enumerate(lost_bursts)
    ]
    delivered = [
        AirTimeRecord(node_id=100 + k, seq=0, start=start,
                      end=start + width)
        for k, (start, width) in enumerate(delivered_bursts)
    ]
    noise = [(lo, lo + width) for lo, width in windows]
    policy = RetryPolicy(
        max_retries=max_retries, backoff_s=backoff_s, jitter_s=jitter_s
    )
    expected = _linear_model_retries(lost, delivered, policy, noise)
    assert model_retries(lost, delivered, policy, noise) == expected
    shuffled = data.draw(st.permutations(delivered))
    assert model_retries(lost, shuffled, policy, noise) == expected
