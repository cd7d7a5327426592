"""The reference of ``RailGraph.solve_batch``: a loop of scalar solves.

``solve_batch`` must return, bit for bit, what a loop of
``RailGraph.solve`` over its points returns, and raise what that loop
raises first.  These helpers build that loop from batch-shaped inputs
and compare a batch with it.
"""

import numpy as np


def bits(value):
    """The IEEE-754 bytes of one float (numpy or Python)."""
    return np.float64(value).tobytes()


def _at(value, k):
    arr = np.asarray(value)
    if arr.ndim == 0:
        return arr[()]
    return arr[k if len(arr) > 1 else 0]


def scalar_loop(graph, v_source, loads, open_gates=frozenset(),
                degradation=None):
    """``graph.solve`` at every point of batch-shaped inputs.

    Takes the arguments of ``solve_batch``: scalars and length-1 arrays
    broadcast, other arrays are sliced per point, and a gate mapping's masks give each point's
    open-gate set.  Raises the first point's error, as a loop would.
    """
    shapes = [np.shape(v_source)] + [np.shape(a) for a in loads.values()]
    if isinstance(open_gates, dict):
        shapes += [np.shape(state) for state in open_gates.values()]
    shapes += [np.shape(f) for f in (degradation or {}).values()]
    (n,) = np.broadcast_shapes(*shapes) or (1,)
    solutions = []
    for k in range(n):
        if isinstance(open_gates, dict):
            gates = frozenset(gate for gate, state in open_gates.items()
                              if bool(_at(state, k)))
        else:
            gates = open_gates
        solutions.append(graph.solve(
            float(_at(v_source, k)),
            {channel: float(_at(amps, k)) for channel, amps in loads.items()},
            open_gates=gates,
            degradation={name: float(_at(factor, k))
                         for name, factor in (degradation or {}).items()},
        ))
    return solutions


def assert_matches_scalar_loop(batch, solutions):
    """Point ``k`` of ``batch`` is, byte for byte, ``solutions[k]``.

    Where a per-point gate closes a subtree the scalar solve has no
    entry for its descendants; the batch must hold every entry the
    scalar solve has, in the same insertion order.
    """
    assert len(batch) == len(solutions)
    for k, solution in enumerate(solutions):
        assert bits(batch.i_source[k]) == bits(solution.i_source), (
            f"i_source diverged at point {k}"
        )
        scalar = solution.component_i_in
        assert [name for name in batch.component_i_in
                if name in scalar] == list(scalar)
        for name, amps in scalar.items():
            assert bits(batch.component_i_in[name][k]) == bits(amps), (
                f"{name} diverged at point {k}"
            )


def outcome(solve):
    """``("ok", None)`` or the ``(type name, message)`` ``solve()`` raises."""
    try:
        solve()
    except Exception as exc:  # the comparison is the point
        return type(exc).__name__, str(exc)
    return "ok", None
