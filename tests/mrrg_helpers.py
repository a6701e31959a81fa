"""Shared MRRG test helpers.

:func:`mrrg_state` is the only test code that reads the MRRG's private
layout, so tests that compare "before" and "after" states stay correct
when the layout moves.
"""

from repro.arch.mrrg import Route, RouteStep


def step_route(net, resource, cycle) -> Route:
    """A hand-built route of one step charging ``resource`` at ``cycle``."""
    kind = "occupy" if resource[0] == "place" else "move"
    return Route(net=net, steps=(RouteStep(kind, resource, cycle),),
                 src_fu=0, dst_fu=0, depart_cycle=cycle - 1,
                 arrive_cycle=cycle)


def mrrg_state(mrrg) -> dict:
    """Every piece of MRRG occupancy state, copied for comparison.

    The overused slots compare as a set: tests that reach one state by
    two paths (a rolled-back trial, say) may cross capacity in another
    order.  ``overuse()`` order has its own oracle in
    ``tests/test_routecore.py``.
    """
    return {
        "fu_nodes": dict(mrrg._fu_nodes),
        "counts": list(mrrg._counts),
        "cost_base": list(mrrg._cost_base),
        "net_charges": {
            net: {index: dict(cycles) for index, cycles in per_net.items()}
            for net, per_net in mrrg._net_charges.items()
        },
        "overused": set(mrrg._overused),
        "over_sum": mrrg._over_sum,
    }
