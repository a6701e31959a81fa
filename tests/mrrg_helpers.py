"""Shared MRRG test helpers.

:func:`mrrg_state` is the only test code that reads the MRRG's private
layout, so tests that compare "before" and "after" states stay correct
when the layout moves.  :func:`reference_router` runs whole mapper
searches on the interpreted routing oracle.
"""

import sys
from contextlib import contextmanager

import pytest

from repro.arch.mrrg import Route, RouteStep
from repro.mapping import router
from repro.mapping.routecore import ROUTING


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


#: The production router, captured before any test swaps it out.
_COMPILED_ROUTE_EDGE = router.route_edge

#: Modules that must import the router by name: the mappers route
#: through these bindings, so missing one would leave a search on the
#: compiled core.
_ROUTER_CLIENTS = {"repro.mapping.router", "repro.mapping.common",
                   "repro.mapping.annealing", "repro.mapping.plaid_mapper"}


def _route_edge_via_reference(mrrg, net, src_fu, depart_cycle, dst_fu,
                              arrive_cycle, history=None, commit=True):
    """``route_edge`` with the interpreted oracle behind it: same
    signature and the same ``ROUTING`` accounting."""
    ROUTING.calls += 1
    route = router.route_edge_reference(mrrg, net, src_fu, depart_cycle,
                                        dst_fu, arrive_cycle, history,
                                        commit)
    if route is None:
        ROUTING.failures += 1
    return route


@contextmanager
def reference_router():
    """Route every production ``route_edge`` call with
    :func:`~repro.mapping.router.route_edge_reference`.

    Rebinds ``route_edge`` in every loaded ``repro.*`` module that holds
    the production router (or an already-installed reference wrapper),
    so whole mapper searches run on the oracle; restores them on exit.
    """
    swapped = (_COMPILED_ROUTE_EDGE, _route_edge_via_reference)
    with pytest.MonkeyPatch.context() as patch:
        patched = set()
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, "route_edge", None) in swapped:
                patch.setattr(module, "route_edge",
                              _route_edge_via_reference)
                patched.add(name)
        missing = _ROUTER_CLIENTS - patched
        assert not missing, f"route_edge not swapped in {sorted(missing)}"
        yield
