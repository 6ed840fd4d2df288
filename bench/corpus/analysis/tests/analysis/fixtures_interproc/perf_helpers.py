"""Helpers whose device traffic is invisible intra-procedurally."""

from repro import xp

SCALE = 2.0


def stage_weights(weights):
    # an H2D transfer fully determined by the helper's input: hoistable
    # through any caller loop that passes the same weights
    return xp.asarray(weights)


def scratch(n):
    # a device allocation sized by the input
    return xp.zeros(n)


def stage_and_scale(weights):
    # one hop deeper: a pure forwarding wrapper
    staged = stage_weights(weights)
    return staged * SCALE
