"""RNG wrappers: the draw happens on whatever namespace is passed in."""


def jitter(rng, lo, hi):
    return rng.uniform(lo, hi)


def jitter_twice(rng, lo, hi):
    # forwards its rng parameter one hop deeper
    return jitter(rng, lo, hi) + jitter(rng, lo, hi)
