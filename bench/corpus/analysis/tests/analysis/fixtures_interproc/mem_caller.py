"""Callers that drop helper-allocated device buffers."""

from mem_helpers import fresh_buffer, staged_buffer


def leak_by_rebind(pool, a, b):
    buf = fresh_buffer(pool, a)
    buf = fresh_buffer(pool, b)          # first buffer unreachable
    buf.free()
    return buf


def leak_in_loop(pool, batches):
    for batch in batches:
        buf = staged_buffer(pool, batch)   # never freed, every pass
    return buf


def clean(pool, a, b):
    buf = fresh_buffer(pool, a)
    buf.free()
    buf = fresh_buffer(pool, b)
    buf.free()
    return None
