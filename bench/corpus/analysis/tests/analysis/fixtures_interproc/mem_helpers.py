"""Allocation factories: the buffer escapes to the caller."""


def fresh_buffer(pool, batch):
    return pool.alloc(batch)


def staged_buffer(pool, batch):
    buf = pool.alloc(batch)
    return buf
