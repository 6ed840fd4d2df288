"""Host-side helpers a kernel must not reach."""


def log_progress(i):
    print("step", i)


def checkpoint(i):
    # one hop deeper: still ends at console I/O
    log_progress(i)
