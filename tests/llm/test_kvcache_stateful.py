"""Stateful property test: PagedKvCache over a small shared pool.

A hypothesis state machine admits sequences, grows them a few tokens at
a time (one sequence, or a random subset in one call, as a decode
iteration does) and preempts (releases) them, in a cache that reserved
what a pool holding a weights allocation had left.  After every step
both ledgers pass their own ``check_invariants()``; each page lands on
the lowest free block id; the cache never holds more blocks than it
reserved, and the pool holds exactly the weights and that reservation;
and ``peak_pages`` / ``peak_page_utilization`` equal a recount of the
test's own tables.  A grow over a subset must equal the same grows made
one sequence at a time, or, when their pages do not fit together,
change nothing.  Releasing everything and closing the cache drains the
pool to zero.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.gpu.memory import MemoryPool
from repro.llm import PagedKvCache

BYTES_PER_TOKEN = 4
PAGE_TOKENS = 4
PAGE_BYTES = BYTES_PER_TOKEN * PAGE_TOKENS
WEIGHT_PAGES = 2
POOL_PAGES = 14
KV_PAGES = POOL_PAGES - WEIGHT_PAGES


def pages_for(tokens: int) -> int:
    return -(-tokens // PAGE_TOKENS)


class KvCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = MemoryPool(POOL_PAGES * PAGE_BYTES, reserve_fraction=0.0,
                               stats_page_bytes=PAGE_BYTES)
        self.weights = self.pool.allocate(WEIGHT_PAGES * PAGE_BYTES,
                                          tag="weights")
        self.kv = PagedKvCache(self.pool, BYTES_PER_TOKEN,
                               page_tokens=PAGE_TOKENS)
        assert self.kv.capacity_pages == KV_PAGES
        self.blocks: set[int] = set()          # the test's own block map
        self.tokens: dict[int, int] = {}       # seq -> tokens held
        self.next_seq = 0
        self.peak = 0
        self.peak_util = 1.0

    # -- the model ---------------------------------------------------------

    def _pages(self) -> int:
        return sum(pages_for(t) for t in self.tokens.values())

    def _note_peak(self):
        pages = self._pages()
        if pages >= self.peak and pages:
            self.peak = pages
            self.peak_util = (sum(self.tokens.values())
                              / (pages * PAGE_TOKENS))

    def _expect_placed(self, seq, before: tuple[int, ...]):
        """The pages added since ``before`` went, one by one, to the
        lowest free block id."""
        table = self.kv.page_table(seq)
        assert table[:len(before)] == before
        for block in table[len(before):]:
            lowest = min(set(range(KV_PAGES)) - self.blocks)
            assert block == lowest
            self.blocks.add(block)

    # -- rules ---------------------------------------------------------------

    @rule(tokens=st.integers(0, 6 * PAGE_TOKENS))
    def admit(self, tokens):
        seq = self.next_seq
        self.next_seq += 1
        fits = self._pages() + pages_for(tokens) <= KV_PAGES
        assert self.kv.can_admit(tokens) == fits
        assert self.kv.allocate(seq, tokens) == fits
        if fits:
            self.tokens[seq] = tokens
            self._expect_placed(seq, ())
            self._note_peak()

    @precondition(lambda self: self.tokens)
    @rule(data=st.data(), tokens=st.integers(1, 2 * PAGE_TOKENS))
    def grow(self, data, tokens):
        seq = data.draw(st.sampled_from(sorted(self.tokens)))
        held = self.tokens[seq]
        extra = pages_for(held + tokens) - pages_for(held)
        assert self.kv.pages_to_grow((seq,), tokens) == extra
        fits = self._pages() + extra <= KV_PAGES
        before = self.kv.page_table(seq)
        assert self.kv.grow((seq,), tokens) == fits
        if fits:
            self.tokens[seq] = held + tokens
            self._expect_placed(seq, before)
            self._note_peak()
        else:
            assert self.kv.page_table(seq) == before

    @precondition(lambda self: self.tokens)
    @rule(data=st.data(), tokens=st.integers(0, 2 * PAGE_TOKENS))
    def grow_set(self, data, tokens):
        seqs = data.draw(st.lists(st.sampled_from(sorted(self.tokens)),
                                  min_size=1, unique=True))
        extra = sum(pages_for(self.tokens[seq] + tokens)
                    - pages_for(self.tokens[seq]) for seq in seqs)
        assert self.kv.pages_to_grow(seqs, tokens) == extra
        fits = self._pages() + extra <= KV_PAGES
        before = {seq: self.kv.page_table(seq) for seq in self.tokens}
        free_before = self.kv.free_pages
        failed_before = self.kv.failed_grows
        assert self.kv.grow(seqs, tokens) == fits
        if fits:
            # the model makes the same grows one sequence at a time
            for seq in seqs:
                self.tokens[seq] += tokens
                self._expect_placed(seq, before[seq])
                self._note_peak()
        else:
            assert {seq: self.kv.page_table(seq)
                    for seq in self.tokens} == before
            assert all(self.kv.tokens_of(seq) == held
                       for seq, held in self.tokens.items())
            assert self.kv.free_pages == free_before
            assert self.kv.failed_grows == failed_before + 1

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def preempt(self, data):
        seq = data.draw(st.sampled_from(sorted(self.tokens)))
        table = self.kv.page_table(seq)
        assert self.kv.release(seq) == pages_for(self.tokens.pop(seq))
        self.blocks -= set(table)
        assert self.kv.release(seq) == 0          # already gone

    # -- after every step ----------------------------------------------------

    @invariant()
    def ledgers_agree(self):
        self.kv.check_invariants()
        self.pool.check_invariants()
        assert self.kv.live_seqs == len(self.tokens)
        assert self.kv.live_pages == self._pages() <= KV_PAGES
        assert self.kv.live_pages + self.kv.free_pages == KV_PAGES
        assert self.pool.used_bytes == (KV_PAGES + WEIGHT_PAGES) * PAGE_BYTES
        assert (self.kv.peak_pages, self.kv.peak_page_utilization) == (
            self.peak, self.peak_util)
        live = sum(self.tokens.values())
        pages = self._pages()
        assert self.kv.utilization() == (
            live / (pages * PAGE_TOKENS) if pages else 1.0)

    def teardown(self):
        for seq in list(self.tokens):
            self.kv.release(seq)
        self.kv.check_invariants()
        assert self.kv.live_seqs == self.kv.live_pages == 0
        self.kv.close()
        self.kv.check_invariants()
        assert self.pool.free(self.weights)
        self.pool.check_invariants()
        assert self.pool.used_bytes == 0
        assert self.pool.leak_report().ok


KvCacheMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None,
    derandomize=True)
TestKvCacheMachine = KvCacheMachine.TestCase
