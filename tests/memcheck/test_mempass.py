"""MEM-* static liveness rules: leaks, UAF, churn, pinned staging,
suppression, and the no-false-positive discipline."""

from repro.analysis import analyze_source

MEM = ("mem",)


def _rules(source: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for f in analyze_source(source, analyzers=MEM).findings:
        out.setdefault(f.rule, []).append(f.line)
    return out


class TestMemLeak:
    def test_loop_realloc_without_free_leaks(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
for step in range(100):
    buf = dev.alloc(xp.zeros((1024, 1024)))
''')
        assert "MEM-LEAK" in rules
        (finding,) = [f for f in analyze_source('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
for step in range(100):
    buf = dev.alloc(xp.zeros((1024, 1024)))
''', analyzers=MEM).findings if f.rule == "MEM-LEAK"]
        assert "every iteration leaks" in finding.message

    def test_rebind_without_free_leaks(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a = dev.alloc(xp.zeros((32, 32)))
a.free()
''')
        assert rules["MEM-LEAK"] == [6]

    def test_del_of_live_buffer_leaks(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
del a
''')
        assert rules["MEM-LEAK"] == [6]

    def test_freed_then_rebound_is_clean(self):
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a.free()
a = dev.alloc(xp.zeros((32, 32)))
a.free()
''') == {}

    def test_noqa_suppresses_named_rule(self):
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a = dev.alloc(xp.zeros((32, 32)))  # noqa: MEM-LEAK
a.free()
''') == {}

    def test_bare_noqa_suppresses_everything(self):
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
del a  # noqa
''') == {}

    def test_noqa_for_other_rule_does_not_suppress(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
del a  # noqa: MEM-UAF
''')
        assert "MEM-LEAK" in rules


class TestMemUaf:
    SOURCE = '''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a.free()
x = a.data()
'''

    def test_use_after_free_is_error(self):
        (finding,) = analyze_source(self.SOURCE, analyzers=MEM).findings
        assert finding.rule == "MEM-UAF"
        assert finding.line == 7
        assert finding.severity.name == "ERROR"
        assert "after .free()" in finding.message

    def test_repeated_free_is_not_uaf(self):
        # dynamic .free() is idempotent, so the static pass must not
        # call a second .free() a use-after-free
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
a.free()
a.free()
''') == {}

    def test_free_on_one_branch_flags_later_use(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
if flag:
    a.free()
x = a.data()
''')
        assert "MEM-UAF" in rules

    def test_use_before_free_is_clean(self):
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))
x = a.data()
a.free()
''') == {}


class TestMemChurn:
    def test_loop_invariant_alloc_free_pair_flagged(self):
        rules = _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
staging = xp.zeros((256, 256))
for step in range(100):
    buf = dev.alloc(staging)
    buf.free()
''')
        assert "MEM-CHURN" in rules

    def test_loop_variant_alloc_is_not_churn(self):
        # the allocation depends on the loop variable, so it cannot be
        # hoisted — no finding
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
for chunk in chunks:
    buf = dev.alloc(chunk)
    buf.free()
''') == {}


class TestPinnedOversub:
    def test_oversubscription_flagged_once(self):
        rules = _rules('''\
from repro.gpu import pinned_empty

a = pinned_empty((1200, 1024, 1024))
b = pinned_empty((1200, 1024, 1024))
c = pinned_empty((1200, 1024, 1024))
''')
        assert len(rules["MEM-PINNED-OVERSUB"]) == 1

    def test_small_pinned_staging_is_clean(self):
        assert _rules('''\
from repro.gpu import pinned_empty

ring = pinned_empty((64, 1024))
''') == {}


class TestNoFalsePositives:
    def test_attribute_held_buffer_is_not_tracked(self):
        # ownership moved into an object (the xp.ndarray pattern):
        # the pass cannot see the release site, so it must stay silent
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system


class Holder:
    def __init__(self, dev):
        self._buffer = dev.alloc(xp.zeros((64, 64)))
''') == {}

    def test_function_local_free_does_not_poison_caller(self):
        assert _rules('''\
import repro.xp as xp
from repro.gpu import default_system

dev = default_system().device(0)
a = dev.alloc(xp.zeros((64, 64)))


def helper():
    b = dev.alloc(xp.zeros((8, 8)))
    b.free()


x = a.data()
a.free()
''') == {}

    def test_syntax_error_reported_not_crashed(self):
        (finding,) = analyze_source("def broken(:\n", analyzers=MEM).findings
        assert finding.rule == "SAN-SYNTAX"
