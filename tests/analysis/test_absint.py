"""The abstract-interpretation kernel verifier: launch-environment
extraction, proof-grade OOB verdicts, barrier-divergence precision
(including the affine-cancellation win over a syntactic taint walk),
archetype classification, helper inlining, and the ``kernel`` family
reporting the interpreter's SAN-OOB / SAN-BARRIER-DIV proofs."""

from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.analysis.absint import (
    absint_context,
    absint_source,
    classify_kernel,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.driver import analyze_source

REPO = Path(__file__).resolve().parents[2]

SAXPY_GUARDED = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]

def main():
    n = 1 << 20
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[(n + 255) // 256, 256](2.0, x, y, out)
"""

SAXPY_UNGUARDED = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    out[i] = a * x[i] + y[i]

def main():
    n = 1000
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[4, 256](2.0, x, y, out)
"""

NEGATIVE_OFFSET = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def shift(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i - 1]

def main():
    n = 1024
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    shift[4, 256](x, out)
"""

UNIFORM_BARRIER = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def scale(x, out):
    i = cuda.grid(1)
    tx = cuda.threadIdx.x
    block_base = i - tx
    if block_base >= 0:
        cuda.syncthreads()
    if i < out.size:
        out[i] = x[i]

def main():
    n = 1024
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    scale[4, 256](x, out)
"""

DIVERGENT_BARRIER = """\
from repro.jit import cuda

@cuda.jit
def bad(x, out):
    i = cuda.grid(1)
    if x[i] > 0:
        cuda.syncthreads()
    out[i] = x[i]
"""


# modeled on fbpic's ``cuda_tpb_bpg_1d``: ``int(x / TPB + 1)`` blocks
# over-launch a whole block when TPB divides x
HELPER_LAUNCH = """\
import numpy as np
from repro.jit import cuda


def cuda_tpb_bpg_1d(x, TPB=256):
    BPG = int(x / TPB + 1)
    return BPG, TPB


@cuda.jit
def scale_guarded(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = 2.0 * x[i]


@cuda.jit
def scale_unguarded(x, out):
    i = cuda.grid(1)
    out[i] = 2.0 * x[i]


def main():
    n = 1024
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    bpg, tpb = cuda_tpb_bpg_1d(n)
    scale_guarded[bpg, tpb](x, out)
    scale_unguarded[bpg, tpb](x, out)
"""


class TestLaunchEnv:
    def test_launch_site_binds_dims_and_extents(self):
        result = absint_source(SAXPY_GUARDED, "saxpy.py")
        assert [k.kernel for k in result.classes] == ["saxpy"]
        assert result.classes[0].launches == 1

    def test_no_launch_still_analyzes_with_anonymous_env(self):
        src = "\n".join(SAXPY_GUARDED.splitlines()[:8]) + "\n"
        result = absint_source(src, "saxpy.py")
        kc = result.classes[0]
        assert kc.launches == 0
        # without a launch site every array gets its *own* anonymous
        # extent, so a guard on ``out.size`` alone cannot vouch for
        # ``x[i]`` — the verdict stays unknown, and unknown is silent
        assert kc.oob == "unknown"
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-OOB"]

    def test_guards_on_every_array_prove_without_a_launch(self):
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def double(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size:\n"
            "        out[i] = 2.0 * x[i]\n"
        )
        kc = absint_source(src, "d.py").classes[0]
        assert kc.launches == 0
        assert kc.oob == "proven_safe"

    def test_result_cached_on_context(self):
        ctx = AnalysisContext(SAXPY_GUARDED, filename="saxpy.py")
        assert absint_context(ctx) is absint_context(ctx)


class TestOOBVerdicts:
    def test_guarded_saxpy_is_proven_safe(self):
        result = absint_source(SAXPY_GUARDED, "saxpy.py")
        kc = result.classes[0]
        assert kc.oob == "proven_safe"
        assert kc.verified
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-OOB"]

    def test_unguarded_saxpy_is_flagged(self):
        result = absint_source(SAXPY_UNGUARDED, "saxpy.py")
        assert result.classes[0].oob == "oob"
        oob = [f for f in result.report.findings if f.rule == "SAN-OOB"]
        assert oob and oob[0].line == 7

    def test_negative_offset_breaks_lower_bound(self):
        result = absint_source(NEGATIVE_OFFSET, "shift.py")
        assert result.classes[0].oob == "oob"
        oob = [f for f in result.report.findings if f.rule == "SAN-OOB"]
        assert any("negative" in f.message for f in oob)

    def test_classification_survives_the_oob(self):
        # an out-of-bounds elementwise kernel is still elementwise —
        # the verdicts are orthogonal axes of the contract
        result = absint_source(SAXPY_UNGUARDED, "saxpy.py")
        kc = result.classes[0]
        assert kc.klass == "elementwise"
        assert not kc.verified


class TestBarrierPrecision:
    def test_block_uniform_predicate_is_not_divergent(self):
        # ``i - tx`` cancels to a block-only affine form; the barrier
        # under it is uniform even though the *names* in the predicate
        # are thread-tainted.  A syntactic taint walk flags this; the
        # ``kernel`` family reports the interpreter's verdict instead.
        kernel = analyze_source(UNIFORM_BARRIER, "scale.py",
                                analyzers=("kernel",))
        assert not [f for f in kernel.findings
                    if f.rule == "SAN-BARRIER-DIV"]
        result = absint_source(UNIFORM_BARRIER, "scale.py")
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-BARRIER-DIV"]
        kc = result.classes[0]
        assert kc.barriers == 1
        assert kc.divergent_barriers == 0
        assert kc.oob == "proven_safe"

    def test_data_dependent_barrier_is_divergent(self):
        result = absint_source(DIVERGENT_BARRIER, "bad.py")
        div = [f for f in result.report.findings
               if f.rule == "SAN-BARRIER-DIV"]
        assert div and div[0].context == "bad"
        kc = result.classes[0]
        assert kc.klass == "divergent-fallback"
        assert kc.divergent_barriers == 1
        assert any("thread-varying" in r for r in kc.reasons)
        assert [f for f in result.report.findings
                if f.rule == "VEC-DIVERGENT"]

    def test_barrier_after_thread_varying_early_exit_is_divergent(self):
        # threads that took the early return never reach the barrier —
        # a real deadlock under lockstep semantics, divergent even
        # though the barrier itself is at top level
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def k(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i >= out.size:\n"
            "        return\n"
            "    cuda.syncthreads()\n"
            "    out[i] = x[i]\n"
        )
        result = absint_source(src, "k.py")
        assert [f for f in result.report.findings
                if f.rule == "SAN-BARRIER-DIV"]


class TestClassification:
    def test_stencil_with_halo(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def smooth(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if 1 <= i < out.size - 1:\n"
            "        out[i] = (x[i - 1] + x[i] + x[i + 1]) / 3.0\n\n"
            "def main():\n"
            "    n = 4096\n"
            "    x = cuda.to_device(np.ones(n, dtype=np.float32))\n"
            "    out = cuda.device_array(n)\n"
            "    smooth[16, 256](x, out)\n"
        )
        kc = absint_source(src, "s.py").classes[0]
        assert kc.klass == "stencil"
        assert kc.halo == 1
        assert kc.oob == "proven_safe"

    def test_shared_tree_reduction(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def block_sum(v, partials):\n"
            "    tile = cuda.shared.array(64, np.float32)\n"
            "    tx = cuda.threadIdx.x\n"
            "    i = cuda.grid(1)\n"
            "    tile[tx] = v[i] if i < v.size else 0.0\n"
            "    cuda.syncthreads()\n"
            "    stride = 32\n"
            "    while stride > 0:\n"
            "        if tx < stride:\n"
            "            tile[tx] += tile[tx + stride]\n"
            "        cuda.syncthreads()\n"
            "        stride //= 2\n"
            "    if tx == 0:\n"
            "        partials[cuda.blockIdx.x] = tile[0]\n"
        )
        kc = absint_source(src, "r.py").classes[0]
        assert kc.klass == "reduction"
        assert kc.divergent_barriers == 0
        assert kc.shared == ("tile",)

    def test_tiled_matmul(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def matmul(a, b, c):\n"
            "    sa = cuda.shared.array((16, 16), np.float32)\n"
            "    sb = cuda.shared.array((16, 16), np.float32)\n"
            "    tx = cuda.threadIdx.x\n"
            "    ty = cuda.threadIdx.y\n"
            "    i, j = cuda.grid(2)\n"
            "    acc = 0.0\n"
            "    for t in range(4):\n"
            "        sa[ty, tx] = a[i, t * 16 + tx]\n"
            "        sb[ty, tx] = b[t * 16 + ty, j]\n"
            "        cuda.syncthreads()\n"
            "        for k in range(16):\n"
            "            acc += sa[ty, k] * sb[k, tx]\n"
            "        cuda.syncthreads()\n"
            "    c[i, j] = acc\n"
        )
        kc = absint_source(src, "mm.py").classes[0]
        assert kc.klass == "tiled-matmul"
        assert kc.divergent_barriers == 0
        assert kc.shared == ("sa", "sb")

    def test_affine_device_helper_is_inlined(self):
        src = (
            "from repro.jit import cuda\n\n"
            "def shifted(i, off):\n"
            "    base = i + off\n"
            "    return base\n\n"
            "@cuda.jit\n"
            "def k(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size - 2:\n"
            "        out[shifted(i, 2)] = x[i]\n"
        )
        kc = absint_source(src, "h.py").classes[0]
        assert kc.oob == "proven_safe"
        assert kc.klass == "stencil"

    def test_non_affine_subscript_falls_back(self):
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def gather(idx, x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < out.size:\n"
            "        out[i] = x[idx[i]]\n"
        )
        kc = absint_source(src, "g.py").classes[0]
        assert kc.klass == "divergent-fallback"
        assert any("non-affine" in r for r in kc.reasons)


class TestDriverOwnership:
    def test_absint_supersedes_heuristic_for_analyzed_kernels(self):
        # the ``kernel`` family reports the interpreter's SAN-OOB
        # findings exactly (the block-uniform barrier is covered in
        # TestBarrierPrecision); ``absint`` adds the VEC-* note
        kernel = analyze_source(SAXPY_UNGUARDED, "saxpy.py",
                                analyzers=("kernel",))
        proof = absint_source(SAXPY_UNGUARDED, "saxpy.py").report
        assert [f for f in kernel.findings if f.rule == "SAN-OOB"] \
            == [f for f in proof.findings if f.rule == "SAN-OOB"]
        both = analyze_source(UNIFORM_BARRIER, "scale.py",
                              analyzers=("kernel", "absint"))
        assert [f for f in both.findings if f.rule == "VEC-VECTORIZABLE"]

    def test_owned_rules_reemitted_when_real(self):
        # a real divergent barrier is reported once, whether the
        # ``kernel`` family runs alone or next to ``absint``
        for analyzers in (("kernel",), ("kernel", "absint"),
                          ("absint", "kernel")):
            report = analyze_source(DIVERGENT_BARRIER, "bad.py",
                                    analyzers=analyzers)
            div = [f for f in report.findings
                   if f.rule == "SAN-BARRIER-DIV"]
            assert len(div) == 1, analyzers
            assert len(report.findings) == len(set(report.findings))

    def test_non_owned_heuristics_untouched(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def racy(v, out):\n"
            "    tile = cuda.shared.array(64, np.float32)\n"
            "    tx = cuda.threadIdx.x\n"
            "    tile[tx] = v[tx]\n"
            "    out[tx] = tile[tx + 1]\n"
        )
        kernel = analyze_source(src, "racy.py", analyzers=("kernel",))
        both = analyze_source(src, "racy.py",
                              analyzers=("kernel", "absint"))
        race = [f for f in kernel.findings if f.rule == "SAN-SHARED-RACE"]
        assert race
        assert [f for f in both.findings
                if f.rule == "SAN-SHARED-RACE"] == race


TWO_KERNELS_NAMED_K = """\
import numpy as np
from repro.jit import cuda


def contiguous():
    @cuda.jit
    def k(x, out):
        i = cuda.grid(1)
        if i < out.size:
            out[i] = x[i]

    k[2, 128](cuda.to_device(np.ones(256)), cuda.device_array(256))


def strided():
    @cuda.jit
    def k(x, out):
        i = cuda.grid(1)
        if i < out.size:
            out[i] = x[i * 2]

    k[2, 128](cuda.to_device(np.ones(512)), cuda.device_array(256))
"""


class TestSameNamedKernels:
    def test_each_def_is_checked_under_the_launch_that_binds_it(self):
        # under the first launch the second ``k`` would read past ``x``
        result = absint_source(TWO_KERNELS_NAMED_K, "twins.py")
        assert [(k.kernel, k.line, k.launches, k.oob)
                for k in result.classes] == [
                    ("k", 7, 1, "proven_safe"), ("k", 17, 1, "proven_safe")]
        strided = [f for f in result.report.findings
                   if f.rule == "SAN-UNCOALESCED"]
        assert [(f.line, f.context) for f in strided] == [(20, "k")]


class TestHelperComputedLaunch:
    def test_only_the_unguarded_kernel_is_flagged(self):
        report = analyze_source(HELPER_LAUNCH, "tpb.py",
                                analyzers=("kernel",))
        flagged = {f.context for f in report.findings
                   if f.rule == "SAN-OOB"}
        assert flagged == {"scale_unguarded"}


#: kernel bodies under ``def k(x, out, lo, n): i = cuda.grid(1)``
_BODIES = {
    "lt_n": "    if i < n:\n        out[i] = x[i]\n",
    "lt_size": "    if i < out.size:\n        out[i] = x[i]\n",
    "early_exit": "    if i >= n:\n        return\n    out[i] = x[i]\n",
    "range": "    if lo <= i < n:\n        out[i] = x[i]\n",
    "unguarded": "    out[i] = x[i]\n",
    "strided": "    if i < out.size:\n        out[i] = x[i * 4]\n",
    "strided_own": "    if i < x.size:\n        x[i * 4] = 0.0\n",
}

_LAUNCHES = ("none", "literal", "symbolic", "opaque", "kernel-valued")

#: launch forms that size every array, with literal or symbolic sizes
_SIZED = ("literal", "symbolic")


def _kernel_file(body: str, launch: str, n: int, grid: int, block: int,
                 x_size: int) -> str:
    src = ("import numpy as np\nfrom repro.jit import cuda\n\n\n"
           "@cuda.jit\ndef k(x, out, lo, n):\n    i = cuda.grid(1)\n"
           + body)
    if launch == "literal":
        src += ("\n\ndef main():\n"
                f"    x = cuda.to_device(np.ones({x_size}, "
                "dtype=np.float32))\n"
                f"    out = cuda.device_array({n})\n"
                f"    k[{grid}, {block}](x, out, 0, {n})\n")
    elif launch == "symbolic":
        x_len = "n" if x_size == n else "4 * n"
        src += ("\n\ndef main(n):\n"
                f"    x = cuda.to_device(np.ones({x_len}, "
                "dtype=np.float32))\n"
                "    out = cuda.device_array(n)\n"
                f"    k[(n + {block} - 1) // {block}, {block}]"
                "(x, out, 0, n)\n")
    elif launch == "opaque":
        src += ("\n\ndef main(x, out, n, blocks, threads):\n"
                "    k[blocks, threads](x, out, 0, n)\n")
    elif launch == "kernel-valued":
        src += ("\n\ndef run(kernel, grid, block, *args):\n"
                "    kernel[grid, block](*args)\n\n\n"
                "def main(x, out):\n"
                f"    run(k, {grid}, {block}, x, out, 0, {n})\n")
    return src


class TestKernelFamilyTruth:
    """The ``kernel`` family against ground truth over generated
    kernels: guard shape, launch form, ``n`` and block size drawn."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(sorted(_BODIES)),
           launch=st.sampled_from(_LAUNCHES),
           n=st.integers(1, 5000),
           block=st.sampled_from((32, 64, 128, 256, 512)),
           extra_blocks=st.integers(-2, 2),
           wide_x=st.booleans())
    # the symbolic sizes of a strided read, which the draw may miss
    @example(shape="strided", launch="symbolic", n=1000, block=128,
             extra_blocks=0, wide_x=True)
    @example(shape="strided", launch="symbolic", n=1000, block=128,
             extra_blocks=0, wide_x=False)
    def test_san_oob_exactly_when_the_launch_overruns(
            self, shape, launch, n, block, extra_blocks, wide_x):
        grid = max(1, -(-n // block) + extra_blocks)
        # only the strided kernel reads past ``n``: ``wide_x`` sizes
        # its input at four times the output
        x_size = 4 * n if shape == "strided" and wide_x else n
        src = _kernel_file(_BODIES[shape], launch, n, grid, block,
                           x_size)
        threads = grid * block
        if shape == "unguarded":
            # with no literal launch the grid is unbounded
            expected = launch != "literal" or threads > n
        elif shape == "strided":
            # x may be any multiple of out unless a launch sizes it; a
            # symbolic size overruns for some n unless x is 4n long
            last = min(n, threads) - 1
            expected = (launch == "literal" and 4 * last > x_size - 1
                        or launch == "symbolic" and x_size == n)
        elif shape == "strided_own":
            # the guard bounds i by x's own extent, which 4 * i passes
            last = min(n, threads) - 1
            expected = launch != "literal" or 4 * last > n - 1
        else:
            expected = False
        report = analyze_source(src, "k.py", analyzers=("kernel",))
        flagged = any(f.rule == "SAN-OOB" for f in report.findings)
        assert flagged == expected, src
        if shape == "strided":
            kc = absint_source(src, "k.py").classes[0]
            want = ("unknown" if launch not in _SIZED
                    else "oob" if expected else "proven_safe")
            assert kc.oob == want, src


class TestLineOffset:
    """The context shifts the tree by ``line_offset`` once; the
    interpreter must not shift its lines again."""

    def test_source_offset_applies_once(self):
        result = absint_source(SAXPY_UNGUARDED, "saxpy.py",
                               line_offset=100)
        oob = [f for f in result.report.findings if f.rule == "SAN-OOB"]
        assert oob and {f.line for f in oob} == {107}
        assert result.classes[0].line == 105
        div = absint_source(DIVERGENT_BARRIER, "bad.py",
                            line_offset=100).report.findings
        barrier = [f for f in div if f.rule == "SAN-BARRIER-DIV"]
        assert [f.line for f in barrier] == [107]
        assert "(line 106)" in barrier[0].message

    def test_live_kernel_reports_its_def_line(self, tmp_path):
        mod = tmp_path / "kern.py"
        mod.write_text(
            "from repro.jit import cuda\n" + "\n" * 16
            + "@cuda.jit\n"
            "def double(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    out[i] = 2.0 * x[i]\n"
        )
        ns: dict = {}
        exec(compile(mod.read_text(), str(mod), "exec"), ns)
        kc = classify_kernel(ns["double"])
        assert kc.line == 19
        assert {a.line for a in kc.accesses} == {21}


class TestClassifyKernelAPI:
    def test_classify_live_kernel_from_file(self, tmp_path):
        mod = tmp_path / "kern.py"
        mod.write_text(
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def double(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size:\n"
            "        out[i] = 2.0 * x[i]\n"
        )
        ns: dict = {}
        code = compile(mod.read_text(), str(mod), "exec")
        exec(code, ns)
        kc = classify_kernel(ns["double"])
        assert kc.klass == "elementwise"
        assert kc.oob == "proven_safe"
        assert kc.kernel == "double"

    def test_classify_source_string(self):
        kc = classify_kernel(SAXPY_GUARDED)
        assert kc.klass == "elementwise"
        assert kc.oob == "proven_safe"


class TestAcceptance:
    """ISSUE 9 acceptance: every non-divergent kernel in the shipped
    examples classifies concretely, and >= 80% prove OOB-safe."""

    def test_examples_classify_concretely_and_safely(self):
        classes = []
        for path in sorted((REPO / "examples").rglob("*.py")):
            ctx = AnalysisContext(path.read_text(),
                                  filename=str(path))
            if ctx.ok:
                classes.extend(absint_context(ctx).classes)
        assert classes, "expected kernels in examples/"
        divergent = [k for k in classes
                     if k.klass == "divergent-fallback"]
        assert not divergent, [k.kernel for k in divergent]
        proven = [k for k in classes if k.oob == "proven_safe"]
        assert len(proven) >= 0.8 * len(classes), \
            [(k.kernel, k.oob) for k in classes]

    def test_lab_kernels_classify(self):
        path = REPO / "src" / "repro" / "course" / "labs.py"
        ctx = AnalysisContext(path.read_text(), filename=str(path))
        assert ctx.ok
        result = absint_context(ctx)
        classes = {k.kernel: k for k in result.classes}
        assert classes, "expected kernels in course labs"
        assert all(k.klass != "divergent-fallback"
                   for k in classes.values()), {
                       n: k.reasons for n, k in classes.items()}
