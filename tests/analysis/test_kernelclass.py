"""The kernel-classification contract: the archetype decision tree
over interpreter facts, the VEC-* findings, and the deterministic
``--kernel-classes json`` rendering."""

import json

from repro.analysis.kernelclass import (
    FALLBACK,
    VECTORIZABLE,
    Access,
    KernelClass,
    KernelFacts,
    class_finding,
    classify,
    render_classes_json,
)
from repro.analysis.rules import RULES
from repro.sanitize.findings import Severity


def _facts(**kw) -> KernelFacts:
    base = dict(kernel="k", file="k.py", line=3)
    base.update(kw)
    return KernelFacts(**base)


def _access(array="x", write=False, line=5, base="gidx.x", offset=0):
    return Access(array=array, write=write, line=line,
                  axes=((base, offset),))


class TestClassifyTree:
    def test_elementwise(self):
        kc = classify(_facts(accesses=[_access(), _access("out", True)],
                             thread_varying_accesses=2,
                             oob="proven_safe"))
        assert kc.klass == "elementwise"
        assert kc.vectorizable
        assert kc.verified

    def test_stencil_records_widest_halo(self):
        kc = classify(_facts(
            accesses=[_access(offset=-1), _access(offset=2),
                      _access("out", True)],
            thread_varying_accesses=3))
        assert kc.klass == "stencil"
        assert kc.halo == 2

    def test_reduction_needs_shared_barrier_and_block_write(self):
        kc = classify(_facts(shared={"tile"}, barriers=2,
                             block_indexed_writes=1,
                             accesses=[_access()],
                             thread_varying_accesses=1))
        assert kc.klass == "reduction"

    def test_tiled_matmul_needs_two_tiles_and_mac_loop(self):
        kc = classify(_facts(shared={"sa", "sb"}, barriers=2,
                             has_mac_loop=True,
                             accesses=[_access()],
                             thread_varying_accesses=1))
        assert kc.klass == "tiled-matmul"
        # one tile short -> the reduction shape needs a block write
        kc = classify(_facts(shared={"sa"}, barriers=2,
                             has_mac_loop=True, block_indexed_writes=1))
        assert kc.klass == "reduction"

    def test_divergent_barrier_forces_fallback(self):
        kc = classify(_facts(divergent_barriers=1,
                             accesses=[_access()],
                             thread_varying_accesses=1,
                             oob="proven_safe"))
        assert kc.klass == FALLBACK
        assert not kc.vectorizable
        assert not kc.verified
        assert any("thread-varying" in r for r in kc.reasons)

    def test_non_affine_access_forces_fallback(self):
        kc = classify(_facts(non_affine_accesses=2,
                             accesses=[_access(base=None, offset=None)]))
        assert kc.klass == FALLBACK
        assert any("non-affine" in r for r in kc.reasons)

    def test_no_footprint_falls_back_with_reason(self):
        kc = classify(_facts())
        assert kc.klass == FALLBACK
        assert kc.reasons

    def test_races_block_verification_not_class(self):
        kc = classify(_facts(shared={"tile"}, barriers=1,
                             block_indexed_writes=1, races=1,
                             oob="proven_safe"))
        assert kc.klass == "reduction"
        assert not kc.verified


class TestFindings:
    def test_rules_are_notes(self):
        vec = {i: r for i, r in RULES.items() if i.startswith("VEC-")}
        assert set(vec) == {"VEC-VECTORIZABLE", "VEC-DIVERGENT"}
        assert all(r.severity is Severity.NOTE for r in vec.values())

    def test_vectorizable_note_names_class_and_arrays(self):
        kc = classify(_facts(
            accesses=[_access(offset=1), _access("out", True)],
            thread_varying_accesses=2, oob="proven_safe"))
        f = class_finding(kc)
        assert f.rule == "VEC-VECTORIZABLE"
        assert "stencil" in f.message and "halo 1" in f.message
        assert "out, x" in f.message
        assert f.context == "k"

    def test_divergent_note_carries_reasons(self):
        kc = classify(_facts(divergent_barriers=2))
        f = class_finding(kc)
        assert f.rule == "VEC-DIVERGENT"
        assert "barrier" in f.message


class TestRenderJson:
    def _classes(self):
        return [
            KernelClass(kernel="b", file="z.py", line=9,
                        klass="elementwise", oob="proven_safe",
                        verified=True,
                        accesses=(_access("out", True, 11),)),
            KernelClass(kernel="a", file="a.py", line=4,
                        klass=FALLBACK, reasons=("r",)),
        ]

    def test_deterministic_and_sorted(self):
        one = render_classes_json(self._classes())
        two = render_classes_json(list(reversed(self._classes())))
        assert one == two
        doc = json.loads(one)
        assert [k["kernel"] for k in doc["kernels"]] == ["a", "b"]

    def test_summary_counts(self):
        doc = json.loads(render_classes_json(self._classes()))
        assert doc["summary"] == {
            "total": 2, "vectorizable": 1,
            "proven_safe": 1, "verified": 1}
        assert doc["tool"] == "repro.analysis.absint"

    def test_access_schema(self):
        doc = json.loads(render_classes_json(self._classes()))
        ew = [k for k in doc["kernels"] if k["kernel"] == "b"][0]
        assert ew["accesses"] == [{
            "array": "out", "write": True, "line": 11,
            "axes": [{"base": "gidx.x", "offset": 0}]}]
        assert ew["class"] == "elementwise"
        assert ew["vectorizable"] is True

    def test_vectorizable_universe(self):
        assert VECTORIZABLE == ("elementwise", "stencil", "reduction",
                                "tiled-matmul")
