"""Closed-form peak-footprint estimators and the OOM pre-flight.

The static liveness pass (:mod:`repro.memcheck.mempass`) bounds the peak
of what it can see in the AST.  For the course's three canonical
workloads — Algorithm-1 GCN training, Lab-9 DDP, and the RAG index —
this module provides analytic estimates derived from the allocation
census of the :mod:`repro.nn` / :mod:`repro.rag` implementations, so a
student can pre-flight "will this dataset fit on a T4?" from the
workload parameters alone.

Each estimator is validated against the *dynamic*
``MemoryPool.peak_bytes`` of an instrumented run in the test-suite: the
estimate must bracket the measurement from above by at most 10%.  The
small calibration margins cover transient objects (autograd scratch,
one-generation overlap at rebinding points) that a closed form cannot
enumerate exactly.

:func:`right_size` and :func:`preflight` turn a peak estimate into an
instance-catalog verdict: does it fit, and if not, what is the cheapest
SKU that does and what does the upgrade cost per hour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.pricing import INSTANCE_CATALOG, InstanceType
from repro.gpu.memory import DEFAULT_RESERVE_FRACTION, format_bytes

_F32 = 4  # bytes per float32 element — everything device-side is f32


def gcn_training_footprint(n_nodes: int, feature_dim: int, n_classes: int,
                           hidden_dim: int = 32, n_train: int | None = None,
                           margin: float = 1.04) -> int:
    """Peak device bytes of :func:`repro.gcn.train.train_sequential`.

    Components (see the two-layer Kipf-Welling model in
    :mod:`repro.gcn.model`):

    * ``params`` — the two Linear layers' weights and biases, live for
      the whole run;
    * ``features`` — the (n, f) input tensor;
    * ``generation`` — one epoch's autograd graph: per layer the
      transient ``W.T``, the matmul result, the bias add, plus
      aggregation / relu / dropout intermediates.  Python's reference
      counting keeps *two* generations overlapped at the rebinding
      point (``loss`` from epoch *i* is still referenced while epoch
      *i+1*'s graph is built), so the training peak carries ``2 ×
      generation``;
    * the post-training evaluation re-uploads the features and runs a
      ``no_grad`` forward whose transients die quickly.

    The returned estimate is the max over both phases, scaled by
    ``margin``.
    """
    n, f, h, c = n_nodes, feature_dim, hidden_dim, n_classes
    t = n_train if n_train is not None else n
    params = _F32 * (f * h + h + h * c + c)
    features = _F32 * n * f
    # one training generation: layer1 (W.T + matmul + bias), aggregate,
    # relu, dropout (mask + product), layer2 (W.T + matmul + bias),
    # aggregate, the train-slice logits, and the loss scalars
    generation = _F32 * (f * h + 6 * n * h + h * c + 3 * n * c + t * c + 8)
    train_peak = params + features + 2 * generation
    # evaluation: a second features upload + a no_grad forward whose
    # widest transient window is the layer-1 neighbourhood (input slice,
    # W.T, and ~3 (n, h) intermediates), on top of one retained
    # training generation
    eval_transients = _F32 * (n * f + f * h + 3 * n * h)
    eval_peak = params + features + generation + eval_transients
    return int(max(train_peak, eval_peak) * margin)


def ddp_training_footprint(layer_dims: list[int] | tuple[int, ...],
                           batch_per_rank: int,
                           margin: float = 1.04) -> int:
    """Peak device bytes *per rank* of a Lab-9 style DDP MLP step.

    ``layer_dims`` is the width sequence ``[in, h1, ..., out]`` of a
    ReLU MLP; each rank holds its replica's parameters plus one
    forward/backward generation over its ``batch_per_rank`` shard
    (gradients and optimizer state are host-side numpy in this stack,
    so they do not count against the device pool).  Unlike the GCN
    trainer, ``train_step`` drops each rank's loss before the next
    forward, so only a *single* generation is ever live.
    """
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least [in, out]")
    b = batch_per_rank
    last = len(dims) - 2
    params = _F32 * sum(dims[i] * dims[i + 1] + dims[i + 1]
                        for i in range(len(dims) - 1))
    shard = _F32 * b * dims[0]
    # per Linear: transient W.T + matmul out + bias add, a relu between
    # hidden layers, and the scalar loss at the end
    generation = _F32 * (sum(dims[i] * dims[i + 1] + 2 * b * dims[i + 1]
                             + (b * dims[i + 1] if i < last else 0)
                             for i in range(len(dims) - 1)) + 1)
    return int((params + shard + generation) * margin)


def rag_index_footprint(n_docs: int, dim: int, kind: str = "flat",
                        nlist: int = 0, margin: float = 1.02) -> int:
    """Device bytes a GPU-resident RAG index holds.

    A ``FlatIndex`` is exactly the corpus matrix; an ``IVFFlatIndex``
    adds the (nlist, dim) centroid table.  Near-exact, so the default
    margin is small.
    """
    total = _F32 * n_docs * dim
    if kind == "ivf":
        if nlist <= 0:
            raise ValueError("ivf footprint needs nlist > 0")
        total += _F32 * nlist * dim
    elif kind != "flat":
        raise ValueError(f"unknown index kind {kind!r}")
    return int(total * margin)


# ---------------------------------------------------------------------------
# Instance-catalog pre-flight
# ---------------------------------------------------------------------------

#: fraction of a card's capacity actually grantable (driver reserve)
USABLE_FRACTION = 1.0 - DEFAULT_RESERVE_FRACTION


def usable_gpu_bytes(itype: InstanceType) -> int:
    """Pool capacity one GPU of ``itype`` actually grants."""
    return int(itype.gpu_memory_bytes * USABLE_FRACTION)


def right_size(peak_bytes: int, families: tuple[str, ...] = ("ec2",),
               ) -> InstanceType | None:
    """The cheapest catalog GPU instance whose per-GPU usable memory
    holds ``peak_bytes``, or ``None`` when nothing in the catalog fits."""
    candidates = [
        it for it in INSTANCE_CATALOG.values()
        if it.is_gpu and it.family in families
        and usable_gpu_bytes(it) >= peak_bytes
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda it: (it.hourly_usd, it.name))


@dataclass(frozen=True)
class Preflight:
    """Verdict of checking a peak estimate against one instance type."""

    peak_bytes: int
    instance: InstanceType
    usable_bytes: int
    fits: bool
    recommendation: InstanceType | None
    hourly_delta: float

    def render(self) -> str:
        head = (f"peak {format_bytes(self.peak_bytes)} on "
                f"{self.instance.name} "
                f"({self.instance.gpu_part}, "
                f"{format_bytes(self.usable_bytes)} usable): "
                f"{'fits' if self.fits else 'OOM'}")
        if self.fits or self.recommendation is None:
            return head
        rec = self.recommendation
        return (f"{head}; right-size to {rec.name} "
                f"({rec.gpu_part}, {format_bytes(usable_gpu_bytes(rec))} "
                f"usable) at ${rec.hourly_usd:.2f}/h "
                f"({self.hourly_delta:+.2f} $/h)")


def llm_token_budget_preflight(weights_bytes: int, kv_bytes_per_token: int,
                               token_budget: int,
                               instance_type: InstanceType | str,
                               page_tokens: int = 16):
    """Bound a planned KV **token budget** against device memory.

    ``token_budget`` is the most cached tokens the serving plane may
    ever hold at once (``max concurrent sequences × max tokens per
    sequence``); the paged allocator rounds each sequence up to whole
    pages, so the bound is computed on page-rounded bytes.  Returns
    ``(Preflight, findings)`` where ``findings`` carries a
    ``MEM-PEAK-OOM`` when the plan cannot fit — the check the
    continuous-batching simulator runs *before* a single event fires,
    so an over-committed config fails before the cloud bill starts.
    """
    if token_budget < 0 or page_tokens < 1:
        raise ValueError("token budget and page size must be sane")
    pages = -(-int(token_budget) // page_tokens)  # ceil-div
    kv_bytes = pages * page_tokens * kv_bytes_per_token
    peak = int(weights_bytes) + kv_bytes
    verdict = preflight(peak, instance_type)
    findings = []
    if not verdict.fits:
        from repro.analysis.rules import make_finding
        findings.append(make_finding(
            "MEM-PEAK-OOM",
            f"planned KV token budget of {token_budget} tokens needs "
            f"{format_bytes(kv_bytes)} of cache on top of "
            f"{format_bytes(weights_bytes)} of weights — "
            f"{format_bytes(peak)} total against "
            f"{format_bytes(verdict.usable_bytes)} usable on "
            f"{verdict.instance.name}",
            context=verdict.render()))
    return verdict, findings


def preflight(peak_bytes: int, instance_type: InstanceType | str
              ) -> Preflight:
    """Check a peak estimate against ``instance_type``; when it does not
    fit, attach the cheapest same-family SKU that does (with the hourly
    cost delta of upgrading)."""
    from repro.cloud.pricing import get_instance_type
    itype = (instance_type if isinstance(instance_type, InstanceType)
             else get_instance_type(instance_type))
    usable = usable_gpu_bytes(itype)
    fits = peak_bytes <= usable and itype.is_gpu
    rec = None
    delta = 0.0
    if not fits:
        rec = right_size(peak_bytes, families=(itype.family,)) \
            or right_size(peak_bytes, families=("ec2", "sagemaker"))
        if rec is not None:
            delta = rec.hourly_usd - itype.hourly_usd
    return Preflight(peak_bytes=int(peak_bytes), instance=itype,
                     usable_bytes=usable, fits=fits,
                     recommendation=rec, hourly_delta=delta)
