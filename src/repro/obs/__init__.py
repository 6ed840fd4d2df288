"""repro.obs — correlated observability over simulated serving runs.

The correlation layer above :mod:`repro.telemetry` (traces/metrics) and
:mod:`repro.serve` (SLO reports): a structured **log plane** with
CloudWatch-style groups/streams and metric filters, **head+tail
sampling** that bounds trace volume while always keeping errors and the
slowest requests, **exemplars** linking latency percentiles to retained
request traces, end-to-end **waterfalls** stitching request → batch →
scheduler task → GPU kernel across traces via span links, and an **SLO
monitor** with multi-window multi-burn-rate alerting feeding the
autoscaler and idle reaper.

See ``docs/observability.md`` for the signal model and
``python -m repro.obs run`` for the canonical observed scenario.
"""

from repro.obs.logs import (DEFAULT_STREAM_CAP, LEVELS, LogGroup, LogPlane,
                            LogRecord, LogStream, MetricFilter)
from repro.obs.observer import EndpointObserver
from repro.obs.sampling import BatchRecord, HeadTailSampler, RequestRecord
from repro.obs.scenario import (ScenarioResult, run_overload_scenario,
                                write_artifacts)
from repro.obs.slo import (MS_PER_HOUR, OBS_NAMESPACE, AlertTransition,
                           BurnRateRule, SloMonitor, SloObjective,
                           default_rules)
from repro.telemetry.waterfall import (WaterfallIndex,
                                       render_request_waterfall,
                                       render_tree)

__all__ = [
    "DEFAULT_STREAM_CAP",
    "LEVELS",
    "LogGroup",
    "LogPlane",
    "LogRecord",
    "LogStream",
    "MetricFilter",
    "EndpointObserver",
    "BatchRecord",
    "HeadTailSampler",
    "RequestRecord",
    "ScenarioResult",
    "run_overload_scenario",
    "write_artifacts",
    "MS_PER_HOUR",
    "OBS_NAMESPACE",
    "AlertTransition",
    "BurnRateRule",
    "SloMonitor",
    "SloObjective",
    "default_rules",
    "WaterfallIndex",
    "render_request_waterfall",
    "render_tree",
]
