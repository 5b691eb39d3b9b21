"""Turns the harness's raw result file into the benchmark's metrics.

End-to-end metrics come from untraced runs, per-layer metrics from traced
runs; see README.md for what each one means and which end-to-end metric
it should move.

The end-to-end timings are process CPU time, not wall time, scaled to a
reference host speed. On a shared host the wall clock also counts the time
other tenants hold the cores, which moved wall-time medians by a third
between runs of the same code; and the speed of the cores themselves
drifts with the host's load, which moved even CPU time by 10-15% within a
minute. The harness therefore times a fixed calibration kernel (code of its
own, independent of the program under test) during every run, and CPU
figures are scaled by CALIBRATION_REF_MS / the run's median kernel time.
Wall-time throughput and latency are reported per layer, without a bound.
"""

import math
import re
import statistics

MIB = 1024.0 * 1024.0

# CPU milliseconds the calibration kernel takes at the reference host speed
# (about its median on the 4-vCPU Xeon host the baselines were taken on).
CALIBRATION_REF_MS = 9.3

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("queries_per_cpu_s", "1/s"),
    ("cpu_ms_p50", "ms"),
    ("cpu_ms_p90", "ms"),
    ("sim_s", "s"),
    ("peak_dfs_mb", "MiB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
]

ENGINES = ["hive-naive", "hive-mqo", "rapid-plus", "rapidanalytics"]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("sparql.parse_ms", "ms"),
        ("analytics.analyze_ms", "ms"),
        ("plan.plan_ms", "ms"),
        ("engines.execute_ms", "ms"),
    ]
    + [("engines.execute_ms." + e, "ms") for e in ENGINES]
    + [
        ("engines.self_ms", "ms"),
        ("engines.factorization_factor", "ratio"),
        ("engines.factorized_groups", "count"),
        ("mr.jobs", "count"),
        ("mr.input_mb", "MiB"),
        ("mr.map_output_mb", "MiB"),
        ("mr.shuffle_mb", "MiB"),
        ("mr.output_mb", "MiB"),
        ("mr.combine_ratio", "ratio"),
        ("mr.map_ms", "ms"),
        ("mr.reduce_ms", "ms"),
        ("mr.map_records_per_s", "1/s"),
        ("mr.shuffle_cross_mb", "MiB"),
        ("mr.cross_frac", "ratio"),
        ("service.submit_ms", "ms"),
        ("service.queue_wait_ms.p50", "ms"),
        ("service.queue_wait_ms.p90", "ms"),
        ("service.exec_ms", "ms"),
        ("service.result_cache_hit_rate", "ratio"),
        ("service.plan_cache_hit_rate", "ratio"),
        ("service.store_hit_rate", "ratio"),
        ("service.batched_frac", "ratio"),
        ("service.rejected", "count"),
        ("storage.mutate_ms", "ms"),
        ("storage.patched", "count"),
        ("storage.recomputes", "count"),
        ("storage.invalidated_entries", "count"),
        ("setup.generate_s", "s"),
        ("setup.dataset_s", "s"),
        ("setup.vp_s", "s"),
        ("setup.tg_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("wall.qps", "1/s"),
        ("wall.latency_p50_ms", "ms"),
        ("wall.latency_p90_ms", "ms"),
        ("host.calib_ms", "ms"),
    ]
)

_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name):
    """Metric names: letters, digits, '_', '.', '-'; start with a letter or
    digit; at most 64 characters."""
    return (
        isinstance(name, str)
        and 0 < len(name) <= 64
        and name[0].isascii()
        and name[0].isalnum()
        and _NAME.fullmatch(name) is not None
    )


def percentile(values, p):
    """p-th percentile (0..100) by linear interpolation between closest
    ranks; None for an empty sample."""
    if not values:
        return None
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


PERCENTILE_LADDER = [50.0, 90.0, 99.0, 99.9, 99.99]


def highest_supported_percentile(n):
    """The highest percentile of the ladder that has at least ten samples
    beyond it in a sample of n; None when not even the median has."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def p90_supported(n):
    """cpu_ms_p90 is backed by data only with >= 100 samples (so that
    at least ten lie beyond it)."""
    return n >= 100


def _union_length(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that the union of its children covers. Children may overlap each other
    (concurrent service workers) and are clipped to the parent's interval.

    `spans` is a list of dicts with id, parent, start_ns and end_ns.
    Returns {span id: self ns}.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = []
        for c in children.get(s["id"], []):
            lo, hi = max(start, c["start_ns"]), min(end, c["end_ns"])
            if hi > lo:
                covered.append((lo, hi))
        out[s["id"]] = (end - start) - _union_length(covered)
    return out


def _spans_from_columns(cols):
    keys = ["trace", "id", "parent", "name", "start_ns", "end_ns"]
    return [dict(zip(keys, row)) for row in zip(*(cols[k] for k in keys))]


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _mean(values, default=0.0):
    return statistics.fmean(values) if values else default


def _rows(raw):
    cols = raw["queries"]
    n = len(cols["latency_ms"])
    return [{k: v[i] for k, v in cols.items()} for i in range(n)]


def counts(raw):
    """(attempted, failed): every timed query or read is an attempt; a
    failure is an error, a rejection or a wrong result. Failed pairs of the
    batch reference check count too."""
    rows = _rows(raw)
    failed = sum(1 for r in rows if not (r["ok"] and r["correct"]))
    failed += raw.get("check", {}).get("failures", 0)
    return len(rows), failed


def speed_factor(raw):
    """Scale from this run's CPU time to the reference host speed: the
    reference kernel time over the run's median calibration kernel time
    (below 1 on a host slower than the reference)."""
    return CALIBRATION_REF_MS / statistics.median(raw["calib_ms"])


def cpu_samples(raw):
    """Per-query CPU milliseconds behind cpu_ms_p50/p90, at the reference
    host speed. Batch: one sample per completed query (process CPU time
    from parse to result). Serve: the service's workers run reads
    concurrently, so CPU time is attributed per epoch instead, one sample
    per epoch: its process CPU time over the reads it made (the mutation
    running beside them included)."""
    f = speed_factor(raw)
    if "epoch_cpu_ms" in raw:
        reads = raw["context"]["reads_per_mutation"]
        return [ms * f / reads for ms in raw["epoch_cpu_ms"]]
    return [r["cpu_ms"] * f for r in _rows(raw) if r["ok"]]


def timed_cpu_s(raw):
    """Process CPU seconds of the timed loop at the reference host speed.
    Batch: the queries' own CPU time; serve: the epochs' CPU time. Both
    leave the host-speed probes out."""
    if "epoch_cpu_ms" in raw:
        cpu_s = sum(raw["epoch_cpu_ms"]) / 1e3
    else:
        cpu_s = sum(raw["queries"]["cpu_ms"]) / 1e3
    return cpu_s * speed_factor(raw)


def wall(raw, traced=None):
    """Wall-clock throughput and latency (parse -> result for batch,
    Submit -> Response for serve): completed queries per second of the
    timed window and the latency percentiles of completed queries, of the
    untraced ones only when `traced` is False."""
    rows = [r for r in _rows(raw) if r["ok"]]
    lat = [r["latency_ms"] for r in rows if traced is None or r["traced"] == traced]
    return {
        "qps": len(rows) / raw["timed_wall_s"],
        "latency_p50_ms": percentile(lat, 50) or 0.0,
        "latency_p90_ms": percentile(lat, 90) or 0.0,
    }


def end_to_end(raw):
    rows = [r for r in _rows(raw) if r["ok"]]
    cpu = cpu_samples(raw)
    attempted, failed = counts(raw)
    if "epoch_peak_dfs_bytes" in raw:
        # Serve: concurrent queries share each dataset's DFS, so the peak is
        # taken per epoch (between mutations) and the median reported; the
        # run's single largest coincidence would swing with timing.
        peak_dfs = _median(raw["epoch_peak_dfs_bytes"], default=0)
    else:
        peak_dfs = max((r["peak_dfs_bytes"] for r in rows), default=0)
    return {
        "queries_per_cpu_s": len(rows) / timed_cpu_s(raw),
        "cpu_ms_p50": percentile(cpu, 50) or 0.0,
        "cpu_ms_p90": percentile(cpu, 90) or 0.0,
        "sim_s": _mean([r["sim_s"] for r in rows]),
        "peak_dfs_mb": peak_dfs / MIB,
        "setup_s": _median([s["cpu_s"] for s in raw["setup"]]) * speed_factor(raw),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted if attempted else 0.0,
    }


def _span_layer_metrics(raw, spans, m):
    """Metrics measured by spans: front end, engines and MR phases."""
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations_ms(name):
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in by_name.get(name, [])]

    m["sparql.parse_ms"] = _median(durations_ms("sparql.parse"))
    m["analytics.analyze_ms"] = _median(durations_ms("analytics.analyze"))
    m["plan.plan_ms"] = _median(durations_ms("plan.plan"))

    # Execute, self and MR phase times are means per query, so that
    # engines.self_ms + mr.map_ms + mr.reduce_ms = engines.execute_ms.
    execs = [s for name, ss in by_name.items() if name.startswith("engines.execute.")
             for s in ss]
    queries = len(execs)
    if queries:
        exec_ids = {s["id"] for s in execs}
        m["engines.execute_ms"] = sum(
            (s["end_ns"] - s["start_ns"]) for s in execs) / 1e6 / queries
        m["engines.self_ms"] = sum(selft[s["id"]] for s in execs) / 1e6 / queries
        for e in ENGINES:
            m["engines.execute_ms." + e] = _mean(durations_ms("engines.execute." + e))
        jobs = [s for s in by_name.get("mr.job", []) if s["parent"] in exec_ids]
        job_ids = {s["id"] for s in jobs}
        map_ns = sum(s["end_ns"] - s["start_ns"] for s in by_name.get("mr.map", [])
                     if s["parent"] in job_ids)
        reduce_ns = sum(s["end_ns"] - s["start_ns"]
                        for s in by_name.get("mr.reduce", []) if s["parent"] in job_ids)
        m["mr.map_ms"] = map_ns / 1e6 / queries
        m["mr.reduce_ms"] = reduce_ns / 1e6 / queries
        # Input records of the traced queries' jobs over their map time.
        traced_rows = {r for r, t in enumerate(raw["queries"]["traced"]) if t}
        jobs_cols = raw["jobs"]
        records = sum(n for q, n in zip(jobs_cols["q"], jobs_cols["input_records"])
                      if q in traced_rows)
        m["mr.map_records_per_s"] = records / (map_ns / 1e9) if map_ns else 0.0
    return selft, by_name


def _job_counter_metrics(raw, m):
    """Per-query means of the MapReduce counters (batch workloads)."""
    jobs = raw["jobs"]
    n = len(raw["queries"]["latency_ms"])
    if n == 0:
        return

    def total(key):
        return sum(jobs[key])

    m["mr.jobs"] = len(jobs["q"]) / n
    m["mr.input_mb"] = total("input_bytes") / MIB / n
    m["mr.map_output_mb"] = total("map_output_bytes") / MIB / n
    m["mr.shuffle_mb"] = total("shuffle_bytes") / MIB / n
    m["mr.output_mb"] = total("output_bytes") / MIB / n
    m["mr.shuffle_cross_mb"] = total("shuffle_cross_bytes") / MIB / n
    shuffle = total("shuffle_bytes")
    m["mr.cross_frac"] = total("shuffle_cross_bytes") / shuffle if shuffle else 0.0
    reduce_map_out = sum(r for r, mo in zip(jobs["map_output_records"], jobs["map_only"])
                         if not mo)
    m["mr.combine_ratio"] = total("shuffle_records") / reduce_map_out if reduce_map_out else 0.0
    groups = total("factorized_groups")
    m["engines.factorized_groups"] = groups / n
    m["engines.factorization_factor"] = total("factorized_flat_rows") / groups if groups else 1.0


def _service_metrics(raw, m):
    """Service and storage metrics (serve workload)."""
    svc = raw["service"]
    rows = _rows(raw)
    ok = [r for r in rows if r["ok"]]
    n = len(ok)
    m["service.submit_ms"] = _median([r["submit_ms"] for r in rows])
    queue = [r["queue_ms"] for r in ok]
    m["service.queue_wait_ms.p50"] = percentile(queue, 50) or 0.0
    m["service.queue_wait_ms.p90"] = percentile(queue, 90) or 0.0
    m["service.exec_ms"] = _median([r["exec_ms"] for r in ok])
    if n:
        m["service.result_cache_hit_rate"] = sum(r["result_cache_hit"] for r in ok) / n
        m["service.store_hit_rate"] = sum(r["store_hit"] for r in ok) / n
        m["service.batched_frac"] = sum(r["batch_size"] > 1 for r in ok) / n
    lookups = svc["plan_cache_hits"] + svc["plan_cache_misses"]
    m["service.plan_cache_hit_rate"] = svc["plan_cache_hits"] / lookups if lookups else 0.0
    m["service.rejected"] = svc["rejected"]
    # Maintenance counts are per mutation, so they do not grow with speed.
    mutations = len(raw["mutate_ms"])
    m["storage.mutate_ms"] = _median(raw["mutate_ms"])
    if mutations:
        m["storage.patched"] = svc["store_patched"] / mutations
        m["storage.recomputes"] = svc["store_recomputes"] / mutations
        m["storage.invalidated_entries"] = svc["invalidated_entries"] / mutations
    # The service runs its clusters internally: only the counters it
    # exports are observable from outside (jobs, shuffle placement,
    # factorization); per-job bytes and MR phase times are not.
    if n:
        shuffle = svc["shuffle_local_bytes"] + svc["shuffle_cross_bytes"]
        m["mr.jobs"] = svc["jobs"] / n
        m["mr.shuffle_mb"] = shuffle / MIB / n
        m["mr.shuffle_cross_mb"] = svc["shuffle_cross_bytes"] / MIB / n
        m["mr.cross_frac"] = svc["shuffle_cross_bytes"] / shuffle if shuffle else 0.0
        m["engines.factorized_groups"] = svc["factorized_groups"] / n
    groups = svc["factorized_groups"]
    m["engines.factorization_factor"] = svc["factorized_flat_rows"] / groups if groups else 1.0


def per_layer(raw):
    """Per-layer metrics of a traced run, plus the self time of every span
    name (for the report). Metrics of a layer the workload does not reach
    read 0."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    spans = _spans_from_columns(raw["spans"]) if "spans" in raw else []
    selft, by_name = _span_layer_metrics(raw, spans, m)
    if "service" in raw:
        _service_metrics(raw, m)
    else:
        _job_counter_metrics(raw, m)
    for key, metric in [("generate_s", "setup.generate_s"), ("dataset_s", "setup.dataset_s"),
                        ("vp_s", "setup.vp_s"), ("tg_s", "setup.tg_s")]:
        m[metric] = _median([s[key] for s in raw["setup"]])

    for key, value in wall(raw, traced=False).items():
        m["wall." + key] = value
    m["host.calib_ms"] = statistics.median(raw["calib_ms"])

    rows = _rows(raw)
    traced = [r["latency_ms"] for r in rows if r["ok"] and r["traced"]]
    untraced = [r["latency_ms"] for r in rows if r["ok"] and not r["traced"]]
    if traced and untraced:
        m["trace.overhead_frac"] = _mean(traced) / _mean(untraced) - 1.0

    self_ms = {}
    for name, ss in by_name.items():
        self_ms[name] = {
            "count": len(ss),
            "self_ms_total": sum(selft[s["id"]] for s in ss) / 1e6,
        }
    return m, self_ms
