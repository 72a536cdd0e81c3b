#!/usr/bin/env python3
"""Validate a SortReport JSON document against tools/report_schema.json.

Implements the small JSON-Schema subset the checked-in schema uses (type,
properties, required, additionalProperties, items, enum, minimum, minItems)
so no third-party dependency is needed, then applies semantic checks the
schema language cannot express:

  * the phases cover all six Fig. 7 step names, each exactly once;
  * per-phase and per-load min <= mean <= max;
  * load totals match run.n, and splitter boundary_error has one entry
    per boundary between the recovery.final_members ranks that produced
    the output (final_members-1), each bounded by max_error;
  * required sort.* metric counters are present in the merged registry;
  * the partition section is self-consistent per scheme: the one-level
    baseline reports exactly one round, one group, and no probe/level-1
    traffic; histogram refinement stays flat (one group, no level-1 items)
    and respects its epsilon target's sign; two-level AMS never probes;
  * the recovery section is self-consistent: mean time-to-recover never
    exceeds the max, final_members never exceeds machines, a clean run
    (recoveries == 0) reports zero recovery cost, and a recovery-enabled
    run with recoveries > 0 shrank or kept the membership;
  * the waits section is self-consistent: a report can only come from a
    run that completed, so deadlocks must be 0, and max_blocked (peak
    simultaneously-blocked ranks) never exceeds run.machines;
  * a computed critical_path reconciles with the run: total_ns equals
    total_time_ns within 1%, compute + wire == total, phase shares sum to
    1, and every on-path phase is one of the six step names;
  * timeseries points are [t_ns, value] pairs with non-decreasing time and
    at most `capacity` entries per series.

Usage: validate_report.py [--strict] report.json [schema.json]
       validate_report.py --selftest

--strict additionally rejects keys the schema does not declare, wherever
the schema declares `properties` (schema-drift detector: a new C++ report
field must land in the schema in the same change). --selftest runs the
validator against built-in good/bad fixtures and exits non-zero if any
fixture stops behaving as designed.

Exit code 0 on success; prints every violation and exits 1 otherwise.
"""

import json
import os
import sys

STEP_NAMES = [
    "local-sort", "sampling", "splitter-select",
    "partition-plan", "send/receive", "final-merge",
]

REQUIRED_COUNTERS = [
    "sort.load.items",
    "sort.exchange.chunks_sent",
    "sort.exchange.items_received",
    "net.nic.bytes_sent",
    "net.nic.messages_sent",
]


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "null":
        return value is None
    return False


def validate(value, schema, path, errors, strict=False):
    expected = schema.get("type")
    if expected is not None and not type_ok(value, expected):
        errors.append("%s: expected %s, got %s" %
                      (path, expected, type(value).__name__))
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r not in enum %r" % (path, value, schema["enum"]))
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append("%s: %r < minimum %r" % (path, value, schema["minimum"]))
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append("%s: missing required key %r" % (path, req))
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, "%s.%s" % (path, key), errors,
                         strict)
        # additionalProperties: False always closes an object. In strict
        # mode every object that declares properties is closed unless the
        # schema explicitly opts out with additionalProperties: True —
        # catching C++ report fields that never landed in the schema.
        closed = schema.get("additionalProperties") is False or \
            (strict and props and
             schema.get("additionalProperties") is not True)
        if closed:
            for key in value:
                if key not in props:
                    errors.append("%s: unexpected key %r" % (path, key))
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append("%s: %d items < minItems %d" %
                          (path, len(value), schema["minItems"]))
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                validate(item, items, "%s[%d]" % (path, i), errors, strict)


def semantic_checks(doc, errors):
    phases = doc.get("phases", [])
    names = [p.get("name") for p in phases]
    for step in STEP_NAMES:
        if names.count(step) != 1:
            errors.append("phases: step %r appears %d times, want exactly 1" %
                          (step, names.count(step)))
    for p in phases:
        lo, mid, hi = p.get("min_ns", 0), p.get("mean_ns", 0), p.get("max_ns", 0)
        if not (lo <= mid <= hi):
            errors.append("phase %r: min/mean/max out of order (%r, %r, %r)" %
                          (p.get("name"), lo, mid, hi))

    run = doc.get("run", {})
    machines = run.get("machines", 0)
    for unit in ("items", "bytes"):
        load = doc.get("load", {}).get(unit, {})
        lo, mid, hi = load.get("min", 0), load.get("mean", 0), load.get("max", 0)
        if not (lo <= mid <= hi):
            errors.append("load.%s: min/mean/max out of order (%r, %r, %r)" %
                          (unit, lo, mid, hi))
    if doc.get("load", {}).get("items", {}).get("total") != run.get("n"):
        errors.append("load.items.total != run.n")

    boundary = doc.get("splitters", {}).get("boundary_error", [])
    holders = doc.get("recovery", {}).get("final_members", 0)
    if holders and len(boundary) != holders - 1:
        errors.append("splitters.boundary_error: %d entries, want "
                      "recovery.final_members-1=%d"
                      % (len(boundary), holders - 1))
    max_err = doc.get("splitters", {}).get("max_error", 0)
    for i, e in enumerate(boundary):
        if e > max_err + 1e-12:
            errors.append("splitters.boundary_error[%d]=%r exceeds max_error=%r"
                          % (i, e, max_err))

    part = doc.get("partition", {})
    scheme = part.get("scheme")
    if scheme == "one-level-sample":
        for key, want in (("rounds", 1), ("groups", 1), ("probe_keys", 0),
                          ("level1_items", 0)):
            if part.get(key, want) != want:
                errors.append("partition: one-level-sample must report "
                              "%s=%r, got %r" % (key, want, part.get(key)))
        if part.get("epsilon_target", 0) != 0:
            errors.append("partition: one-level-sample has no epsilon "
                          "target, got %r" % part.get("epsilon_target"))
    elif scheme == "histogram-refine":
        for key, want in (("groups", 1), ("level1_items", 0)):
            if part.get(key, want) != want:
                errors.append("partition: histogram-refine must report "
                              "%s=%r, got %r" % (key, want, part.get(key)))
        if part.get("epsilon_target", 0) <= 0:
            errors.append("partition: histogram-refine needs a positive "
                          "epsilon_target, got %r" %
                          part.get("epsilon_target"))
    elif scheme == "two-level-ams":
        if part.get("probe_keys", 0) != 0:
            errors.append("partition: two-level-ams does not probe, got "
                          "probe_keys=%r" % part.get("probe_keys"))
    machines_for_groups = machines if machines else 1
    if part.get("groups", 1) > machines_for_groups:
        errors.append("partition: groups=%r exceeds run.machines=%r" %
                      (part.get("groups"), machines))

    counters = doc.get("metrics", {}).get("counters", {})
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            errors.append("metrics.counters: missing %r" % name)

    rec = doc.get("recovery", {})
    if rec.get("time_to_recover_mean_ns", 0) > \
            rec.get("time_to_recover_max_ns", 0) + 1e-9:
        errors.append("recovery: time_to_recover_mean_ns exceeds "
                      "time_to_recover_max_ns")
    if machines and rec.get("final_members", 0) > machines:
        errors.append("recovery: final_members=%r exceeds run.machines=%r" %
                      (rec.get("final_members"), machines))
    if rec.get("recoveries", 0) == 0:
        # A rank can be dead before attempt 0 (shards regenerate without a
        # re-run), but wasted work and time-to-recover only accrue when a
        # failed attempt was actually thrown away.
        for zero_key in ("wasted_work_ns", "time_to_recover_max_ns"):
            if rec.get(zero_key, 0) != 0:
                errors.append("recovery: %s=%r nonzero with recoveries=0" %
                              (zero_key, rec.get(zero_key)))
    if not rec.get("enabled", False):
        if machines and rec.get("final_members", 0) != machines:
            errors.append("recovery: disabled run must report "
                          "final_members == machines")

    waits = doc.get("waits", {})
    if waits.get("deadlocks", 0) != 0:
        errors.append("waits: deadlocks=%r in a completed run (a deadlocked "
                      "run aborts before producing a report)" %
                      waits.get("deadlocks"))
    if machines and waits.get("max_blocked", 0) > machines:
        errors.append("waits: max_blocked=%r exceeds run.machines=%r" %
                      (waits.get("max_blocked"), machines))

    # Critical path: the walk charges contiguous segments back to the run
    # start, so its total must reconcile with the run's end-to-end time
    # (1% tolerance covers any trailing non-span activity).
    cp = doc.get("critical_path", {})
    if cp.get("computed", False):
        total = doc.get("total_time_ns", 0)
        cp_total = cp.get("total_ns", 0)
        if abs(cp_total - total) > max(1, 0.01 * total):
            errors.append("critical_path: total_ns=%r differs from "
                          "total_time_ns=%r by more than 1%%" %
                          (cp_total, total))
        if cp.get("compute_ns", 0) + cp.get("wire_ns", 0) != cp_total:
            errors.append("critical_path: compute_ns + wire_ns != total_ns")
        cp_phases = cp.get("phases", [])
        share_sum = sum(p.get("share", 0) for p in cp_phases)
        if cp_total and abs(share_sum - 1.0) > 0.01:
            errors.append("critical_path: phase shares sum to %r, want 1.0" %
                          share_sum)
        for p in cp_phases:
            if p.get("name") not in STEP_NAMES:
                errors.append("critical_path: phase %r is not a step name" %
                              p.get("name"))
        if len(cp.get("top_edges", [])) > cp.get("hops", 0):
            errors.append("critical_path: more top_edges than hops")
        for i, e in enumerate(cp.get("top_edges", [])):
            if e.get("recv_ns", 0) - e.get("send_ns", 0) != e.get("wire_ns"):
                errors.append("critical_path.top_edges[%d]: wire_ns != "
                              "recv_ns - send_ns" % i)

    ts = doc.get("timeseries", {})
    for name, series in ts.get("series", {}).items():
        points = series.get("points", [])
        cap = series.get("capacity", 0)
        if cap and len(points) > cap:
            errors.append("timeseries.%s: %d points exceed capacity %d" %
                          (name, len(points), cap))
        prev_t = None
        for i, p in enumerate(points):
            if not (isinstance(p, list) and len(p) == 2 and
                    isinstance(p[0], int) and
                    isinstance(p[1], (int, float))):
                errors.append("timeseries.%s.points[%d]: want [t_ns, value]" %
                              (name, i))
                break
            if prev_t is not None and p[0] < prev_t:
                errors.append("timeseries.%s.points[%d]: time went backwards"
                              % (name, i))
                break
            prev_t = p[0]


def run_validation(doc, schema, strict):
    errors = []
    validate(doc, schema, "$", errors, strict)
    if not errors:  # semantic checks assume the shape is right
        semantic_checks(doc, errors)
    return errors


def make_valid_fixture():
    """A minimal document that satisfies the schema and every semantic
    check — the base the self-test mutates."""
    machines, n = 2, 100
    metric_names = ["local_sort", "sampling", "splitter_select",
                    "partition_plan", "exchange", "final_merge"]
    phases = [{"name": name, "metric": metric,
               "min_ns": 10, "max_ns": 20, "mean_ns": 15.0}
              for name, metric in zip(STEP_NAMES, metric_names)]
    load_items = {"total": n, "min": 50, "max": 50, "mean": 50.0,
                  "max_over_min": 1.0, "imbalance": 0.0}
    load_bytes = {"total": 1200, "min": 600, "max": 600, "mean": 600.0,
                  "max_over_min": 1.0, "imbalance": 0.0}
    return {
        "run": {"engine": "pgxd", "distribution": "uniform", "n": n,
                "machines": machines, "seed": 1},
        "total_time_ns": 1000,
        "phases": phases,
        "load": {"items": load_items, "bytes": load_bytes},
        "splitters": {"boundary_error": [0.0], "max_error": 0.0,
                      "mean_error": 0.0},
        "partition": {"scheme": "one-level-sample", "rounds": 1,
                      "epsilon_target": 0.0, "achieved_epsilon": 0.0,
                      "groups": 1, "sample_keys": 4, "probe_keys": 0,
                      "level1_items": 0},
        "network": {"bytes_sent": 0, "messages_sent": 0,
                    "messages_dropped": 0, "messages_duplicated": 0,
                    "retransmits": 0, "acks_received": 0,
                    "duplicates_suppressed": 0, "duplicate_chunks": 0},
        "pool": {"leases": 0, "reuses": 0, "fresh_allocs": 0, "returns": 0,
                 "hit_rate": 0.0},
        "recovery": {"enabled": False, "recoveries": 0, "final_attempt": 0,
                     "final_members": machines, "regenerated_shards": 0,
                     "abort_broadcasts": 0, "detector_suspicions": 0,
                     "detector_heartbeats_sent": 0, "wasted_work_ns": 0,
                     "time_to_recover_max_ns": 0,
                     "time_to_recover_mean_ns": 0.0},
        "waits": {"mailbox_waits": 4, "barrier_waits": 0, "pool_waits": 0,
                  "holds_added": 2, "deadlock_checks": 1, "deadlocks": 0,
                  "max_blocked": 1},
        "critical_path": {"computed": False, "total_ns": 0, "compute_ns": 0,
                          "wire_ns": 0, "hops": 0, "start_lane": 0,
                          "end_lane": 0, "phases": [], "top_edges": []},
        "timeseries": {"interval_ns": 0, "series": {}},
        "metrics": {"counters": {name: 1 for name in REQUIRED_COUNTERS},
                    "gauges": {}, "histograms": {}},
    }


def selftest(schema):
    """Fixture matrix: (name, mutate(doc), lax_ok, strict_ok)."""
    def identity(doc):
        return doc

    def unknown_top_level(doc):
        doc["experimental_section"] = {"x": 1}
        return doc

    def unknown_nested(doc):
        doc["run"]["git_sha"] = "abc123"
        return doc

    def missing_required(doc):
        del doc["pool"]
        return doc

    def cp_total_mismatch(doc):
        doc["critical_path"] = {
            "computed": True, "total_ns": 2000, "compute_ns": 1800,
            "wire_ns": 200, "hops": 1, "start_lane": 0, "end_lane": 1,
            "phases": [{"name": "send/receive", "compute_ns": 1800,
                        "wire_ns": 200, "share": 1.0, "slack_mean_ns": 0}],
            "top_edges": [{"span_id": 1, "src": 0, "dst": 1, "send_ns": 100,
                           "recv_ns": 300, "wire_ns": 200, "bytes": 64,
                           "label": "chunk", "retransmit": False}],
        }
        return doc

    def cp_consistent(doc):
        doc = cp_total_mismatch(doc)
        doc["critical_path"]["total_ns"] = 1000
        doc["critical_path"]["compute_ns"] = 800
        doc["critical_path"]["phases"][0]["compute_ns"] = 800
        return doc

    def partition_histogram_ok(doc):
        doc["partition"] = {"scheme": "histogram-refine", "rounds": 3,
                            "epsilon_target": 0.05,
                            "achieved_epsilon": 0.02, "groups": 1,
                            "sample_keys": 4, "probe_keys": 12,
                            "level1_items": 0}
        return doc

    def partition_unknown_scheme(doc):
        doc["partition"]["scheme"] = "three-level"
        return doc

    def partition_baseline_with_rounds(doc):
        doc["partition"]["rounds"] = 4
        return doc

    def partition_histogram_no_target(doc):
        doc = partition_histogram_ok(doc)
        doc["partition"]["epsilon_target"] = 0.0
        return doc

    def partition_too_many_groups(doc):
        doc["partition"] = {"scheme": "two-level-ams", "rounds": 1,
                            "epsilon_target": 0.0,
                            "achieved_epsilon": 0.01, "groups": 5,
                            "sample_keys": 4, "probe_keys": 0,
                            "level1_items": 10}
        return doc

    def waits_deadlock_in_report(doc):
        doc["waits"]["deadlocks"] = 1
        return doc

    def waits_overblocked(doc):
        doc["waits"]["max_blocked"] = 99
        return doc

    def recovered_onto_one_member(doc):
        doc["recovery"].update({
            "enabled": True, "recoveries": 1, "final_attempt": 1,
            "final_members": 1, "regenerated_shards": 1,
            "wasted_work_ns": 10, "time_to_recover_max_ns": 5,
            "time_to_recover_mean_ns": 5.0})
        doc["splitters"]["boundary_error"] = []
        return doc

    def recovered_boundaries_count_dead_rank(doc):
        doc = recovered_onto_one_member(doc)
        doc["splitters"]["boundary_error"] = [0.0]
        return doc

    def ts_time_backwards(doc):
        doc["timeseries"]["series"]["rank0.mailbox_depth"] = {
            "capacity": 4, "dropped": 0, "points": [[200, 1.0], [100, 0.0]],
        }
        return doc

    cases = [
        ("valid", identity, True, True),
        ("unknown top-level key", unknown_top_level, True, False),
        ("unknown nested key", unknown_nested, True, False),
        ("missing required section", missing_required, False, False),
        ("critical_path total off by >1%", cp_total_mismatch, False, False),
        ("critical_path consistent", cp_consistent, True, True),
        ("partition histogram consistent", partition_histogram_ok,
         True, True),
        ("partition unknown scheme", partition_unknown_scheme, False, False),
        ("partition baseline claims rounds", partition_baseline_with_rounds,
         False, False),
        ("partition histogram without target", partition_histogram_no_target,
         False, False),
        ("partition groups exceed machines", partition_too_many_groups,
         False, False),
        ("waits deadlock in completed run", waits_deadlock_in_report,
         False, False),
        ("waits max_blocked exceeds machines", waits_overblocked,
         False, False),
        ("recovered onto one member", recovered_onto_one_member,
         True, True),
        ("boundaries count a dead rank", recovered_boundaries_count_dead_rank,
         False, False),
        ("timeseries time backwards", ts_time_backwards, False, False),
    ]
    failures = 0
    for name, mutate, want_lax, want_strict in cases:
        for strict, want in ((False, want_lax), (True, want_strict)):
            doc = mutate(make_valid_fixture())
            errors = run_validation(doc, schema, strict)
            got = not errors
            mode = "strict" if strict else "lax"
            if got != want:
                failures += 1
                print("SELFTEST FAIL: %s [%s]: expected %s, got %s" %
                      (name, mode, "pass" if want else "fail",
                       "pass" if got else "fail"))
                for e in errors[:3]:
                    print("  " + e)
    if failures:
        return 1
    print("OK: validator self-test passed (%d cases x lax/strict)" %
          len(cases))
    return 0


def main(argv):
    args = argv[1:]
    strict = "--strict" in args
    run_self = "--selftest" in args
    args = [a for a in args if a not in ("--strict", "--selftest")]

    if run_self:
        schema_path = args[0] if args else \
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "report_schema.json")
        with open(schema_path) as f:
            schema = json.load(f)
        return selftest(schema)

    if len(args) < 1 or len(args) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    report_path = args[0]
    schema_path = args[1] if len(args) == 2 else \
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "report_schema.json")
    with open(report_path) as f:
        doc = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)

    errors = run_validation(doc, schema, strict)
    if errors:
        for e in errors:
            print("FAIL: %s" % e)
        return 1
    print("OK: %s matches %s%s (%d phases, %d counters)" %
          (report_path, os.path.basename(schema_path),
           " [strict]" if strict else "",
           len(doc.get("phases", [])),
           len(doc.get("metrics", {}).get("counters", {}))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
