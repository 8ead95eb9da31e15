#!/usr/bin/env python3
"""Validate the machine-readable records emitted by the benches and CLI.

Every benchmark built on ``bench/bench_util.hpp`` writes a machine-readable
record ``BENCH_<name>.json`` (schema ``ccnopt-bench-v1``) into the directory
named by ``$CCNOPT_BENCH_DIR`` (default: the working directory).  The
strategy arena (``bench_arena``) additionally writes ``ARENA_*.json``
(schema ``ccnopt-arena-v1``): a strategies x topologies grid of comparison
cells.  ``ccnopt simulate --timeline-out`` writes per-epoch telemetry
(schema ``ccnopt-timeline-v1``), ``--perfetto-out`` writes a
chrome://tracing span trace (schema ``ccnopt-spans-v1``),
``--topo-out`` writes the per-router/per-link flight recorder (schema
``ccnopt-topo-v1``, rendered by ``tools/render_topo.py``), and
``--trace-out`` writes sampled per-request events with hop paths (schema
``ccnopt-trace-v2``).  This script checks all of them against their
schemas — dispatching on each record's
``schema`` field — so CI can catch silently-broken exports.  Non-finite
numbers (NaN/Infinity) are rejected everywhere: they are invalid JSON and
poison any downstream comparison.

Usage:
  # Validate already-written records in a directory:
  python3 tools/check_bench_json.py --out-dir /tmp/bench

  # Run one or more bench binaries first, then validate what they wrote:
  python3 tools/check_bench_json.py --out-dir /tmp/bench \
      --run build/bench/bench_table4_params \
      --run build/bench/bench_theorem2_closedform

  # Validate specific files:
  python3 tools/check_bench_json.py BENCH_fig6_netsize.json

Exit status is 0 when every record validates, 1 otherwise.  Only the Python
standard library is used.
"""

from __future__ import annotations

import argparse
import glob
import json
import numbers
import os
import shlex
import subprocess
import sys

SCHEMA = "ccnopt-bench-v1"
ARENA_SCHEMA = "ccnopt-arena-v1"
TIMELINE_SCHEMA = "ccnopt-timeline-v1"
SPANS_SCHEMA = "ccnopt-spans-v1"
TOPO_SCHEMA = "ccnopt-topo-v1"
TRACE_SCHEMA = "ccnopt-trace-v2"


def _reject_constant(name: str) -> float:
    """json.load hook: the writers must never emit NaN/Infinity (it is not
    valid JSON), so any occurrence is a validation failure, not a value."""
    raise ValueError(f"non-finite JSON constant {name!r}")


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_registry(registry: object, where: str, errors: list[str]) -> None:
    if not isinstance(registry, dict):
        errors.append(f"{where}: must be an object")
        return
    for section in ("counters", "gauges", "histograms"):
        if section not in registry:
            errors.append(f"{where}: missing key '{section}'")
    counters = registry.get("counters", {})
    if isinstance(counters, dict):
        for name, value in counters.items():
            if not _is_int(value) or value < 0:
                errors.append(
                    f"{where}.counters[{name!r}]: expected non-negative "
                    f"integer, got {value!r}")
    else:
        errors.append(f"{where}.counters: must be an object")
    gauges = registry.get("gauges", {})
    if isinstance(gauges, dict):
        for name, value in gauges.items():
            if not _is_number(value):
                errors.append(
                    f"{where}.gauges[{name!r}]: expected number, got "
                    f"{value!r}")
    else:
        errors.append(f"{where}.gauges: must be an object")
    histograms = registry.get("histograms", {})
    if isinstance(histograms, dict):
        for name, hist in histograms.items():
            validate_histogram(hist, f"{where}.histograms[{name!r}]", errors)
    else:
        errors.append(f"{where}.histograms: must be an object")


def validate_histogram(hist: object, where: str, errors: list[str]) -> None:
    if not isinstance(hist, dict):
        errors.append(f"{where}: must be an object")
        return
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not isinstance(bounds, list) or not all(_is_number(b) for b in bounds):
        errors.append(f"{where}.bounds: expected list of numbers")
        return
    if any(b >= a for b, a in zip(bounds, bounds[1:])):
        errors.append(f"{where}.bounds: must be strictly ascending")
    if not isinstance(counts, list) or not all(
            _is_int(c) and c >= 0 for c in counts):
        errors.append(f"{where}.counts: expected list of non-negative ints")
        return
    if len(counts) != len(bounds) + 1:
        errors.append(
            f"{where}.counts: expected len(bounds)+1 = {len(bounds) + 1} "
            f"entries, got {len(counts)}")
    count = hist.get("count")
    if not _is_int(count) or count != sum(counts):
        errors.append(
            f"{where}.count: expected sum(counts) = {sum(counts)}, got "
            f"{count!r}")
    if not _is_number(hist.get("sum")):
        errors.append(f"{where}.sum: expected number")


def validate_spans(spans: object, where: str, errors: list[str]) -> None:
    if not isinstance(spans, list):
        errors.append(f"{where}: must be a list")
        return
    for index, span in enumerate(spans):
        slot = f"{where}[{index}]"
        if not isinstance(span, dict):
            errors.append(f"{slot}: must be an object")
            continue
        if not isinstance(span.get("path"), str) or not span["path"]:
            errors.append(f"{slot}.path: expected non-empty string")
        if not _is_int(span.get("count")) or span["count"] < 1:
            errors.append(f"{slot}.count: expected positive integer")
        for key in ("wall_ms", "cpu_ms"):
            if not _is_number(span.get(key)) or span[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative number")


def validate_throughput_outputs(outputs: dict, errors: list[str]) -> None:
    """Extra schema for throughput_* records: a positive requests_per_sec
    rate plus the thread count and catalog size it was measured at."""
    rps = outputs.get("requests_per_sec")
    if not _is_number(rps) or rps <= 0:
        errors.append(
            f"outputs['requests_per_sec']: expected positive number, got "
            f"{rps!r}")
    threads = outputs.get("threads")
    if not _is_int(threads) or threads <= 0:
        errors.append(
            f"outputs['threads']: expected positive integer, got {threads!r}")
    catalog = outputs.get("catalog_size")
    if not _is_int(catalog) or catalog <= 0:
        errors.append(
            f"outputs['catalog_size']: expected positive integer, got "
            f"{catalog!r}")


def validate_throughput_replay_outputs(outputs: dict,
                                       errors: list[str]) -> None:
    """Extra schema for throughput_replay* records on top of the generic
    throughput checks: the sharded-engine and per-phase rates plus the
    shard count they were measured at."""
    shards = outputs.get("shards")
    if not _is_int(shards) or shards <= 0:
        errors.append(
            f"outputs['shards']: expected positive integer, got {shards!r}")
    for key in ("requests_per_sec_sharded", "requests_per_sec_warmup_phase",
                "requests_per_sec_measured_phase", "sharded_speedup"):
        value = outputs.get(key)
        if not _is_number(value) or value <= 0:
            errors.append(
                f"outputs[{key!r}]: expected positive number, got {value!r}")


def validate_arena_cell(cell: object, where: str, errors: list[str]) -> None:
    if not isinstance(cell, dict):
        errors.append(f"{where}: must be an object")
        return
    for key in ("strategy", "topology"):
        if not isinstance(cell.get(key), str) or not cell[key]:
            errors.append(f"{where}.{key}: expected non-empty string")
    if not _is_int(cell.get("routers")) or cell["routers"] <= 0:
        errors.append(f"{where}.routers: expected positive integer")
    if not _is_int(cell.get("total_requests")) or cell["total_requests"] < 0:
        errors.append(f"{where}.total_requests: expected non-negative int")
    if not isinstance(cell.get("converged"), bool):
        errors.append(f"{where}.converged: expected bool")
    for key in ("steady_state_epoch", "steady_state_requests"):
        if not _is_int(cell.get(key)) or cell[key] < 0:
            errors.append(f"{where}.{key}: expected non-negative int")
    if (not _is_int(cell.get("coordination_messages"))
            or cell["coordination_messages"] < 0):
        errors.append(
            f"{where}.coordination_messages: expected non-negative int")
    fractions = ("hit_ratio", "local_fraction", "network_fraction",
                 "origin_load")
    for key in fractions:
        value = cell.get(key)
        if not _is_number(value) or not 0.0 <= value <= 1.0:
            errors.append(f"{where}.{key}: expected number in [0, 1], got "
                          f"{value!r}")
    if all(_is_number(cell.get(k)) for k in fractions):
        total = (cell["local_fraction"] + cell["network_fraction"]
                 + cell["origin_load"])
        if abs(total - 1.0) > 1e-6:
            errors.append(
                f"{where}: tier fractions sum to {total}, expected 1")
        if abs((1.0 - cell["origin_load"]) - cell["hit_ratio"]) > 1e-9:
            errors.append(f"{where}.hit_ratio: expected 1 - origin_load")
    for key in ("mean_latency_ms", "mean_hops", "mean_local_latency_ms",
                "mean_network_latency_ms", "mean_origin_latency_ms"):
        value = cell.get(key)
        if not _is_number(value) or value < 0:
            errors.append(f"{where}.{key}: expected non-negative number, got "
                          f"{value!r}")
    # Topology-resolved summary fields (every cell runs with record_topo).
    for key in ("placements", "link_traversals", "max_link_load"):
        if not _is_int(cell.get(key)) or cell[key] < 0:
            errors.append(f"{where}.{key}: expected non-negative int")
    depth = cell.get("mean_placement_depth")
    if not _is_number(depth) or depth < 0:
        errors.append(
            f"{where}.mean_placement_depth: expected non-negative number, "
            f"got {depth!r}")
    depths = cell.get("placement_depths")
    if not isinstance(depths, list) or not all(
            _is_int(d) and d >= 0 for d in depths):
        errors.append(
            f"{where}.placement_depths: expected list of non-negative ints")
    elif _is_int(cell.get("placements")) and sum(depths) != cell[
            "placements"]:
        errors.append(
            f"{where}.placement_depths: histogram sums to {sum(depths)}, "
            f"expected placements = {cell['placements']}")


def validate_arena_record(record: dict, errors: list[str]) -> None:
    """ccnopt-arena-v1: config + strategy/topology rosters + one cell per
    (topology, strategy) pair of the full cross product, in that order."""
    config = record.get("config")
    if not isinstance(config, dict):
        errors.append("config: must be an object")
    else:
        for key in ("catalog_size", "capacity_c", "coordinated_x",
                    "warmup_requests", "measured_requests", "seed"):
            if not _is_int(config.get(key)) or config[key] < 0:
                errors.append(
                    f"config[{key!r}]: expected non-negative integer")
        if not _is_number(config.get("zipf_s")):
            errors.append("config['zipf_s']: expected number")
        if not isinstance(config.get("local_mode"), str):
            errors.append("config['local_mode']: expected string")
        if not isinstance(config.get("detect_steady_state"), bool):
            errors.append("config['detect_steady_state']: expected bool")
        if (not _is_int(config.get("timeline_epoch"))
                or config["timeline_epoch"] < 0):
            errors.append(
                "config['timeline_epoch']: expected non-negative integer")
    strategies = record.get("strategies")
    topologies = record.get("topologies")
    for key, roster in (("strategies", strategies), ("topologies",
                                                     topologies)):
        if (not isinstance(roster, list) or not roster or not all(
                isinstance(name, str) and name for name in roster)):
            errors.append(f"{key}: expected non-empty list of strings")
    cells = record.get("cells")
    if not isinstance(cells, list):
        errors.append("cells: must be a list")
        return
    for index, cell in enumerate(cells):
        validate_arena_cell(cell, f"cells[{index}]", errors)
    if isinstance(strategies, list) and isinstance(topologies, list):
        expected = len(strategies) * len(topologies)
        if len(cells) != expected:
            errors.append(
                f"cells: expected full cross product of {expected} cells "
                f"({len(topologies)} topologies x {len(strategies)} "
                f"strategies), got {len(cells)}")
        else:
            for t, topology in enumerate(topologies):
                for s, strategy in enumerate(strategies):
                    cell = cells[t * len(strategies) + s]
                    if not isinstance(cell, dict):
                        continue
                    if (cell.get("topology") != topology
                            or cell.get("strategy") != strategy):
                        errors.append(
                            f"cells[{t * len(strategies) + s}]: expected "
                            f"({topology!r}, {strategy!r}), got "
                            f"({cell.get('topology')!r}, "
                            f"{cell.get('strategy')!r})")


def validate_timeline_record(record: dict, errors: list[str]) -> None:
    """ccnopt-timeline-v1: a fixed column roster plus per-epoch delta rows,
    contiguous and zero-based within each replication."""
    epoch_requests = record.get("epoch_requests")
    if not _is_int(epoch_requests) or epoch_requests <= 0:
        errors.append("epoch_requests: expected positive integer")
    columns = record.get("columns")
    if (not isinstance(columns, list) or not columns or not all(
            isinstance(name, str) and name for name in columns)):
        errors.append("columns: expected non-empty list of strings")
        columns = []
    epochs = record.get("epochs")
    if not isinstance(epochs, list):
        errors.append("epochs: must be a list")
        return
    next_epoch: dict[int, int] = {}
    for index, row in enumerate(epochs):
        slot = f"epochs[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{slot}: must be an object")
            continue
        for key in ("replication", "epoch", "first_request", "last_request"):
            if not _is_int(row.get(key)) or row[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative integer")
        values = row.get("values")
        if not isinstance(values, list) or not all(
                _is_number(v) for v in values):
            errors.append(f"{slot}.values: expected list of numbers")
        elif columns and len(values) != len(columns):
            errors.append(f"{slot}.values: expected {len(columns)} entries "
                          f"(one per column), got {len(values)}")
        if _is_int(row.get("first_request")) and _is_int(
                row.get("last_request")):
            if row["last_request"] < row["first_request"]:
                errors.append(f"{slot}: last_request < first_request")
            elif (_is_int(epoch_requests) and epoch_requests > 0
                  and row["last_request"] - row["first_request"] + 1
                  > epoch_requests):
                errors.append(f"{slot}: epoch spans more than "
                              f"epoch_requests = {epoch_requests} requests")
        if _is_int(row.get("replication")) and _is_int(row.get("epoch")):
            expected = next_epoch.get(row["replication"], 0)
            if row["epoch"] != expected:
                errors.append(
                    f"{slot}: replication {row['replication']} epochs must "
                    f"be contiguous from 0; expected {expected}, got "
                    f"{row['epoch']}")
            next_epoch[row["replication"]] = row["epoch"] + 1


def validate_trace_events(record: dict, errors: list[str]) -> None:
    """ccnopt-spans-v1: chrome://tracing (Perfetto-loadable) trace_events
    JSON — 'X' complete events with microsecond ts/dur plus optional 'M'
    metadata events."""
    dropped = record.get("dropped_events")
    if not _is_int(dropped) or dropped < 0:
        errors.append("dropped_events: expected non-negative integer")
    events = record.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents: must be a list")
        return
    for index, event in enumerate(events):
        slot = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{slot}: must be an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            if not isinstance(event.get("name"), str):
                errors.append(f"{slot}.name: expected string")
            continue
        if phase != "X":
            errors.append(f"{slot}.ph: expected 'X' or 'M', got {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{slot}.name: expected non-empty string")
        for key in ("ts", "dur"):
            if not _is_number(event.get(key)) or event[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative number")
        for key in ("pid", "tid"):
            if not _is_int(event.get(key)) or event[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative integer")
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(
                args.get("path"), str) or not args["path"]:
            errors.append(f"{slot}.args.path: expected non-empty string")


def validate_topo_record(record: dict, errors: list[str]) -> None:
    """ccnopt-topo-v1: per-router flight-recorder rows (dense, id == index)
    plus per-link traversal counts and the placement-depth histogram.  The
    declared routers/links counts must match the arrays, every counter is a
    non-negative integer, and tier counts must sum to each node's requests."""
    if not isinstance(record.get("topology"), str) or not record["topology"]:
        errors.append("topology: expected non-empty string")
    routers = record.get("routers")
    if not _is_int(routers) or routers <= 0:
        errors.append("routers: expected positive integer")
        routers = None
    links = record.get("links")
    if not _is_int(links) or links < 0:
        errors.append("links: expected non-negative integer")
        links = None
    if not _is_int(record.get("replications")) or record["replications"] < 1:
        errors.append("replications: expected positive integer")
    depths = record.get("placement_depths")
    if not isinstance(depths, list) or not all(
            _is_int(d) and d >= 0 for d in depths):
        errors.append("placement_depths: expected list of non-negative ints")
        depths = []
    nodes = record.get("nodes")
    if not isinstance(nodes, list):
        errors.append("nodes: must be a list")
        nodes = []
    if routers is not None and len(nodes) != routers:
        errors.append(
            f"nodes: expected routers = {routers} entries, got {len(nodes)}")
    total_placements = 0
    for index, node in enumerate(nodes):
        slot = f"nodes[{index}]"
        if not isinstance(node, dict):
            errors.append(f"{slot}: must be an object")
            continue
        if node.get("id") != index:
            errors.append(f"{slot}.id: expected dense index {index}, got "
                          f"{node.get('id')!r}")
        for key in ("requests", "local", "network", "origin", "misses",
                    "served_for_peers", "placements", "hops_sum",
                    "evictions", "insertions", "occupancy", "capacity"):
            if not _is_int(node.get(key)) or node[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative int, "
                              f"got {node.get(key)!r}")
        value = node.get("latency_ms_sum")
        if not _is_number(value) or value < 0:
            errors.append(f"{slot}.latency_ms_sum: expected non-negative "
                          f"number, got {value!r}")
        if all(_is_int(node.get(k))
               for k in ("requests", "local", "network", "origin", "misses")):
            if node["local"] + node["network"] + node["origin"] != node[
                    "requests"]:
                errors.append(f"{slot}: tier counts do not sum to requests")
            if node["misses"] != node["requests"] - node["local"]:
                errors.append(f"{slot}.misses: expected requests - local")
        if _is_int(node.get("placements")):
            total_placements += node["placements"]
    if nodes and sum(depths) != total_placements:
        errors.append(
            f"placement_depths: histogram sums to {sum(depths)}, expected "
            f"total node placements = {total_placements}")
    edges = record.get("edges")
    if not isinstance(edges, list):
        errors.append("edges: must be a list")
        return
    if links is not None and len(edges) != links:
        errors.append(
            f"edges: expected links = {links} entries, got {len(edges)}")
    for index, edge in enumerate(edges):
        slot = f"edges[{index}]"
        if not isinstance(edge, dict):
            errors.append(f"{slot}: must be an object")
            continue
        u, v = edge.get("u"), edge.get("v")
        if not _is_int(u) or not _is_int(v) or not 0 <= u < v:
            errors.append(f"{slot}: expected endpoint ids with 0 <= u < v, "
                          f"got u={u!r} v={v!r}")
        elif routers is not None and v >= routers:
            errors.append(f"{slot}.v: endpoint {v} out of range for "
                          f"{routers} routers")
        if not _is_int(edge.get("traversals")) or edge["traversals"] < 0:
            errors.append(f"{slot}.traversals: expected non-negative int")


def validate_trace_record(record: dict, errors: list[str]) -> None:
    """ccnopt-trace-v2: sampled per-request events, each carrying the full
    delivery hop path (requester first) and the placement depth of the
    nearest new copy (-1 when the insertion rule placed nothing)."""
    events = record.get("events")
    if not isinstance(events, list):
        errors.append("events: must be a list")
        return
    tiers = {"local", "network", "origin"}
    for index, event in enumerate(events):
        slot = f"events[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{slot}: must be an object")
            continue
        for key in ("replication", "request", "router", "content", "hops",
                    "served_by"):
            if not _is_int(event.get(key)) or event[key] < 0:
                errors.append(f"{slot}.{key}: expected non-negative int")
        if event.get("tier") not in tiers:
            errors.append(f"{slot}.tier: expected one of {sorted(tiers)}, "
                          f"got {event.get('tier')!r}")
        path = event.get("path")
        if not isinstance(path, list) or not path or not all(
                _is_int(p) and p >= 0 for p in path):
            errors.append(
                f"{slot}.path: expected non-empty list of node ids")
        else:
            if _is_int(event.get("router")) and path[0] != event["router"]:
                errors.append(f"{slot}.path: must start at the requesting "
                              f"router {event['router']}, got {path[0]}")
            if _is_int(event.get("hops")) and len(path) - 1 > event["hops"]:
                errors.append(f"{slot}.path: {len(path) - 1} edges exceeds "
                              f"hops = {event['hops']}")
        depth = event.get("placement_depth")
        if not _is_int(depth) or depth < -1:
            errors.append(f"{slot}.placement_depth: expected int >= -1, "
                          f"got {depth!r}")
        elif isinstance(path, list) and path and depth >= len(path):
            errors.append(f"{slot}.placement_depth: depth {depth} is past "
                          f"the end of a {len(path)}-node path")
        if not _is_number(event.get("latency_ms")) or event["latency_ms"] < 0:
            errors.append(f"{slot}.latency_ms: expected non-negative number")


def validate_record(path: str) -> list[str]:
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]
    if not isinstance(record, dict):
        return ["top level must be a JSON object"]
    if record.get("schema") == ARENA_SCHEMA:
        validate_arena_record(record, errors)
        return errors
    if record.get("schema") == TIMELINE_SCHEMA:
        validate_timeline_record(record, errors)
        return errors
    if record.get("schema") == SPANS_SCHEMA:
        validate_trace_events(record, errors)
        return errors
    if record.get("schema") == TOPO_SCHEMA:
        validate_topo_record(record, errors)
        return errors
    if record.get("schema") == TRACE_SCHEMA:
        validate_trace_record(record, errors)
        return errors
    if record.get("schema") != SCHEMA:
        errors.append(
            f"schema: expected one of {SCHEMA!r}, {ARENA_SCHEMA!r}, "
            f"{TIMELINE_SCHEMA!r}, {SPANS_SCHEMA!r}, {TOPO_SCHEMA!r}, "
            f"{TRACE_SCHEMA!r}, got {record.get('schema')!r}")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"name: expected non-empty string, got {name!r}")
    timings = record.get("timings_ms")
    if not isinstance(timings, dict):
        errors.append("timings_ms: must be an object")
    else:
        if "total_ms" not in timings:
            errors.append("timings_ms: missing 'total_ms'")
        for label, value in timings.items():
            if not _is_number(value) or value < 0:
                errors.append(
                    f"timings_ms[{label!r}]: expected non-negative number, "
                    f"got {value!r}")
    outputs = record.get("outputs")
    if not isinstance(outputs, dict):
        errors.append("outputs: must be an object")
    else:
        for key, value in outputs.items():
            if not (_is_number(value) or isinstance(value, (str, bool))):
                errors.append(
                    f"outputs[{key!r}]: expected number, string, or bool, "
                    f"got {type(value).__name__}")
        # Every record carries the process footprint and the catalog size it
        # ran against (bench_util.hpp injects both on finish(); catalog_size
        # defaults to 0 when the bench is catalog-independent).
        peak_rss = outputs.get("peak_rss_bytes")
        if not _is_int(peak_rss) or peak_rss <= 0:
            errors.append(
                f"outputs['peak_rss_bytes']: expected positive integer, got "
                f"{peak_rss!r}")
        catalog_any = outputs.get("catalog_size")
        if not _is_int(catalog_any) or catalog_any < 0:
            errors.append(
                f"outputs['catalog_size']: expected non-negative integer, "
                f"got {catalog_any!r}")
        if isinstance(name, str) and name.startswith("throughput_"):
            validate_throughput_outputs(outputs, errors)
        if isinstance(name, str) and name.startswith("throughput_replay"):
            validate_throughput_replay_outputs(outputs, errors)
    for section in ("registry", "perf"):
        if section not in record:
            errors.append(f"missing key '{section}'")
        else:
            validate_registry(record[section], section, errors)
    if "spans" not in record:
        errors.append("missing key 'spans'")
    else:
        validate_spans(record["spans"], "spans", errors)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Validate ccnopt BENCH_*.json records")
    parser.add_argument("files", nargs="*",
                        help="specific record files to validate")
    parser.add_argument("--out-dir", default=".",
                        help="directory holding (or receiving) the records")
    parser.add_argument("--run", action="append", default=[],
                        metavar="CMD", dest="runs",
                        help="bench command to execute before validating "
                             "(repeatable; quoted arguments are split "
                             "shell-style); CCNOPT_BENCH_DIR is pointed at "
                             "--out-dir")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for command in args.runs:
        argv = shlex.split(command)
        env = dict(os.environ, CCNOPT_BENCH_DIR=args.out_dir)
        print(f"running {command} ...", flush=True)
        result = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL)
        if result.returncode != 0:
            print(f"FAIL: {command} exited with {result.returncode}")
            return 1

    files = args.files or (
        sorted(glob.glob(os.path.join(args.out_dir, "BENCH_*.json"))) +
        sorted(glob.glob(os.path.join(args.out_dir, "ARENA_*.json"))) +
        sorted(glob.glob(os.path.join(args.out_dir, "TIMELINE_*.json"))) +
        sorted(glob.glob(os.path.join(args.out_dir, "TOPO_*.json"))))
    if not files:
        print(f"FAIL: no BENCH_*.json, ARENA_*.json, TIMELINE_*.json, or "
              f"TOPO_*.json records found in {args.out_dir!r}")
        return 1

    failed = 0
    for path in files:
        errors = validate_record(path)
        if errors:
            failed += 1
            print(f"FAIL: {path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok: {path}")
    print(f"{len(files) - failed}/{len(files)} records valid")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
