#!/usr/bin/env python3
"""Renders BENCH_scale.json (or BENCH_dtn/BENCH_adversary.json) as a
markdown table.

Used by the Release CI job to append a wall-clock + events/sec summary to
$GITHUB_STEP_SUMMARY, so perf regressions are visible on the PR page
without downloading the artifact. BENCH_dtn.json and BENCH_adversary.json
share the same points/series shape (each point labels a grid cell instead
of a node count), so one renderer covers all three; the "users served" column shows the session
layer's served/eligible ratio when a series carries session metrics and
an em-dash placeholder when it does not (every pre-custody BENCH file);
the "trust iso/fp" column does the same for the adversary axis' isolation
and false-positive counts (BENCH_adversary.json only).

Runs under `if: always()`, so it must exit 0 and print something
readable for every degraded input: missing file, truncated JSON, a
non-object payload, points that are missing keys (the wall-clock budget
can kill scale_smoke mid-sweep), or points without event_mix (older
BENCH files predate the per-category accounting).

Usage: scale_summary.py BENCH_scale.json
       scale_summary.py BENCH_dtn.json
       scale_summary.py BENCH_adversary.json
"""
import json
import sys


def _num(value, default=0):
    """Returns value as a number, or `default` when absent/malformed."""
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else default


def _series_of(point):
    series = point.get("series", [])
    if not isinstance(series, list):
        return []
    return [s for s in series if isinstance(s, dict)]


def _fmt_protocols(point):
    parts = [
        f"{s.get('name', '?')}={_num(s.get('delivery_ratio')):.2f}"
        for s in _series_of(point)
    ]
    return ", ".join(parts) if parts else "_n/a_"


def _fmt_users_served(point):
    """Per-protocol users-served ratio, or a placeholder when the point
    carries no session metrics (every pre-custody BENCH file)."""
    parts = [
        f"{s.get('name', '?')}={_num(s.get('users_served_ratio')):.2f}"
        for s in _series_of(point)
        if "users_served_ratio" in s
    ]
    return ", ".join(parts) if parts else "—"


def _fmt_trust(point):
    """Per-protocol isolation/false-positive counts, or a placeholder
    when the point predates the adversary axis (every BENCH file other
    than BENCH_adversary.json)."""
    parts = [
        f"{s.get('name', '?')}={_num(s.get('trust_isolations')):.1f}"
        f"/{_num(s.get('trust_false_positives')):.1f}"
        for s in _series_of(point)
        if "trust_isolations" in s
    ]
    return ", ".join(parts) if parts else "—"


def _point_label(point):
    """scale points are labeled by node count; dtn points carry an
    explicit grid-cell label."""
    return point.get("label", point.get("nodes", "?"))


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: scale_summary.py BENCH_scale.json|BENCH_dtn.json|"
              "BENCH_adversary.json", file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        # CI must not fail the build over a missing/truncated bench file
        # (the wall-clock budget may have tripped); say so in the summary.
        print(f"### Scaling smoke\n\n_no usable {sys.argv[1]}: {e}_")
        return 0
    if not isinstance(data, dict):
        print(f"### Scaling smoke\n\n_unexpected payload in {sys.argv[1]}: "
              f"{type(data).__name__} instead of an object_")
        return 0

    experiment = data.get("experiment", "scale_smoke")
    if experiment == "dtn":
        title = "Custody tier × user sessions (`figure_dtn`)"
    elif experiment == "adversary":
        title = "Adversary axis × trust isolation (`figure_adversary`)"
    else:
        title = f"Scaling smoke (`{experiment}`)"
    seeds = data.get("seeds", "?")
    print(f"### {title}\n")
    if experiment == "dtn":
        print(f"seeds: {seeds} · users/node: {data.get('sessions_per_node', '?')}\n")
    else:
        print(f"seeds: {seeds}\n")
    print(
        "| point | sim (s) | wall (s) | sim events | events/sec "
        "| events elided | per-protocol delivery "
        "| users served | trust iso/fp |"
    )
    print(
        "|:------|--------:|---------:|-----------:|-----------:"
        "|--------------:|:----------------------"
        "|:-------------|:-------------|"
    )
    points = data.get("points", [])
    if not isinstance(points, list):
        points = []
    points = [p for p in points if isinstance(p, dict)]
    if not points:
        # Placeholder row: the budget tripped before the first point (or
        # the schema changed) — keep the table well-formed either way.
        print("| _no points recorded_ | — | — | — | — | — | — | — | — |")
    for point in points:
        # MAC slot/DIFS elision plus the phy receptions the batched
        # delivery engine resolved without their own event (elided
        # outright or coalesced into a group sweep).
        elided = (
            _num(point.get("mac_slots_elided"))
            + _num(point.get("mac_difs_elided"))
            + _num(point.get("phy_rx_elided"))
            + _num(point.get("phy_rx_coalesced"))
        )
        # Simulated seconds per point (scale_smoke caps node-seconds, so
        # huge points run shorter); absent from dtn/older BENCH files.
        sim_s = point.get("sim_duration_s")
        sim_cell = f"{_num(sim_s):g}" if isinstance(sim_s, (int, float)) else "—"
        print(
            f"| {_point_label(point)} "
            f"| {sim_cell} "
            f"| {_num(point.get('wall_clock_s')):.2f} "
            f"| {_num(point.get('sim_events')):,} "
            f"| {_num(point.get('events_per_sec')):,.0f} "
            f"| {elided:,} "
            f"| {_fmt_protocols(point)} "
            f"| {_fmt_users_served(point)} "
            f"| {_fmt_trust(point)} |"
        )

    # Event-mix table: share of executed events per category, so elision
    # targets (and regressions) are visible straight from the job page.
    # Older/partial BENCH files have no event_mix — skip with a note
    # instead of asserting the full schema.
    categories = []
    for point in points:
        mix = point.get("event_mix")
        if not isinstance(mix, dict):
            continue
        for name in mix:
            if name not in categories:
                categories.append(name)
    if categories:
        print("\n#### Event mix (executed events per category)\n")
        header = " | ".join(categories)
        print(f"| point | {header} |")
        print("|:------|" + "|".join("---:" for _ in categories) + "|")
        for point in points:
            mix = point.get("event_mix")
            if not isinstance(mix, dict):
                mix = {}
            total = max(int(_num(point.get("sim_events"))), 1)
            cells = []
            for name in categories:
                entry = mix.get(name)
                executed = int(_num(entry.get("executed"))) if isinstance(entry, dict) else 0
                cells.append(f"{executed:,} ({100.0 * executed / total:.0f}%)")
            print(f"| {point.get('nodes', '?')} | " + " | ".join(cells) + " |")
    elif points:
        print("\n_event_mix absent from every point (pre-PR-5 BENCH file?) — "
              "per-category table skipped_")
    return 0


if __name__ == "__main__":
    sys.exit(main())
