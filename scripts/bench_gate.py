#!/usr/bin/env python3
"""Bench regression gate over the BENCH_sim.json trajectory.

Usage: bench_gate.py <committed BENCH_sim.json> <fresh BENCH_sim.json>

The committed file is the repo's perf trajectory (every `tap-sim` run
appends a record); the fresh file is produced by the CI run under test.
The gate fails when any figure of the fresh run's *last* record is more
than REGRESSION_FACTOR slower — or more than MEMORY_FACTOR heavier in
its per-figure RSS increment (`rss_delta_mb`, the VmHWM growth the
figure is responsible for) — than the best committed record with the same configuration
(preset, nodes, tunnels, seed, threads). A figure carrying delivery
fractions (`sp_delivered_frac` / `mp_delivered_frac`, recorded by the
resilience figures at their reference fault permille) must stay within
DELIVERED_FRAC_SLACK of the best committed fraction — a robustness
regression gates exactly like a perf one. Figures with no comparable
committed baseline — e.g. a figure added in the PR under test — are
reported on stderr and skipped, so the gate never blocks new experiments.

A missing, truncated, or otherwise malformed trajectory file is a hard
failure: a gate that cannot read its baseline must not report success.

Small absolute slacks keep sub-second figures (and small-footprint runs)
from tripping the gate on scheduler/allocator noise alone.
"""

import json
import sys

REGRESSION_FACTOR = 2.0
ABSOLUTE_SLACK_S = 0.5
MEMORY_FACTOR = 2.0
ABSOLUTE_SLACK_MB = 50.0
# Quality floor for the resilience figures' delivery fractions (recorded
# at the sweep's reference fault permille): the fresh run must deliver at
# least the best committed fraction minus this absolute slack. Fractions
# live in [0, 1], so a ratio-style factor would be meaningless near 1.0.
DELIVERED_FRAC_FIELDS = ("sp_delivered_frac", "mp_delivered_frac")
DELIVERED_FRAC_SLACK = 0.05


def load_trajectory(path, role):
    """Parse a trajectory file, failing loudly on anything malformed."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        sys.exit(f"bench_gate: cannot read {role} trajectory {path!r}: {e}")
    try:
        records = json.loads(raw)
    except json.JSONDecodeError as e:
        sys.exit(
            f"bench_gate: {role} trajectory {path!r} is not valid JSON "
            f"(truncated write?): {e}"
        )
    if not isinstance(records, list):
        sys.exit(f"bench_gate: {role} trajectory {path!r} must be a JSON array of run records")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not isinstance(rec.get("figures"), list):
            sys.exit(
                f"bench_gate: {role} trajectory {path!r}: record {i} has no "
                f"'figures' array — malformed trajectory"
            )
    return records


def config_key(record):
    return (
        record.get("preset"),
        record.get("nodes"),
        record.get("tunnels"),
        record.get("seed"),
        record.get("threads"),
    )


def best_metric(records, key, field):
    """figure name -> lowest committed `field` among records matching key."""
    best = {}
    for rec in records:
        if config_key(rec) != key:
            continue
        for fig in rec["figures"]:
            if field not in fig:
                continue
            value = float(fig[field])
            if value <= 0.0:
                continue
            name = fig["name"]
            best[name] = min(best.get(name, value), value)
    return best


def peak_metric(records, key, field):
    """figure name -> highest committed `field` among records matching key.

    The counterpart of `best_metric` for fields where *bigger* is better
    and the gate holds a floor rather than a ceiling.
    """
    best = {}
    for rec in records:
        if config_key(rec) != key:
            continue
        for fig in rec["figures"]:
            if field not in fig:
                continue
            value = float(fig[field])
            if value <= 0.0:
                continue
            name = fig["name"]
            best[name] = max(best.get(name, value), value)
    return best


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <committed BENCH_sim.json> <fresh BENCH_sim.json>")
    committed = load_trajectory(sys.argv[1], "committed")
    fresh_records = load_trajectory(sys.argv[2], "fresh")
    if not fresh_records:
        sys.exit("bench_gate: fresh trajectory is empty")

    fresh = fresh_records[-1]
    key = config_key(fresh)
    wall_baseline = best_metric(committed, key, "wall_s")
    rss_baseline = best_metric(committed, key, "rss_delta_mb")
    frac_baseline = {f: peak_metric(committed, key, f) for f in DELIVERED_FRAC_FIELDS}
    if not wall_baseline:
        print(
            f"bench_gate: note: no committed record matches config {key}; "
            f"every figure below is skipped, not passed",
            file=sys.stderr,
        )

    failures, skipped = [], []
    for fig in fresh["figures"]:
        name, wall = fig["name"], float(fig["wall_s"])
        if name not in wall_baseline:
            reason = (
                f"no committed record with config {key}"
                if not wall_baseline
                else "figure absent from every committed record at this config"
            )
            skipped.append((name, reason))
            continue
        base = wall_baseline[name]
        limit = max(REGRESSION_FACTOR * base, base + ABSOLUTE_SLACK_S)
        verdict = "FAIL" if wall > limit else "ok"
        print(f"{verdict:>4}  {name:<12} {wall:8.3f}s  (baseline {base:.3f}s, limit {limit:.3f}s)")
        if wall > limit:
            failures.append(f"{name} (wall)")

        for field in DELIVERED_FRAC_FIELDS:
            frac = fig.get(field)
            if frac is None:
                continue
            if name not in frac_baseline[field]:
                skipped.append((name, f"no committed {field} baseline at this config"))
                continue
            frac = float(frac)
            frac_base = frac_baseline[field][name]
            floor = frac_base - DELIVERED_FRAC_SLACK
            verdict = "FAIL" if frac < floor else "ok"
            print(
                f"{verdict:>4}  {name:<12} {frac:8.3f} {field} "
                f"(baseline {frac_base:.3f}, floor {floor:.3f})"
            )
            if frac < floor:
                failures.append(f"{name} ({field})")

        rss = fig.get("rss_delta_mb")
        if rss is None or name not in rss_baseline:
            if rss is None:
                skipped.append((name, "fresh record carries no rss_delta_mb"))
            else:
                skipped.append((name, "no committed rss_delta_mb baseline at this config"))
            continue
        rss = float(rss)
        rss_base = rss_baseline[name]
        rss_limit = max(MEMORY_FACTOR * rss_base, rss_base + ABSOLUTE_SLACK_MB)
        verdict = "FAIL" if rss > rss_limit else "ok"
        print(
            f"{verdict:>4}  {name:<12} {rss:8.1f}MB (baseline {rss_base:.1f}MB, "
            f"limit {rss_limit:.1f}MB)"
        )
        if rss > rss_limit:
            failures.append(f"{name} (rss)")

    for name, reason in skipped:
        print(f"bench_gate: skip {name}: {reason}", file=sys.stderr)

    if failures:
        sys.exit(
            f"bench_gate: regression beyond {REGRESSION_FACTOR}x wall / "
            f"{MEMORY_FACTOR}x rss / "
            f"{DELIVERED_FRAC_SLACK} delivered-frac slack "
            f"in: {', '.join(failures)}"
        )
    print("bench_gate: no figure regressed beyond the thresholds")


if __name__ == "__main__":
    main()
