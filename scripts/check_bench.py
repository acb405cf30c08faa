#!/usr/bin/env python3
"""Bench-regression gate: compare bench --json runs against a baseline.

Usage:
  check_bench.py --current bench_e10.json [--current bench_e12.json ...]
                 --baseline bench/bench_baseline.json
                 [--tolerance 0.2] [--metric "query-steps/s"]
                 [--telemetry telemetry.json ...] [--emit-summary]
  check_bench.py --current bench_e10.json [--current ...]
                 --write-baseline bench/bench_baseline.json
  check_bench.py --telemetry telemetry.json --emit-summary

--emit-summary appends a markdown current-vs-baseline table (with Δ%) to
$GITHUB_STEP_SUMMARY — or stdout when unset — so PR reviewers see throughput
deltas without reading job logs.

--telemetry (repeatable) reads telemetry JSON documents as written by
`topk_sim --telemetry` or any bench's `--telemetry` flag (schema
"topkmon.telemetry.v1", src/telemetry) and renders their per-phase step
profiles into the summary. Unknown schema versions are a hard error (exit 2):
silently misreading a reshaped document would produce a wrong-but-plausible
table. With --telemetry alone (no --current), only the telemetry report is
produced — no baseline gating.

--current may repeat; the files' tables are concatenated (one baseline can
gate several benches). Rows are matched across files by their key columns
(every column that is not a measurement). Two classes of checks:

  * deterministic counters ("messages", "serial messages", "shared probe
    msgs", "identical", "expirations", "opt phases", "checksum", …) must
    match EXACTLY — the simulator is bit-reproducible across machines, so
    any drift is a real behavioral change, not noise;
  * the throughput metric (default "query-steps/s") must not regress below
    (1 - tolerance) x baseline. Hardware differs between the machine that
    wrote the baseline and the one checking, so this gate only means much
    when CI refreshes the baseline on main pushes (see .github/workflows):
    then both sides ran on the same runner class.

Baseline tables whose title matches no table in the current run are skipped
with a note (not a failure): a gate invocation may legitimately run a subset
of the benches the baseline covers. Rows missing from a table that IS
present still fail — that's a schema regression of the bench itself.

Exit status: 0 = pass, 1 = regression/mismatch, 2 = usage or file error.
"""

from __future__ import annotations

import argparse
import json
import sys

# Columns whose values are deterministic counters: exact match required.
# "allocs/step" is the zero-allocation invariant of the hot-path bench
# (bench_e13_hotpath): fault-free steady-state rows must stay exactly 0
# ("n/a" on churn rows, "off" when the counting hook is compiled out — gate
# and baseline must agree on the build flavor, see .github/workflows).
# "repairs"/"rebuilds" pin the order-maintenance path choice of the churn
# bench (bench_e14_churn): outputs are identical on every path, so drift here
# is a deliberate policy change that must go through a baseline refresh.
# "broadcasts" gates the k-select structure's floor-move economics
# (bench_e16_kselect): the band ladder pays broadcasts only on refills and
# compactions, so a broadcast-count drift is a maintenance-policy change.
# "checksum" hashes a stream generator's final vector and Rng state
# (bench_e13_hotpath's generator table): a faster generator must draw and
# produce exactly the same values.
EXACT_COLUMNS = {"messages", "serial messages", "shared probe msgs", "identical",
                 "expirations", "opt phases", "allocs/step", "repairs", "rebuilds",
                 "broadcasts", "checksum"}
# Columns that are wall-clock measurements or derived ratios: never compared
# directly (the throughput metric below is the one gated, with tolerance).
NOISY_COLUMNS = {"engine ms", "serial ms", "speedup", "ns/step", "query-steps/s",
                 "elapsed (s)", "steps / s", "msgs/step", "lost/step",
                 "stale/step", "ratio"}


# Telemetry JSON schema versions this script understands (keep in sync with
# telemetry::kTelemetrySchema in src/telemetry/telemetry.hpp).
KNOWN_TELEMETRY_SCHEMAS = {"topkmon.telemetry.v1"}


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_telemetry(path: str) -> dict:
    """Loads a telemetry JSON document, hard-failing on unknown schemas."""
    doc = load(path)
    schema = doc.get("schema")
    if schema not in KNOWN_TELEMETRY_SCHEMAS:
        print(f"check_bench: {path}: unknown telemetry schema {schema!r} "
              f"(this script understands {sorted(KNOWN_TELEMETRY_SCHEMAS)}); "
              "refusing to guess at a reshaped document — update "
              "scripts/check_bench.py alongside telemetry::kTelemetrySchema",
              file=sys.stderr)
        sys.exit(2)
    return doc


def telemetry_summary_lines(docs: list[tuple[str, dict]]) -> list[str]:
    """Markdown per-phase timing tables, one per telemetry document."""
    lines = ["## Telemetry: per-phase step profile", ""]
    for path, doc in docs:
        source = doc.get("source", "?")
        lines.append(f"### {source} (`{path}`)")
        lines.append("")
        if not doc.get("telemetry_enabled", True):
            lines.append("_built with -DTOPKMON_TELEMETRY=OFF — phase timers "
                         "compiled out_")
            lines.append("")
        phases = doc.get("profiler", {}).get("phases", [])
        if not phases:
            lines.append("_no phase samples recorded_")
            lines.append("")
            continue
        grand = sum(p.get("total_ns", 0) for p in phases) or 1
        lines.append("| phase | calls | total ms | ns/call | share |")
        lines.append("|---|---|---|---|---|")
        for p in sorted(phases, key=lambda p: -p.get("total_ns", 0)):
            total_ns = p.get("total_ns", 0)
            calls = p.get("calls", 0)
            per_call = total_ns / calls if calls else 0.0
            lines.append(f"| {p.get('phase', '?')} | {calls} "
                         f"| {total_ns / 1e6:.2f} | {per_call:.0f} "
                         f"| {total_ns / grand:.1%} |")
        lines.append("")
        lines.append("_shares are of inclusive time (nested phases count into "
                     "their enclosing scope)_")
        lines.append("")
    return lines


def row_key(row: dict, metric: str) -> tuple:
    """Key columns = everything that is neither noisy nor the gated metric."""
    return tuple(
        (k, v) for k, v in sorted(row.items())
        if k != metric and k not in NOISY_COLUMNS and k not in EXACT_COLUMNS
    )


def index_rows(doc: dict, metric: str) -> dict:
    out = {}
    for table in doc.get("tables", []):
        for row in table.get("rows", []):
            out[(table.get("title", ""), row_key(row, metric))] = row
    return out


def merge(docs: list[dict]) -> dict:
    """Concatenates the tables of several bench JSON files (params: first)."""
    out = {"params": docs[0].get("params", {}), "tables": []}
    for doc in docs:
        out["tables"].extend(doc.get("tables", []))
    return out


def emit_summary(current: dict, base_rows: dict, metric: str,
                 failures: list[str],
                 telemetry: list[tuple[str, dict]]) -> None:
    """Appends a markdown perf report to $GITHUB_STEP_SUMMARY (stdout when the
    variable is unset, e.g. local runs) so PR reviewers see throughput deltas
    without reading job logs."""
    import os

    lines = []
    if current.get("tables"):
        lines += ["## Bench results", ""]
    for table in current.get("tables", []):
        title = table.get("title", "")
        rows = table.get("rows", [])
        if not rows:
            continue
        lines.append(f"### {title}")
        lines.append("")
        header = list(rows[0].keys())
        cols = [c for c in header if c != metric]
        lines.append("| " + " | ".join(cols + [metric, "baseline", "Δ"]) + " |")
        lines.append("|" + "---|" * (len(cols) + 3))
        for row in rows:
            base = base_rows.get((title, row_key(row, metric)))
            cur_v = row.get(metric)
            base_v = base.get(metric) if base else None
            delta = ""
            if cur_v is not None and base_v is not None:
                try:
                    delta = f"{(float(cur_v) / float(base_v) - 1.0):+.1%}"
                except (ValueError, ZeroDivisionError):
                    delta = "—"
            cells = [str(row.get(c, "")) for c in cols]
            cells += [str(cur_v) if cur_v is not None else "—",
                      str(base_v) if base_v is not None else "—", delta]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    if failures:
        lines.append(f"**{len(failures)} gate failure(s):**")
        lines.extend(f"- {f}" for f in failures)
        lines.append("")
    if telemetry:
        lines.extend(telemetry_summary_lines(telemetry))
    text = "\n".join(lines) + "\n"
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", action="append", default=[],
                    help="fresh bench --json output (repeatable)")
    ap.add_argument("--telemetry", action="append", default=[], metavar="FILE",
                    help="telemetry JSON document (topk_sim/bench --telemetry "
                         "output, repeatable); rendered as a per-phase timing "
                         "table in the summary")
    ap.add_argument("--baseline", help="checked-in baseline to compare against")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write/refresh the baseline from --current and exit")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional throughput regression (default 0.2)")
    ap.add_argument("--metric", default="query-steps/s",
                    help="throughput column gated with tolerance")
    ap.add_argument("--emit-summary", action="store_true",
                    help="append a markdown perf table to $GITHUB_STEP_SUMMARY "
                         "(stdout when unset)")
    args = ap.parse_args()

    if not args.current and not args.telemetry:
        ap.error("at least one of --current / --telemetry is required")

    # Schema-checked up front: a bad telemetry file must fail (exit 2) even
    # when the bench gate itself would pass.
    telemetry = [(path, load_telemetry(path)) for path in args.telemetry]

    if not args.current:
        # Telemetry-only invocation: no gating, just the report.
        if args.emit_summary:
            emit_summary({}, {}, args.metric, [], telemetry)
        for path, doc in telemetry:
            phases = doc.get("profiler", {}).get("phases", [])
            print(f"check_bench: {path}: telemetry OK "
                  f"(source={doc.get('source', '?')}, {len(phases)} active "
                  f"phases, {len(doc.get('metrics', []))} metrics)")
        return 0

    current = merge([load(path) for path in args.current])

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
        print(f"check_bench: baseline written to {args.write_baseline}")
        return 0

    if not args.baseline:
        ap.error("one of --baseline / --write-baseline is required")

    baseline = load(args.baseline)
    base_rows = index_rows(baseline, args.metric)
    cur_rows = index_rows(current, args.metric)
    cur_titles = {t.get("title", "") for t in current.get("tables", [])}

    failures: list[str] = []
    skipped_titles: set[str] = set()
    checked = 0
    for key, base in base_rows.items():
        title = key[0]
        if title not in cur_titles:
            # This bench wasn't part of the current invocation; skip its
            # baseline rows rather than failing (see module docstring).
            skipped_titles.add(title)
            continue
        cur = cur_rows.get(key)
        label = ", ".join(f"{k}={v}" for k, v in key[1])
        if cur is None:
            failures.append(f"row missing from current run: [{label}]")
            continue

        # A counter the current run reports but the baseline lacks would
        # otherwise be silently ungated — fail loudly and name the metric so
        # the fix (refresh or regenerate the baseline) is obvious.
        for col in sorted((EXACT_COLUMNS | {args.metric}) & cur.keys() - base.keys()):
            failures.append(
                f"[{label}] metric missing from baseline: '{col}' — the current "
                f"run reports it but {args.baseline} has no entry to gate it "
                "against; regenerate the baseline to cover it")

        for col in EXACT_COLUMNS & base.keys() & cur.keys():
            if base[col] != cur[col]:
                failures.append(
                    f"[{label}] {col}: {cur[col]} != baseline {base[col]} "
                    "(deterministic counter — behavioral change)")
            checked += 1

        if args.metric in base and args.metric in cur:
            b, c = float(base[args.metric]), float(cur[args.metric])
            floor = b * (1.0 - args.tolerance)
            if c < floor:
                failures.append(
                    f"[{label}] {args.metric}: {c:.0f} < {floor:.0f} "
                    f"(baseline {b:.0f} - {args.tolerance:.0%})")
            elif c > b * (1.0 + args.tolerance):
                print(f"check_bench: note: [{label}] {args.metric} improved "
                      f"{b:.0f} -> {c:.0f}; consider refreshing the baseline")
            checked += 1

    # The converse direction: anything the current run produced that the
    # baseline cannot gate is an error, not a silent skip — a new bench, a
    # new grid row or a new counter must land together with its baseline
    # entry (run --write-baseline, see README "Refreshing bench_baseline").
    base_titles = {t.get("title", "") for t in baseline.get("tables", [])}
    missing_tables: set[str] = set()
    for (title, key), _row in cur_rows.items():
        if title not in base_titles:
            missing_tables.add(title)
        elif (title, key) not in base_rows:
            label = ", ".join(f"{k}={v}" for k, v in key)
            failures.append(
                f"[{label}] row missing from baseline table '{title}' — "
                "regenerate the baseline to gate it")
    for title in sorted(missing_tables):
        failures.append(
            f"table missing from baseline: '{title}' — the current run "
            "produced it but nothing gates it; regenerate the baseline")

    if not base_rows:
        failures.append("baseline contains no rows")
    elif checked == 0 and not failures:
        failures.append("no baseline table matched the current run "
                        "(every bench was skipped — wrong --current files?)")

    for title in sorted(skipped_titles):
        print(f"check_bench: note: baseline table not in this run, skipped: {title}")
    if args.emit_summary:
        emit_summary(current, base_rows, args.metric, failures, telemetry)
    if failures:
        print(f"check_bench: FAIL — {len(failures)} issue(s) over {checked} checks:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"check_bench: OK — {checked} checks against {len(base_rows)} baseline rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
