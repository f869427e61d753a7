#!/usr/bin/env python3
"""Validate a cspsim --trace-events file against the Chrome trace-event
schema subset the simulator emits, so CI catches a malformed stream
before anyone drags it into Perfetto.

Checks, in order:

  1. The file parses as JSON and has the object form
     {"displayTimeUnit": "ms", "traceEvents": [...]}.
  2. Every event carries the required fields for its phase:
       M       metadata (process_name / thread_name)
       b / e   async lifecycle spans (cat, id, ts, pid, tid)
       i       instants (ts, scope "t")
       C       counter samples (ts, numeric args)
  3. Async begin/end events balance per (cat, id): every "e" closes an
     open "b", and any span still open at EOF is an error (the writer
     must end Useless spans at finish()).
  4. Timestamps are non-negative and counters' args are numeric.
  5. Known counter tracks carry exactly their expected series: the
     tracker's "mshr" track {l1, l2, inflight_pf}, the "bandit" track
     {epsilon, accuracy}, the learning observatory's "policy" track
     {epsilon, entropy}, and the memory observatory's "mem.l1" /
     "mem.l2" miss-class tracks {compulsory, capacity, conflict,
     pollution}.

--require NAME (repeatable) additionally fails the check when the
named counter track never appears — CI uses it to assert that a
--learn-out run actually produced the "policy" track. A required name
is also satisfied by any "NAME."-prefixed track, so --require mem
asserts the mem.l1/mem.l2 miss-class tracks of a --mem-out run.

Exit 0 and a one-line summary on success; exit 1 with the first few
violations otherwise.

Usage: python3 tools/check_trace_events.py TRACE.json [--require NAME]
"""

import collections
import json
import sys

REQUIRED_BY_PHASE = {
    "M": ("name", "ph", "pid"),
    "b": ("name", "cat", "ph", "id", "ts", "pid", "tid"),
    "e": ("name", "cat", "ph", "id", "ts", "pid", "tid"),
    "i": ("name", "ph", "ts", "pid", "tid", "s"),
    "C": ("name", "ph", "ts", "pid", "args"),
}

# Counter tracks with a fixed series set: every sample must carry
# exactly these arg keys (a renamed series would silently produce an
# empty Perfetto track).
COUNTER_TRACK_ARGS = {
    "mshr": {"l1", "l2", "inflight_pf"},
    "bandit": {"epsilon", "accuracy"},
    "policy": {"epsilon", "entropy"},
    "mem.l1": {"compulsory", "capacity", "conflict", "pollution"},
    "mem.l2": {"compulsory", "capacity", "conflict", "pollution"},
}


def check(path, require_counters=()):
    errors = []
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"], {}

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], {}
    if doc.get("displayTimeUnit") != "ms":
        errors.append("missing displayTimeUnit=ms")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return errors + ["traceEvents is not an array"], {}

    open_spans = collections.Counter()
    phases = collections.Counter()
    counter_tracks = collections.Counter()
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {n}: not an object")
            continue
        ph = ev.get("ph")
        phases[ph] += 1
        required = REQUIRED_BY_PHASE.get(ph)
        if required is None:
            errors.append(f"event {n}: unexpected phase {ph!r}")
            continue
        missing = [k for k in required if k not in ev]
        if missing:
            errors.append(f"event {n} (ph={ph}): missing {missing}")
            continue
        if "ts" in ev and not (isinstance(ev["ts"], (int, float))
                               and ev["ts"] >= 0):
            errors.append(f"event {n}: bad ts {ev['ts']!r}")
        if ph == "b":
            open_spans[(ev["cat"], ev["id"])] += 1
        elif ph == "e":
            key = (ev["cat"], ev["id"])
            if open_spans[key] <= 0:
                errors.append(f"event {n}: 'e' with no open 'b' "
                              f"for cat={key[0]} id={key[1]}")
            else:
                open_spans[key] -= 1
        elif ph == "i" and ev["s"] != "t":
            errors.append(f"event {n}: instant scope {ev['s']!r} != 't'")
        elif ph == "C":
            bad = {k: v for k, v in ev["args"].items()
                   if not isinstance(v, (int, float))}
            if bad:
                errors.append(f"event {n}: non-numeric counter args {bad}")
            counter_tracks[ev["name"]] += 1
            expected = COUNTER_TRACK_ARGS.get(ev["name"])
            if expected is not None and set(ev["args"]) != expected:
                errors.append(
                    f"event {n}: counter {ev['name']!r} args "
                    f"{sorted(ev['args'])} != {sorted(expected)}")

    unclosed = sum(open_spans.values())
    if unclosed:
        errors.append(f"{unclosed} async span(s) never closed")
    if phases["b"] == 0:
        errors.append("no lifecycle spans (ph=b) in trace")
    for name in require_counters:
        prefixed = name + "."
        if counter_tracks[name] == 0 and not any(
                track.startswith(prefixed) and count > 0
                for track, count in counter_tracks.items()):
            errors.append(f"required counter track {name!r} never "
                          f"appeared")
    return errors, phases


def main():
    args = sys.argv[1:]
    path = None
    require = []
    while args:
        arg = args.pop(0)
        if arg == "--require":
            if not args:
                print("--require needs a counter-track name",
                      file=sys.stderr)
                return 2
            require.append(args.pop(0))
        elif path is None:
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2
    errors, phases = check(path, require)
    if errors:
        for err in errors[:20]:
            print(f"FAIL {path}: {err}", file=sys.stderr)
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    total = sum(phases.values())
    summary = ", ".join(f"{ph}={phases[ph]}"
                        for ph in ("M", "b", "e", "i", "C") if phases[ph])
    print(f"OK {path}: {total} events ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
