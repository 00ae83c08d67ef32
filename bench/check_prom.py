#!/usr/bin/env python3
"""Validator for the telemetry layer's Prometheus text exposition.

CI pipes the output of `epidemic_sim --prom=FILE` / the swarm smoke's
--prom file through this instead of promtool (not installed in the
image). Checks the subset of the exposition format the exporter uses:

  * every sample line parses as  name[{label,...}] value
  * metric/label names are legal ([a-zA-Z_:][a-zA-Z0-9_:]*)
  * every sample is preceded by # HELP and # TYPE headers for its family
    (histogram sample suffixes _bucket/_sum/_count belong to the family)
  * each family's lines form one group: a family that reappears after
    another family's lines is an error
  * the TYPE is one of counter|gauge|histogram and sample suffixes match
  * histogram buckets are cumulative (counts never decrease as le grows),
    end in le="+Inf", and the +Inf count equals _count
  * counter values are non-negative

Exit 0 = valid, 1 = problems (each printed), 2 = usage/IO error.

    python3 bench/check_prom.py /tmp/ltnc.prom
    ./build/examples/epidemic_sim --prom=/dev/stdout | \
        python3 bench/check_prom.py -
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name{label="value",...} value   (labels optional; value = float literal)
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')
SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(name: str, types: dict) -> str:
    """Histogram samples use suffixed names; map them back to the family."""
    for suffix in SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return name


def parse_labels(raw, errors, lineno):
    labels = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        m = LABEL_RE.match(part)
        if not m:
            errors.append(f"line {lineno}: bad label syntax: {part!r}")
            continue
        labels[m.group(1)] = m.group(2)
    return labels


def check(lines):
    errors = []
    helps, types = {}, {}
    # (family, frozenset(labels minus le)) -> list of (le, count, lineno)
    buckets = {}
    counts = {}  # same key -> _count value
    samples = 0
    current, closed = None, set()  # the family being read, and those done

    def enter(family, lineno):
        nonlocal current
        if family == current:
            return
        if family in closed:
            errors.append(f"line {lineno}: family {family} reappears after "
                          f"{current}; a family's lines must be one group")
        if current is not None:
            closed.add(current)
        current = family

    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not NAME_RE.match(name):
                    errors.append(f"line {lineno}: bad metric name {name!r}")
                enter(name, lineno)
                if parts[1] == "HELP":
                    helps[name] = True
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in ("counter", "gauge", "histogram"):
                        errors.append(
                            f"line {lineno}: unknown TYPE {kind!r} for {name}")
                    if name in types:
                        errors.append(f"line {lineno}: duplicate TYPE {name}")
                    types[name] = kind
            continue  # other comments are legal

        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        samples += 1
        name = m.group("name")
        labels = parse_labels(m.group("labels") or "", errors, lineno)
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: bad value {m.group('value')!r}")
            continue

        fam = family_of(name, types)
        enter(fam, lineno)
        if fam not in types:
            errors.append(f"line {lineno}: sample {name} has no # TYPE")
            continue
        if fam not in helps:
            errors.append(f"line {lineno}: sample {name} has no # HELP")
        kind = types[fam]
        if kind == "histogram":
            if name == fam:
                errors.append(
                    f"line {lineno}: histogram {fam} sample lacks "
                    f"_bucket/_sum/_count suffix")
            key = (fam, frozenset(
                (k, v) for k, v in labels.items() if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {lineno}: _bucket without le label")
                    continue
                le = (math.inf if labels["le"] == "+Inf"
                      else float(labels["le"]))
                buckets.setdefault(key, []).append((le, value, lineno))
            elif name.endswith("_count"):
                counts[key] = (value, lineno)
        elif kind == "counter" and value < 0:
            errors.append(f"line {lineno}: counter {name} is negative")
        if name == fam and kind != "histogram" and "le" in labels:
            errors.append(f"line {lineno}: non-histogram {name} has le label")

    for (fam, _), series in buckets.items():
        # Emission order is ascending le; verify rather than re-sort so an
        # out-of-order exposition fails too.
        les = [le for le, _, _ in series]
        if les != sorted(les):
            errors.append(f"{fam}: buckets not in ascending le order")
        vals = [v for _, v, _ in series]
        if any(b < a for a, b in zip(vals, vals[1:])):
            errors.append(f"{fam}: bucket counts not cumulative")
        if not series or not math.isinf(series[-1][0]):
            errors.append(f"{fam}: bucket series does not end at le=\"+Inf\"")

    for key, (count_value, lineno) in counts.items():
        series = buckets.get(key)
        if not series:
            errors.append(
                f"line {lineno}: {key[0]}_count without _bucket series")
        elif math.isinf(series[-1][0]) and series[-1][1] != count_value:
            errors.append(
                f"{key[0]}: le=\"+Inf\" bucket {series[-1][1]} != "
                f"_count {count_value}")

    return errors, samples


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        stream = sys.stdin if argv[1] == "-" else open(argv[1])
    except OSError as e:
        print(f"check_prom: {e}", file=sys.stderr)
        return 2
    with stream:
        errors, samples = check(stream)
    if errors:
        for e in errors:
            print(f"check_prom: {e}", file=sys.stderr)
        return 1
    if samples == 0:
        print("check_prom: no samples found", file=sys.stderr)
        return 1
    print(f"check_prom: OK ({samples} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
