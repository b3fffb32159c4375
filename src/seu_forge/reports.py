"""The byte format of every report file: JSON with sorted keys, a one-space
indent and a trailing newline; JSON Lines; CSV in the csv module's default
dialect, whose rows end in CRLF. (Only ``multibit_reps.json`` is compact JSON
without a trailing newline.)"""

import csv
import json


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def write_compact_json(path, obj):
    """JSON with sorted keys, no indent and no trailing newline: ``multibit_reps.json``."""
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def write_lines(path, lines):
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])
