"""Test helper: read a result CSV back into its header lines and rows."""

import csv


def read_result_csv(path: str) -> tuple[dict, list[dict]]:
    """Parse a results CSV back into (meta, rows); values stay strings."""
    meta: dict = {}
    data_lines = []
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                data_lines.append(line)
    return meta, list(csv.DictReader(data_lines))
