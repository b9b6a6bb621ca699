"""Reproducibility manifests for experiment runs.

A manifest records what a command ran, which inputs it consumed, and the
content hash of every artifact it produced. Two runs with the same
arguments and seed must agree on all recorded hashes. The one
nondeterministic artifact column is the wall-clock elapsed_ms field of
optimizer traces; those files are hashed with the elapsed column stripped
and the manifest marks the hash scope accordingly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

SCOPE_FULL = "full"
SCOPE_NO_ELAPSED = "excluding-elapsed-ms"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_csv_without_last_column(path) -> str:
    """Hash a CSV's content with the final column of every line removed."""
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split(",")
            h.update(",".join(cells[:-1]).encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


@dataclass
class RunManifest:
    """Inputs, outputs, and configuration of one command invocation."""

    command: list[str]
    seed: int | None = None
    config: dict = field(default_factory=dict)
    datasets: dict[str, str] = field(default_factory=dict)
    outputs: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def add_dataset(self, path) -> None:
        self.datasets[os.fspath(path)] = sha256_file(path)

    def add_output(self, path, scope: str = SCOPE_FULL, sha256: str | None = None) -> None:
        """Record an output file with its hash under ``scope``.

        ``sha256``, if given, is the file's full-scope digest as its writer
        computed it (``LinearModel.save`` returns one), so a large output is
        not read back to hash it.
        """
        if sha256 is not None:
            if scope != SCOPE_FULL:
                raise ValueError(f"a precomputed sha256 is a {SCOPE_FULL!r} hash, not {scope!r}")
            digest = sha256
        elif scope == SCOPE_FULL:
            digest = sha256_file(path)
        elif scope == SCOPE_NO_ELAPSED:
            digest = sha256_csv_without_last_column(path)
        else:
            raise ValueError(f"unknown hash scope {scope!r}")
        self.outputs.append(
            {"path": os.fspath(path), "sha256": digest, "scope": scope}
        )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": list(self.command),
            "seed": self.seed,
            "config": self.config,
            "datasets": self.datasets,
            "outputs": self.outputs,
            "timings": self.timings,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
