"""File-backed cusp form coefficient cache.

Plain text for auditability: a versioned header line followed by `n a_n`
pairs in decimal. A header mismatch (version or generating convention) forces
regeneration rather than silently mixing coefficient sources. Each write goes
to its own temporary file that then atomically replaces the cache, so
concurrent CLI invocations never see or leave a partial file.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .modular import hecke_expand

CACHE_VERSION = "v1"
CONVENTION = "hecke"


class CacheFormatError(ValueError):
    pass


@dataclass
class CoefficientCache:
    path: Path

    def header(self, max_n: int) -> str:
        return f"cubesum-cache {CACHE_VERSION} convention={CONVENTION} max={max_n}"

    def load(self) -> dict[int, int] | None:
        """Coefficients from disk, or None when absent/stale (never raises for those)."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return None
        lines = text.splitlines()
        if not lines:
            return None
        head = lines[0].split()
        if (
            len(head) != 4
            or head[0] != "cubesum-cache"
            or head[1] != CACHE_VERSION
            or head[2] != f"convention={CONVENTION}"
            or not head[3].startswith("max=")
        ):
            return None
        try:
            max_n = int(head[3][4:])
            out = {}
            for line in lines[1:]:
                if not line.strip():
                    continue
                n_s, a_s = line.split()
                out[int(n_s)] = int(a_s)
        except ValueError as exc:
            raise CacheFormatError(f"corrupt cache file {self.path}: {exc}") from exc
        if sorted(out) != list(range(1, max_n + 1)):
            raise CacheFormatError(f"cache file {self.path} is missing entries")
        return out

    def write(self, coeffs: dict[int, int]) -> None:
        max_n = max(coeffs)
        lines = [self.header(max_n)]
        lines += [f"{n} {coeffs[n]}" for n in range(1, max_n + 1)]
        payload = "\n".join(lines) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise

    def get(self, max_n: int) -> dict[int, int]:
        """Coefficients a_1..a_max_n, regenerating the file when needed."""
        if max_n < 1:
            raise ValueError(f"coefficient count (--max) must be at least 1, not {max_n}")
        cached = self.load()
        if cached is not None and len(cached) >= max_n:
            return {n: cached[n] for n in range(1, max_n + 1)}
        series = hecke_expand(max_n)
        coeffs = {n: series[n] for n in range(1, max_n + 1)}
        self.write(coeffs)
        return coeffs

    def clear(self) -> bool:
        try:
            self.path.unlink()
            return True
        except FileNotFoundError:
            return False


def default_cache_path() -> Path:
    """The cache file under the home directory; the CLI's CUBESUM_CACHE and
    --cache-file override it."""
    return Path.home() / ".cache" / "cubesum" / "coefficients.txt"
