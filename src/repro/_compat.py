"""What is left of the 1.x deprecation layer: one no-op."""

from contextlib import contextmanager
from typing import Iterator


# Sole importer: benchmarks/layered/workloads/hybrid.py, which the PR that
# removed the legacy entry points was not allowed to touch.  The next
# benchmark PR drops that import and deletes this module.
@contextmanager
def suppress_legacy_warnings() -> Iterator[None]:
    yield
