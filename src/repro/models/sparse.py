"""The sparse fine-pass knob (``REPRO_SPARSE``).

The packed fine pass (see :mod:`repro.models.ibrnet`) is on by default:
it is byte-identical to the padded path by construction, so there is no
quality trade-off to opt into.  The knob exists as an escape hatch —
for A/B benchmarking (``benchmarks/harness.py``'s ``sparse_fine_pass``
pair), for pinning the padded reference in the equivalence suite, and
for turning the machinery off wholesale if a future BLAS build breaks
the kernel-regime model the packing relies on.

Parsing is lenient, like every other ``REPRO_*`` knob (see
:mod:`repro.core.knobs`): a malformed value warns through the
structured log and falls back to the default instead of crashing a
long render.
"""

from __future__ import annotations

from typing import Optional

SPARSE_ENV = "REPRO_SPARSE"


def sparse_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the sparse fine-pass switch.

    Priority: explicit argument (``forward(..., sparse=...)``), then
    the ``REPRO_SPARSE`` env knob, then the default (on).  Pool workers
    inherit the env knob from the process that starts them.  Empty/whitespace env values are skipped;
    malformed values warn and fall through.
    """
    # Imported lazily: this module loads from ``models.ibrnet`` before
    # the ``models`` package finishes initialising, and ``repro.core``'s
    # package init imports back into ``models`` — a module-level import
    # here would re-enter the half-initialised package.
    from ..core import knobs
    return knobs.resolve(override, SPARSE_ENV, True, knobs.parse_flag,
                         "sparse")
