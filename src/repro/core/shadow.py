"""The shadow stack used for inlining (paper Sec. III.E).

"We maintain a shadow stack remembering traced call instructions and
corresponding return addresses."  Each frame also remembers the
per-function effective configuration, which "may change during tracing,
but is restored when returning to the previous function" (Sec. III.F).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FunctionConfig


@dataclass
class ShadowFrame:
    return_addr: int
    fn_addr: int
    config: FunctionConfig  # the *caller's* effective config, to restore
