"""In-memory span recorder and a counting operator for the traced benchmark run.

Spans are recorded around the calls the benchmark itself makes into the
package; nothing inside ``riskreg`` is instrumented.  Operator applications
are counted by a ``riskreg.LinearOperator`` built with the public constructor,
so the counts are exact and do not depend on the machine.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from riskreg import LinearOperator


class SpanRecorder:
    """Collects spans (name, start, end, parent, op id) and operator counts.

    Every span also records how many operator columns were applied, forward
    and adjoint, while it was open.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self.apply_cols = 0
        self.adjoint_cols = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, "op": self.op_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        a0, b0 = self.apply_cols, self.adjoint_cols
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["apply_cols"] = self.apply_cols - a0
            rec["adjoint_cols"] = self.adjoint_cols - b0
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def counting_operator(self, matrix) -> LinearOperator:
        """The operator ``from_dense``/``from_sparse`` would build, with counted applies.

        The products are the ones those constructors use, so results are
        bitwise identical to the uncounted operator.
        """
        if sp.issparse(matrix):
            M = sp.csr_matrix(matrix)
            Mt = sp.csr_matrix(M.T)
            representation = "matrix-free"
        else:
            M = np.asarray(matrix, dtype=float)
            Mt = M.T
            representation = "dense"

        def apply(x):
            self.apply_cols += 1 if x.ndim == 1 else x.shape[1]
            return M @ x

        def apply_adjoint(y):
            self.adjoint_cols += 1 if y.ndim == 1 else y.shape[1]
            return Mt @ y

        return LinearOperator(M.shape[0], M.shape[1], apply, apply_adjoint,
                              representation, matrix=M)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_totals(spans) -> dict:
    """Per span name: total seconds, call count, and applied columns."""
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], {"s": 0.0, "calls": 0, "apply_cols": 0,
                                       "adjoint_cols": 0})
        t["s"] += s["end"] - s["start"]
        t["calls"] += 1
        t["apply_cols"] += s["apply_cols"]
        t["adjoint_cols"] += s["adjoint_cols"]
    return out
