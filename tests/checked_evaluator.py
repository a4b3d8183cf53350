"""A test-side evaluator that checks itself after every applied move."""

import numpy as np

from privpart.evaluator import IncrementalEvaluator


class CheckedEvaluator(IncrementalEvaluator):
    """Recomputes everything from scratch after each applied move and
    each addition, and asserts that the objective, ``f_ap`` and the
    kernel's arrays agree to 1e-9."""

    def add(self, d, a):
        super().add(d, a)
        self._check()

    def apply(self, move):
        super().apply(move)  # an addition or a swap checked itself in add
        if move.kind == "remove":
            self._check()

    def _check(self):
        fresh = IncrementalEvaluator(self.inst, self.assignment())
        if abs(fresh.objective - self.objective) > 1e-9:
            raise AssertionError(
                f"incremental objective {self.objective!r} drifted from "
                f"scratch value {fresh.objective!r}"
            )
        if self.num_p and np.abs(fresh.f_ap - self.f_ap).max() > 1e-9:
            raise AssertionError("incremental disclosure state drifted")
        for name, value in vars(fresh.kernel).items():
            if isinstance(value, np.ndarray) and not np.allclose(
                    value, getattr(self.kernel, name), rtol=0.0, atol=1e-9):
                raise AssertionError(f"incremental kernel state {name} drifted")
