"""MILP placement: provably optimal per-stream balance (MMAD's ideal).

ROD's first heuristic (Section 4.1) balances each input stream's load
across nodes in proportion to capacity — equivalently, it minimizes the
largest entry of the weight matrix ``w_ik``.  That objective *is*
expressible as a mixed-integer linear program:

    minimize  z
    s.t.      sum_i a_ij = 1                   for every operator j
              sum_j a_ij * u_ijk <= z          for every node i, stream k
              a_ij in {0, 1}

with ``u_ijk = (l^o_jk / l_k) / (C_i / C_T)`` the weight operator ``j``
would contribute to node ``i`` on stream ``k``.  Solving it (HiGHS via
``scipy.optimize.milp``) gives an upper bound on how well MMAD alone can
ever do — a yardstick for ROD that the paper's exhaustive search cannot
provide beyond toy sizes.

Note the MILP optimizes *balance*, not feasible-set volume: it ignores
MMPD's cross-stream combination concern, so ROD can still beat it on
volume even when it loses on max-weight.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..obs.trace import NULL_TRACER, Tracer
from .base import Placer

__all__ = ["MilpBalancePlacer"]

# n * m binaries beyond this make HiGHS runtimes unpredictable.
MAX_VARIABLES = 600


class MilpBalancePlacer(Placer):
    """Minimize the maximum normalized stream weight over all nodes."""

    name = "milp_balance"

    def __init__(
        self,
        time_limit: Optional[float] = 30.0,
        max_variables: int = MAX_VARIABLES,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.time_limit = time_limit
        self.max_variables = max_variables
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        # Imported here so that importing the package does not load SciPy.
        from scipy.optimize import Bounds, LinearConstraint, milp

        caps = self._validated(model, capacities)
        n, m, d = caps.shape[0], model.num_operators, model.num_variables
        if n * m > self.max_variables:
            raise ValueError(
                f"MILP with {n * m} assignment variables exceeds the "
                f"configured limit of {self.max_variables}"
            )
        totals = model.column_totals()
        capacity_share = caps / caps.sum()

        # Unit weights u_ijk, flattened over variables x = (a_00..a_nm, z)
        # with a_ij at index i * m + j.
        num_vars = n * m + 1
        cost = np.zeros(num_vars)
        cost[-1] = 1.0  # minimize z

        # Each operator placed exactly once.
        assign = np.zeros((m, num_vars))
        for j in range(m):
            for i in range(n):
                assign[j, i * m + j] = 1.0
        assignment_constraint = LinearConstraint(assign, lb=1.0, ub=1.0)

        # Weight constraints for loaded streams only.
        loaded = [k for k in range(d) if totals[k] > 1e-12]
        weight_rows = np.zeros((n * len(loaded), num_vars))
        row = 0
        for i in range(n):
            for k in loaded:
                for j in range(m):
                    unit = (model.coefficients[j, k] / totals[k]) / (
                        capacity_share[i]
                    )
                    weight_rows[row, i * m + j] = unit
                weight_rows[row, -1] = -1.0
                row += 1
        weight_constraint = LinearConstraint(
            weight_rows, lb=-np.inf, ub=0.0
        )

        integrality = np.ones(num_vars)
        integrality[-1] = 0.0
        bounds = Bounds(
            lb=np.zeros(num_vars),
            ub=np.concatenate([np.ones(n * m), [np.inf]]),
        )
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        solve_start = time.perf_counter()
        result = milp(
            c=cost,
            constraints=[assignment_constraint, weight_constraint],
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "placement.milp",
                algorithm="milp_balance",
                seconds=time.perf_counter() - solve_start,
                status=int(result.status),
                variables=num_vars,
                objective=(
                    None if result.x is None else float(result.x[-1])
                ),
            )
        if result.x is None:
            raise RuntimeError(
                f"MILP solve failed: {result.message} "
                f"(status {result.status})"
            )
        a = np.round(result.x[:-1]).reshape(n, m)
        assignment = tuple(int(np.argmax(a[:, j])) for j in range(m))
        return Placement(model=model, capacities=caps, assignment=assignment)
