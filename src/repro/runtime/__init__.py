"""Functional runtime: execute real queries, measure real statistics.

The logical layer above the load model: build a
:class:`~repro.runtime.program.StreamProgram` of real computations, run
it with the :class:`~repro.runtime.interpreter.Interpreter` to get both
answers and measured selectivities, then lower it with
``program.to_query_graph(measured)`` and place it with ROD.
"""

from .._lazy import lazy_exports

# Imported on first access, so importing one module of the functional
# runtime loads only what that module needs.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".distributed": ("DistributedInterpreter", "DistributedRunResult"),
    ".functional": (
        "FnAggregate",
        "FnCountWindow",
        "FnFilter",
        "FnMap",
        "FnOperator",
        "FnUnion",
        "FnWindowJoin",
    ),
    ".interpreter": ("Interpreter", "RunResult", "records_from_trace"),
    ".program": ("StreamProgram",),
    ".records": ("Record",),
})

__all__ = [
    "DistributedInterpreter",
    "DistributedRunResult",
    "FnAggregate",
    "FnCountWindow",
    "FnFilter",
    "FnMap",
    "FnOperator",
    "FnUnion",
    "FnWindowJoin",
    "Interpreter",
    "Record",
    "RunResult",
    "StreamProgram",
    "records_from_trace",
]
