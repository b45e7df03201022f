"""Bursty workload generation: traces, rate points, arrival processes."""

from .._lazy import lazy_exports

# Imported on first access, so the text plots (``sparkline``) do not
# load the rate samplers and, through them, ``repro.core``.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".arrivals": (
        "ARRIVAL_KINDS",
        "ArrivalProcess",
        "deterministic_arrivals",
        "poisson_arrivals",
    ),
    ".rates": (
        "ideal_rate_points",
        "rate_series",
        "scale_point_to_utilization",
    ),
    ".scenarios": ("burst_series", "shift_series", "steady_trace_series"),
    ".textplot": ("area_chart", "sparkline"),
    ".traces": (
        "TRACE_KINDS",
        "b_model_trace",
        "flash_crowd_trace",
        "hurst_exponent",
        "load_trace_csv",
        "make_trace",
        "normalize_trace",
        "pareto_on_off_trace",
        "rebin_trace",
        "save_trace_csv",
        "trace_statistics",
    ),
})

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "TRACE_KINDS",
    "area_chart",
    "b_model_trace",
    "burst_series",
    "deterministic_arrivals",
    "flash_crowd_trace",
    "hurst_exponent",
    "ideal_rate_points",
    "load_trace_csv",
    "make_trace",
    "normalize_trace",
    "pareto_on_off_trace",
    "poisson_arrivals",
    "rate_series",
    "rebin_trace",
    "save_trace_csv",
    "scale_point_to_utilization",
    "shift_series",
    "sparkline",
    "steady_trace_series",
    "trace_statistics",
]
