"""Per-run metrics and their flat record form.

RECORD_FIELDS is the one record schema: the CSV / JSON-lines columns in
their fixed order with their types, followed by one float column
band_frac_<j> per band.  Writing (MetricsReport.record, whose keys are
the CSV header), reading (runner.read_records) and comparing
(runner.compare) all derive from it.

Every run delivers its whole packet budget, so a report is always of a
complete run.  Two diagnostic fields, the measured count and the mean
wait, live on the report object only.
"""

from __future__ import annotations

from dataclasses import dataclass

RECORD_FIELDS: tuple[tuple[str, type], ...] = (
    ("scenario", str),
    ("scheduler", str),
    ("seed", int),
    ("delivered", int),
    ("goodput_pps", float),
    ("mean_latency_s", float),
    ("p95_latency_s", float),
    ("mean_reseq_delay_s", float),
    ("max_reseq_delay_s", float),
    ("out_of_order_frac", float),
)
BAND_FRAC_PREFIX = "band_frac_"

# The per-run metrics that compare() pairs across schemes.
METRIC_FIELDS = tuple(name for name, typ in RECORD_FIELDS if typ is float)


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    scheduler: str
    seed: int
    delivered: int
    measured: int
    goodput_pps: float
    mean_latency_s: float
    p95_latency_s: float
    mean_reseq_delay_s: float
    max_reseq_delay_s: float
    out_of_order_frac: float
    per_band_frac: tuple[float, ...]
    mean_wait_s: float

    def record(self) -> dict:
        """Flat record in the fixed output column order."""
        rec = {name: getattr(self, name) for name, _ in RECORD_FIELDS}
        for j, frac in enumerate(self.per_band_frac):
            rec[f"{BAND_FRAC_PREFIX}{j}"] = frac
        return rec
