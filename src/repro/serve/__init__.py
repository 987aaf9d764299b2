"""Live serving façade: drive the simulated fleet as a wall-clock service.

Batch experiments (:func:`repro.cluster.run_cluster`) fold a whole run
and report afterwards. This package turns the same
:class:`~repro.cluster.SimulatedCluster` into something you can *talk
to* while it runs:

* :class:`SimClock` — maps wall time onto simulated nanoseconds at a
  configurable time-dilation factor and steps the kernel incrementally
  between asyncio awaits (``dilation=inf`` disables pacing entirely,
  keeping replays byte-deterministic for CI).
* :class:`ServiceFacade` — ``await facade.submit("UniqId")`` injects an
  arrival at the cluster front door and resolves with a
  :class:`Response` when the matching terminal event comes off the
  telemetry bus, carrying shed / degraded / lost outcomes.
* :mod:`repro.serve.replay` — ``python -m repro.serve.replay`` replays
  recorded or synthetic open-loop traces in wall-clock time with
  per-request latency logging.
* :mod:`repro.serve.soak` — ``python -m repro.serve.soak`` sustains
  load for N wall-clock seconds with the live dashboard attached and
  emits a final scorecard in the ``fig_campaign`` format.

See ``docs/serving.md`` for the architecture walkthrough.
"""

from .._lazy import lazy_exports

# The replay/soak drivers are runnable modules (python -m ...); import
# them explicitly (repro.serve.replay / repro.serve.soak) rather than
# from here, so running them with -m does not re-import the package's
# own submodule under runpy.
__all__ = [
    "Response",
    "ServiceFacade",
    "SimClock",
    "build_scorecard",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".clock": ("SimClock",),
    ".facade": ("Response", "ServiceFacade", "build_scorecard"),
})
