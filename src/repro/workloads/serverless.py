"""Serverless functions (FunctionBench-like) for the Figure 16 study.

The paper runs FunctionBench workloads (ML serving, image, video and
document processing) under Microsoft Azure production traces, colocated
on one server, and reports per-function P99 for Non-acc, RELIEF and
AccelFlow. FunctionBench sources and the Azure traces are substituted
with parameterized function models and a bursty arrival generator
(``make_arrivals("azure", ...)``): short functions, heavy tax share
(encryption + serialization dominated), spiky invocations.
"""

from __future__ import annotations

from typing import Dict, List

from .calibration import US, TaxCategory
from .spec import CpuSegment, ServiceSpec, TraceInvocation

__all__ = ["serverless_functions", "SERVERLESS_NAMES"]

SERVERLESS_NAMES = [
    "ImgRot",
    "ImgResize",
    "MLServe",
    "VidThumb",
    "DocConv",
    "Sentiment",
    "JsonParse",
    "MailGen",
]

_T = TaxCategory


def _fractions(app, tcp, encr, rpc, ser, cmp, ldb) -> Dict[str, float]:
    return {
        _T.APP_LOGIC: app,
        _T.TCP: tcp,
        _T.ENCRYPTION: encr,
        _T.RPC: rpc,
        _T.SERIALIZATION: ser,
        _T.COMPRESSION: cmp,
        _T.LOAD_BALANCING: ldb,
    }


def _simple_function(name, total_us, fractions, rate, wire=2048.0, compressed=False):
    return ServiceSpec(
        name=name,
        suite="serverless",
        total_time_ns=total_us * US,
        fractions=fractions,
        path=(
            TraceInvocation("T1", {"compressed": compressed}),
            CpuSegment(),
            TraceInvocation("T3" if compressed else "T2"),
        ),
        rate_rps=rate,
        wire_median_bytes=wire,
    )


def serverless_functions() -> List[ServiceSpec]:
    """Eight FunctionBench-like functions."""
    return [
        # Short image rotation: tax dominates (the paper highlights it).
        _simple_function(
            "ImgRot", 350,
            _fractions(0.14, 0.27, 0.17, 0.03, 0.25, 0.08, 0.06),
            rate=9000.0, wire=8192.0, compressed=True,
        ),
        _simple_function(
            "ImgResize", 500,
            _fractions(0.20, 0.25, 0.16, 0.03, 0.23, 0.08, 0.05),
            rate=7000.0, wire=8192.0, compressed=True,
        ),
        # ML model serving: more app logic, storage fetch for the model.
        ServiceSpec(
            name="MLServe",
            suite="serverless",
            total_time_ns=2500 * US,
            fractions=_fractions(0.38, 0.18, 0.12, 0.03, 0.18, 0.07, 0.04),
            path=(
                TraceInvocation("T1", {"compressed": False}),
                CpuSegment(),
                TraceInvocation("T4", {"hit": True, "compressed": True}),
                CpuSegment(),
                TraceInvocation("T2"),
            ),
            rate_rps=3000.0,
            wire_median_bytes=4096.0,
        ),
        # Video thumbnailing: long, compressed payloads both ways.
        _simple_function(
            "VidThumb", 4200,
            _fractions(0.34, 0.20, 0.12, 0.02, 0.18, 0.10, 0.04),
            rate=1200.0, wire=16384.0, compressed=True,
        ),
        # Document conversion: fetches the document over HTTP.
        ServiceSpec(
            name="DocConv",
            suite="serverless",
            total_time_ns=1800 * US,
            fractions=_fractions(0.26, 0.24, 0.14, 0.02, 0.21, 0.09, 0.04),
            path=(
                TraceInvocation("T1", {"compressed": False}),
                CpuSegment(),
                TraceInvocation("T11c", {"compressed": True}),
                CpuSegment(),
                TraceInvocation("T3"),
            ),
            rate_rps=2500.0,
            wire_median_bytes=6144.0,
        ),
        _simple_function(
            "Sentiment", 700,
            _fractions(0.24, 0.27, 0.15, 0.03, 0.26, 0.00, 0.05),
            rate=6000.0, wire=1024.0,
        ),
        _simple_function(
            "JsonParse", 260,
            _fractions(0.11, 0.30, 0.16, 0.04, 0.32, 0.00, 0.07),
            rate=12000.0, wire=1024.0,
        ),
        # Mail generation: writes the rendered mail to storage.
        ServiceSpec(
            name="MailGen",
            suite="serverless",
            total_time_ns=900 * US,
            fractions=_fractions(0.22, 0.25, 0.15, 0.03, 0.22, 0.09, 0.04),
            path=(
                TraceInvocation("T1", {"compressed": False}),
                CpuSegment(),
                TraceInvocation("T8c", {"exception": False, "compressed": True}),
                CpuSegment(),
                TraceInvocation("T2"),
            ),
            rate_rps=4000.0,
        ),
    ]
