"""Payload-size model (Figure 5).

The paper measures, per accelerator, the input/output data sizes:
medians of a few KB with a long tail into tens of KB (consistent with
Google's RPC characterization [68]). We sample one *wire size* per
trace invocation (lognormal, median ~1.5 KB) and derive each
accelerator's input/output sizes from per-kind scale factors so data
sizes stay consistent along a chain (compression shrinks, decompression
expands, serialization inflates the wire form, LdB carries no data).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..hw.params import AcceleratorKind
from ..sim import Stream

__all__ = ["PayloadModel", "SIZE_FACTORS"]

_K = AcceleratorKind

#: (input, output) size as multiples of the invocation's wire size.
SIZE_FACTORS: Dict[AcceleratorKind, Tuple[float, float]] = {
    _K.TCP: (1.00, 1.00),
    _K.ENCR: (1.00, 1.02),  # ciphertext slightly larger
    _K.DECR: (1.02, 1.00),
    _K.RPC: (0.95, 0.95),  # headers only touched
    _K.SER: (1.25, 1.00),  # app format -> compact wire format
    _K.DSER: (1.00, 1.25),
    _K.CMP: (2.60, 1.00),  # compresses ~2.6x (Zstd-class ratios)
    _K.DCMP: (1.00, 2.60),
    _K.LDB: (0.03, 0.03),  # scheduling metadata only
}


class PayloadModel:
    """Samples per-invocation wire sizes and derives per-op data sizes."""

    MIN_WIRE_BYTES = 128
    MAX_WIRE_BYTES = 64 * 1024

    def __init__(
        self,
        stream: Stream,
        median_bytes: float = 1536.0,
        sigma: float = 0.85,
    ):
        if median_bytes <= 0:
            raise ValueError(f"median must be positive, got {median_bytes}")
        self.stream = stream
        self.median_bytes = median_bytes
        self.sigma = sigma

    def sample_wire_size(self) -> int:
        """One invocation's wire-format message size in bytes."""
        return int(
            self.stream.bounded_lognormal(
                self.median_bytes,
                self.sigma,
                low=self.MIN_WIRE_BYTES,
                high=self.MAX_WIRE_BYTES,
            )
        )

    @staticmethod
    def sizes_for(kind: AcceleratorKind, wire_size: int) -> Tuple[int, int]:
        """(input, output) bytes of one op given the wire size."""
        in_factor, out_factor = SIZE_FACTORS[kind]
        return max(1, int(wire_size * in_factor)), max(1, int(wire_size * out_factor))
