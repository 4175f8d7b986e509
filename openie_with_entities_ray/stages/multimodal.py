"""Multimodal columns: opaque binary payloads + typed metadata, with
decode / feature-extract / resize / frame-sample as kernel stages.

Three backends:

- ``'stdlib'`` — REAL decode with no external libraries: PNG images and
  PCM16 WAV audio via functions/codecs.py (minimal spec-complete PNG
  codec + the stdlib ``wave`` module); video frames via the explicit
  FCV1 test container of length-prefixed PNGs (real video codecs need
  native libs, which this container honestly does not claim to be);
- ``'fake'`` (default) — deterministic hash-derived features, same
  schema/plumbing, for corpora whose payloads aren't real media;
- ``'real'`` — PIL (images) + av (audio/video) adapters, import-gated:
  the libraries are absent here, so instantiating without injected
  ``pil=``/``av=`` modules raises ImportError with the remedy. The
  adapter logic itself is real and contract-tested with fake modules
  built over the stdlib codecs (tests/test_dataops.py), so dropping in
  the actual libraries exercises already-tested code.

Everything Ray-side (small batches for large payloads, kernel classes
run as Ray Data tasks through :func:`.extract.map_kernel` with codec
state built once per worker process, binary columns kept in Arrow) is
shared by all backends.

Schema convention:
    media(id:int64, kind:string{image,audio,video}, payload:binary,
          meta:{width,height,sample_rate,...} as typed columns)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..functions import codecs
from .extract import map_kernel


def _import_pil():
    try:
        from PIL import Image
    except ImportError as e:
        raise ImportError(
            "backend='real' needs PIL for image decode — not installed "
            "here; use backend='stdlib' (real PNG/WAV codecs) or "
            "'fake', or inject a pil= module in tests"
        ) from e
    import types as _t

    return _t.SimpleNamespace(Image=Image)


def _import_av():
    try:
        import av
    except ImportError as e:
        raise ImportError(
            "backend='real' needs av for audio/video decode — not "
            "installed here; use backend='stdlib' (WAV/FCV1 codecs) or "
            "'fake', or inject an av= module in tests"
        ) from e
    return av


def synthetic_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic opaque payloads standing in for encoded media."""
    kinds = ["image", "audio", "video"]
    ids, kind_col, payloads, widths, heights = [], [], [], [], []
    for i in range(n):
        h = hashlib.sha256(f"media:{seed}:{i}".encode()).digest()
        size = 256 + (h[0] << 4)
        ids.append(i)
        kind_col.append(kinds[i % 3])
        payloads.append((h * ((size // len(h)) + 1))[:size])
        widths.append(64 + h[1] % 192)
        heights.append(64 + h[2] % 192)
    return pa.table(
        {
            "id": pa.array(ids, pa.int64()),
            "kind": pa.array(kind_col, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
        }
    )


def synthetic_real_media_table(n: int, seed: int = 42) -> pa.Table:
    """Like :func:`synthetic_media_table` but the payloads are REAL
    encoded media (PNG / WAV / FCV1 frame container), deterministic in
    (seed, id) — decodable by the 'stdlib' backend."""
    kinds = ["image", "audio", "video"]
    ids, kind_col, payloads, widths, heights = [], [], [], [], []
    for i in range(n):
        h = hashlib.sha256(f"media:{seed}:{i}".encode()).digest()
        rng = np.random.RandomState(int.from_bytes(h[:4], "little"))
        kind = kinds[i % 3]
        w = 8 + h[1] % 24
        hh = 8 + h[2] % 24
        if kind == "image":
            payload = codecs.write_png(
                rng.randint(0, 256, size=(hh, w, 3), dtype=np.uint8),
                filter_type=i % 5,
            )
        elif kind == "audio":
            t = np.arange(800 + 100 * (h[3] % 8))
            wave16 = (
                np.sin(2 * np.pi * (100 + h[4]) * t / 16000) * 12000
            ).astype(np.int16)
            payload = codecs.write_wav(wave16, 16000)
        else:
            payload = codecs.write_frame_container(
                [
                    rng.randint(0, 256, size=(hh, w, 3), dtype=np.uint8)
                    for _ in range(3 + h[5] % 4)
                ]
            )
        ids.append(i)
        kind_col.append(kind)
        payloads.append(payload)
        widths.append(w)
        heights.append(hh)
    return pa.table(
        {
            "id": pa.array(ids, pa.int64()),
            "kind": pa.array(kind_col, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
        }
    )


class MediaDecoder:
    """Kernel: codec state in __init__, per-batch decode in __call__.

    ``backend='stdlib'`` REALLY decodes (PNG/WAV/FCV1 — see module
    docstring); ``backend='fake'`` derives deterministic features from
    payload bytes; ``backend='real'`` runs the PIL/av adapters
    (import-gated; inject pil=/av= fakes in tests)."""

    def __init__(self, backend: str = "fake", feature_dim: int = 16,
                 pil=None, av=None):
        if backend == "real":
            # adapters over PIL.Image / av containers; inject fake
            # modules (same call surface) to test without the libs
            self._pil = pil if pil is not None else _import_pil()
            self._av = av if av is not None else _import_av()
        elif backend not in ("fake", "stdlib"):
            raise ValueError(f"unknown media backend: {backend}")
        self.backend = backend
        self.feature_dim = feature_dim

    def _fake_features(self, payload: bytes) -> np.ndarray:
        h = hashlib.sha256(payload).digest()
        raw = (h * ((self.feature_dim // len(h)) + 1))[: self.feature_dim]
        v = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
        return v / 255.0

    def _segment_means(self, values: np.ndarray) -> np.ndarray:
        """feature_dim segment means — the classic fixed-length summary."""
        k = self.feature_dim
        if len(values) == 0:
            return np.zeros(k, dtype=np.float32)
        bounds = np.linspace(0, len(values), k + 1).astype(int)
        return np.array(
            [
                values[bounds[j]:bounds[j + 1]].mean()
                if bounds[j + 1] > bounds[j] else 0.0
                for j in range(k)
            ],
            dtype=np.float32,
        )

    def _stdlib_features(self, kind: str, payload: bytes) -> np.ndarray:
        if kind == "image":
            rgb = codecs.read_png(payload)
            gray = rgb.astype(np.float32).mean(axis=2) / 255.0
            return self._segment_means(gray.reshape(-1))
        if kind == "audio":
            samples, _rate = codecs.read_wav(payload)
            return self._segment_means(
                np.abs(samples.astype(np.float32)) / 32768.0
            )
        if kind == "video":
            frames = codecs.read_frame_container(payload)
            means = np.array(
                [f.astype(np.float32).mean() / 255.0 for f in frames],
                dtype=np.float32,
            )
            return self._segment_means(means)
        raise ValueError(f"unknown media kind: {kind}")

    def _real_features(self, kind: str, payload: bytes) -> np.ndarray:
        """PIL/av adapter with the SAME feature semantics as the stdlib
        backend (gray/abs/frame-mean segment means), so for formats both
        can read the two backends agree."""
        import io

        if kind == "image":
            img = self._pil.Image.open(io.BytesIO(payload)).convert("RGB")
            rgb = np.asarray(img)
            gray = rgb.astype(np.float32).mean(axis=2) / 255.0
            return self._segment_means(gray.reshape(-1))
        if kind == "audio":
            container = self._av.open(io.BytesIO(payload))
            chunks = [f.to_ndarray() for f in container.decode(audio=0)]
            samples = (np.concatenate([c.reshape(-1) for c in chunks])
                       if chunks else np.zeros(0, dtype=np.int16))
            return self._segment_means(
                np.abs(samples.astype(np.float32)) / 32768.0
            )
        if kind == "video":
            container = self._av.open(io.BytesIO(payload))
            means = np.array(
                [f.to_ndarray(format="rgb24").astype(np.float32).mean()
                 / 255.0
                 for f in container.decode(video=0)],
                dtype=np.float32,
            )
            return self._segment_means(means)
        raise ValueError(f"unknown media kind: {kind}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        kinds = batch.column("kind").to_pylist()
        if self.backend == "stdlib":
            feats = [
                self._stdlib_features(k, p) for k, p in zip(kinds, payloads)
            ]
        elif self.backend == "real":
            feats = [
                self._real_features(k, p) for k, p in zip(kinds, payloads)
            ]
        else:
            feats = [self._fake_features(p) for p in payloads]
        n_bytes = [len(p) for p in payloads]
        return pa.table(
            {
                "id": batch.column("id"),
                "kind": batch.column("kind"),
                "n_bytes": pa.array(n_bytes, pa.int64()),
                "features": pa.array(
                    [f.tolist() for f in feats],
                    pa.list_(pa.float32(), self.feature_dim),
                ),
            }
        )


class FrameSampler:
    """Kernel: sample K frames per video payload — one row in, K rows out
    (flat-map shape). 'stdlib' decodes the FCV1 container and emits real
    re-encoded PNG frames (uniform sampling); 'fake' slices payload
    bytes."""

    def __init__(self, num_frames: int = 4, backend: str = "fake",
                 pil=None, av=None):
        if backend == "real":
            self._pil = pil if pil is not None else _import_pil()
            self._av = av if av is not None else _import_av()
        elif backend not in ("fake", "stdlib"):
            raise ValueError(f"unknown media backend: {backend}")
        self.num_frames = num_frames
        self.backend = backend

    def _real_frames(self, payload: bytes):
        """av adapter: decode the container, return rgb24 frame arrays."""
        import io

        container = self._av.open(io.BytesIO(payload))
        return [f.to_ndarray(format="rgb24")
                for f in container.decode(video=0)]

    def _encode_png_real(self, rgb: np.ndarray) -> bytes:
        import io

        img = self._pil.Image.fromarray(rgb.astype(np.uint8), "RGB")
        buf = io.BytesIO()
        img.save(buf, format="PNG")
        return buf.getvalue()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, offsets = [], [], []
        for i, payload in zip(
            batch.column("id").to_pylist(), batch.column("payload").to_pylist()
        ):
            if self.backend in ("stdlib", "real"):
                decoded = (codecs.read_frame_container(payload)
                           if self.backend == "stdlib"
                           else self._real_frames(payload))
                if not decoded:  # empty container: no frames, not a crash
                    continue
                picks = np.linspace(
                    0, len(decoded) - 1, self.num_frames
                ).astype(int)
                encode = (codecs.write_png if self.backend == "stdlib"
                          else self._encode_png_real)
                for k, idx in enumerate(picks):
                    ids.append(i)
                    frames.append(k)
                    offsets.append(encode(decoded[idx]))
            else:
                step = max(1, len(payload) // self.num_frames)
                for k in range(self.num_frames):
                    ids.append(i)
                    frames.append(k)
                    offsets.append(payload[k * step : k * step + 16])
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "frame": pa.array(frames, pa.int32()),
                "frame_bytes": pa.array(offsets, pa.binary()),
            }
        )


def decode_media(media_ds, *, backend: str = "fake", batch_size: int = 64):
    """Large binary payloads → SMALL batches (the guide's memory rule)."""
    return map_kernel(media_ds, MediaDecoder, batch_size=batch_size,
                      backend=backend)


def sample_frames(media_ds, *, num_frames: int = 4, backend: str = "fake",
                  batch_size: int = 32):
    video = media_ds.filter(expr="kind == 'video'")
    return map_kernel(video, FrameSampler, batch_size=batch_size,
                      num_frames=num_frames, backend=backend)


class ImageResizer:
    """Kernel: resize image payloads to (out_h, out_w) and re-encode.

    ``backend='stdlib'`` REALLY resizes: PNG decode
    (functions/codecs.py:read_png) → vectorized nearest-neighbor index
    gather → PNG encode; ``backend='fake'`` emits a deterministic
    payload of the right nominal size (sha256-seeded) so the Ray-side
    plumbing (schema, batch sizing, kernel lifecycle) is exercised
    without a codec; ``backend='real'`` runs the PIL adapter
    (import-gated). Non-image rows pass through untouched
    (resize is a per-kind stage, same contract as FrameSampler's video
    filter — callers usually pre-filter, but passthrough keeps the
    stage composable in a mixed pipeline)."""

    def __init__(self, out_h: int = 16, out_w: int = 16,
                 backend: str = "fake", pil=None):
        if backend == "real":
            self._pil = pil if pil is not None else _import_pil()
        elif backend not in ("fake", "stdlib"):
            raise ValueError(f"unknown media backend: {backend}")
        self.out_h = out_h
        self.out_w = out_w
        self.backend = backend

    def _resize_real(self, payload: bytes) -> bytes:
        """PIL adapter: open → RGB → NEAREST resize → PNG re-encode.
        NEAREST matches the stdlib backend's pixel-center index gather,
        so both backends produce the same pixels for PNG inputs."""
        import io

        img = self._pil.Image.open(io.BytesIO(payload)).convert("RGB")
        img = img.resize((self.out_w, self.out_h),
                         self._pil.Image.NEAREST)
        buf = io.BytesIO()
        img.save(buf, format="PNG")
        return buf.getvalue()

    def _resize_rgb(self, rgb: np.ndarray) -> np.ndarray:
        h, w = rgb.shape[:2]
        # nearest-neighbor: index gather at pixel centers (the exact
        # rule PIL's NEAREST uses), fully vectorized
        rows = np.minimum(
            ((np.arange(self.out_h) + 0.5) * h / self.out_h).astype(int),
            h - 1,
        )
        cols = np.minimum(
            ((np.arange(self.out_w) + 0.5) * w / self.out_w).astype(int),
            w - 1,
        )
        return rgb[rows][:, cols]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        kinds = batch.column("kind").to_pylist()
        out = []
        for k, p in zip(kinds, payloads):
            if k != "image":
                out.append(p)
            elif self.backend == "stdlib":
                out.append(
                    codecs.write_png(self._resize_rgb(codecs.read_png(p)))
                )
            elif self.backend == "real":
                out.append(self._resize_real(p))
            else:
                seed = hashlib.sha256(p).digest()
                nominal = self.out_h * self.out_w * 3
                out.append(
                    (seed * (nominal // len(seed) + 1))[:nominal]
                )
        cols = {c: batch.column(c) for c in batch.column_names}
        cols["payload"] = pa.array(out, pa.binary())
        return pa.table(cols)


def resize_images(media_ds, *, out_h: int = 16, out_w: int = 16,
                  backend: str = "fake", batch_size: int = 32):
    """Large binary payloads → SMALL batches (the guide's memory rule);
    output schema identical to the input, payload replaced."""
    return map_kernel(media_ds, ImageResizer, batch_size=batch_size,
                      out_h=out_h, out_w=out_w, backend=backend)
