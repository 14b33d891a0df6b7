"""Spans around the calls into voicecloak's public functions, recorded from outside.

`Tracer.install` wraps each function named in LAYERS in every voicecloak
module that binds it. `attack` and `cli` import `forward`, `stft`,
`log_mel`, `protect_utterance` and others by name, so wrapping only the
defining module would miss their calls. The batch layer is traced by
handing `cli` a thread pool whose tasks each record a `cli.protect.file`
span. `uninstall` puts every original back.

A span is (name, start, end, parent, thread). Parents come from a stack
per thread; a pool task's parent is the span that submitted it. Spans stay
in memory until the run ends. Self time subtracts only the children that
ran on the span's own thread.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Functions traced, by defining module; a span is named "<module>.<function>".
LAYERS = {
    "spectral": ("stft", "istft", "mel_matrix", "log_mel", "log_mel_backward"),
    "encoder": ("forward", "backward", "load_weights"),
    "attack": ("loss_and_grad", "sign_matrix", "clip_linf", "protect_utterance"),
    "audio_io": ("read_wav", "write_wav", "add_gaussian_noise"),
    "metrics": ("snr_db", "parse_trials", "score_trials", "compute_eer", "similarity_matrix"),
    "tensorfile": ("save", "load"),
    "cli": ("run_protect", "run_embed", "run_eval", "run_simmat"),
}

FILE_SPAN = "cli.protect.file"

# Metrics reported per pass: (metric, unit, better). "<span>.s" is the
# summed inclusive time of that span, "<span>.calls" its count.
PER_LAYER = [
    ("attack.loss_and_grad.calls", "count", "lower"),
    ("attack.loss_and_grad.self_s", "s", "lower"),
    ("attack.sign_matrix.s", "s", "lower"),
    ("attack.clip_linf.s", "s", "lower"),
    ("spectral.log_mel.s", "s", "lower"),
    ("spectral.log_mel_backward.s", "s", "lower"),
    ("encoder.backward.s", "s", "lower"),
    ("encoder.forward.s", "s", "lower"),
    ("encoder.forward.calls", "count", "lower"),
    ("spectral.mel_matrix.calls", "count", "lower"),
    ("spectral.mel_matrix.s", "s", "lower"),
    ("spectral.stft.calls", "count", "lower"),
    ("spectral.stft.s", "s", "lower"),
    ("spectral.istft.s", "s", "lower"),
    ("audio_io.read_wav.s", "s", "lower"),
    ("audio_io.write_wav.s", "s", "lower"),
    ("audio_io.add_gaussian_noise.s", "s", "lower"),
    ("metrics.snr_db.s", "s", "lower"),
    ("attack.protect_utterance.s", "s", "lower"),
    ("attack.protect_utterance.p50_s", "s", "lower"),
    ("cli.run_protect.s", "s", "lower"),
    ("cli.protect.cpu_per_wall", "ratio", "higher"),
    ("cli.protect.pool_busy_ratio", "ratio", "higher"),
    ("metrics.score_trials.s", "s", "lower"),
    ("metrics.compute_eer.s", "s", "lower"),
    ("metrics.similarity_matrix.s", "s", "lower"),
    ("metrics.parse_trials.s", "s", "lower"),
    ("tensorfile.save.s", "s", "lower"),
    ("tensorfile.load.s", "s", "lower"),
    ("cli.run_embed.s", "s", "lower"),
    ("cli.run_eval.s", "s", "lower"),
    ("cli.run_simmat.s", "s", "lower"),
    ("encoder.load_weights.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.protect_cpu: list[tuple[float, float]] = []  # (cpu s, wall s) per run_protect
        self.pool_workers: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # pool threads open spans concurrently
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, threading.get_ident())

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    def _wrap_protect(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                return self._run("cli.run_protect", fn, args, kwargs)
            finally:
                self.protect_cpu.append(
                    (time.process_time() - cpu, time.perf_counter() - wall)
                )

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_workers.append(self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._run, FILE_SPAN, fn, args, kwargs, parent)

        return TracedPool

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "voicecloak" or key.startswith("voicecloak.")]
        for short, names in LAYERS.items():
            home = sys.modules[f"voicecloak.{short}"]
            for name in names:
                original = getattr(home, name)
                if f"{short}.{name}" == "cli.run_protect":
                    wrapper = self._wrap_protect(original)
                else:
                    wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
        cli = sys.modules["voicecloak.cli"]
        self._saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over every span recorded (one pass)."""
        durations: dict[str, list[float]] = {}
        child: dict[int, float] = {}  # time covered by children on the same thread
        for name, start, end, parent, thread in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent is not None and self.spans[parent][4] == thread:
                child[parent] = child.get(parent, 0.0) + end - start
        total = {name: sum(d) for name, d in durations.items()}
        self_time: dict[str, float] = {}
        for i, (name, start, end, _parent, _thread) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(i, 0.0)

        out: dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total.get(span, 0.0)
            elif kind == "calls":
                out[metric] = float(len(durations.get(span, ())))
            elif kind == "self_s":
                out[metric] = self_time.get(span, 0.0)
            elif kind == "p50_s":
                out[metric] = statistics.median(durations[span]) if span in durations else 0.0
        wall = sum(w for _, w in self.protect_cpu)
        out["cli.protect.cpu_per_wall"] = sum(c for c, _ in self.protect_cpu) / wall if wall > 0 else 0.0
        capacity = sum(n * w for n, (_, w) in zip(self.pool_workers, self.protect_cpu))
        out["cli.protect.pool_busy_ratio"] = total.get(FILE_SPAN, 0.0) / capacity if capacity > 0 else 0.0
        return out


def chrome_events(spans, pid: int) -> list[dict]:
    """Spans of one pass as Chrome trace events (microseconds)."""
    return [
        {"name": name, "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
         "pid": pid, "tid": thread, "args": {"id": i, "parent": parent}}
        for i, (name, start, end, parent, thread) in enumerate(spans)
    ]
