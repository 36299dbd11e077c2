"""VGG-style pipeline on the Convolution + Maxpool overlay.

Per input map the driver enqueues 13 convolution layers, 5 pooling layers and
a 3-layer fully-connected tail: 21 tasks, 16 on queue 0 and 5 on queue 1.
Intermediate feature maps travel through the single-slot feature buffer; only
the first convolution reads DDR and only the last pool and the FC tail touch
DDR again.  Batches are serialized by queue order, so the one slot suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..overlay import IP_REGISTRY, Overlay, command
from ..runtime import DependenceRule, TaskInstance, build_task_graph, depend, run
from ..tensors import DEFAULT_DTYPE, TensorBuffer, cropped, new_buffer

CONV_LAYERS = 13
POOL_LAYERS = 5
FC_LAYERS = 3
STAGE_OF_LAYER = (0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
POOL_AFTER_LAYER = (1, 3, 6, 9, 12)
KERNEL_SIZE = 3

# task kinds, by layer
CONV_KINDS = tuple(f"conv[{layer}]" for layer in range(CONV_LAYERS))
POOL_KINDS = tuple(f"pool[{k}]" for k in range(POOL_LAYERS))
FC_KINDS = tuple(f"fc[{k}]" for k in range(FC_LAYERS))


@dataclass(frozen=True)
class VggConfig:
    height: int
    width: int
    in_channels: int
    stage_channels: tuple[int, int, int, int, int]
    fc_widths: tuple[int, int, int]
    batch: int = 1

    def __post_init__(self):
        if self.height % 32 or self.width % 32:
            raise ConfigurationError(
                f"spatial extents must be divisible by 32 (five pools), "
                f"got {self.height}x{self.width}"
            )
        if len(self.stage_channels) != 5 or any(c < 1 for c in self.stage_channels):
            raise ConfigurationError(f"need 5 positive stage channels, got {self.stage_channels}")
        if len(self.fc_widths) != 3 or any(w < 1 for w in self.fc_widths):
            raise ConfigurationError(f"need 3 positive FC widths, got {self.fc_widths}")
        if self.in_channels < 1 or self.batch < 1:
            raise ConfigurationError("in_channels and batch must be >= 1")

    def conv_channel_plan(self) -> list[tuple[int, int]]:
        """(cin, cout) per convolution layer."""
        plan = []
        cin = self.in_channels
        for stage in STAGE_OF_LAYER:
            cout = self.stage_channels[stage]
            plan.append((cin, cout))
            cin = cout
        return plan

    def pooled_extents(self) -> tuple[int, int]:
        return self.height // 32, self.width // 32

    def fc_dim_plan(self) -> list[tuple[int, int]]:
        """(out_features, in_features) per FC layer."""
        ph, pw = self.pooled_extents()
        n_in = ph * pw * self.stage_channels[-1]
        plan = []
        for width in self.fc_widths:
            plan.append((width, n_in))
            n_in = width
        return plan


def tiny_config(batch: int = 1) -> VggConfig:
    return VggConfig(32, 32, 3, (2, 2, 4, 4, 4), (8, 8, 4), batch)


def small_config(batch: int = 1) -> VggConfig:
    return VggConfig(64, 64, 3, (4, 4, 8, 8, 8), (16, 16, 8), batch)


@dataclass
class VggWeights:
    """Per-layer weight buffers: 13 rank-4 convolution sets, 3 FC matrices."""

    conv: list[TensorBuffer]
    fc: list[TensorBuffer]


def seeded_weights(config: VggConfig, seed: int, dtype=DEFAULT_DTYPE) -> VggWeights:
    """Uniform weights in [-0.1, 0.1], drawn in a fixed order for reproducibility."""
    rng = np.random.default_rng(seed)
    conv = []
    for cin, cout in config.conv_channel_plan():
        conv.append(TensorBuffer(
            rng.uniform(-0.1, 0.1, (KERNEL_SIZE, KERNEL_SIZE, cin, cout)).astype(dtype)))
    fc = []
    for n_out, n_in in config.fc_dim_plan():
        fc.append(TensorBuffer(rng.uniform(-0.1, 0.1, (n_out, n_in)).astype(dtype)))
    return VggWeights(conv, fc)


def random_input(config: VggConfig, seed: int, dtype=DEFAULT_DTYPE) -> TensorBuffer:
    rng = np.random.default_rng(seed)
    shape = (config.height, config.width, config.in_channels, config.batch)
    return TensorBuffer(rng.uniform(0.0, 1.0, shape).astype(dtype))


def _check_weights(config: VggConfig, weights: VggWeights) -> None:
    if len(weights.conv) != CONV_LAYERS or len(weights.fc) != FC_LAYERS:
        raise ConfigurationError(
            f"need {CONV_LAYERS} conv and {FC_LAYERS} fc weight buffers"
        )
    for layer, ((cin, cout), buf) in enumerate(zip(config.conv_channel_plan(), weights.conv)):
        expect = (KERNEL_SIZE, KERNEL_SIZE, cin, cout)
        if buf.shape != expect:
            raise ConfigurationError(
                f"conv layer {layer}: weights shaped {buf.shape}, expected {expect}"
            )
    for layer, ((n_out, n_in), buf) in enumerate(zip(config.fc_dim_plan(), weights.fc)):
        if buf.shape != (n_out, n_in):
            raise ConfigurationError(
                f"fc layer {layer}: weights shaped {buf.shape}, expected {(n_out, n_in)}"
            )


def vgg_overlay() -> Overlay:
    return Overlay("vgg", [
        command(IP_REGISTRY["Convolution"], 0),
        command(IP_REGISTRY["Maxpool"], 1),
    ])


def vgg_rules() -> list[DependenceRule]:
    """The ten cross-queue handoffs between the two command queues.

    Consecutive convolutions share queue 0, so their ordering needs no rule;
    only the pool <-> conv alternation and the pool -> FC handoff cross queues.
    """
    rules = []
    for k, layer in enumerate(POOL_AFTER_LAYER):
        rules.append(depend(POOL_KINDS[k], CONV_KINDS[layer], 0))
        if k < POOL_LAYERS - 1:
            rules.append(depend(CONV_KINDS[layer + 1], POOL_KINDS[k], 0))
    rules.append(depend(FC_KINDS[0], POOL_KINDS[-1], 0))
    return rules


@dataclass
class VggOutputs:
    """DDR buffers the pipeline writes and callers read: pool staging, final result."""

    pool_out: TensorBuffer
    y: TensorBuffer


def vgg_generate_tasks(config: VggConfig, x: TensorBuffer, weights: VggWeights,
                       overlay: Overlay):
    """Enqueue the full per-map layer sequence; returns (tasks, rules, outputs).

    Flag settings per task: the first convolution reads DDR and stores to the
    feature buffer; middle convolutions read and store the feature buffer;
    the last pool writes DDR; FC layers read and write DDR only.  View
    arguments on the feature-buffer side of a task are dummies and ignored.
    """
    expect = (config.height, config.width, config.in_channels, config.batch)
    if x.shape != expect:
        raise ConfigurationError(f"input shaped {x.shape}, expected {expect}")
    _check_weights(config, weights)
    dtype = x.dtype
    ph, pw = config.pooled_extents()
    pool_out = new_buffer((ph, pw, config.stage_channels[-1], config.batch), dtype=dtype)
    f0 = new_buffer((config.fc_widths[0], config.batch), dtype=dtype)
    f1 = new_buffer((config.fc_widths[1], config.batch), dtype=dtype)
    y = new_buffer((config.fc_widths[2], config.batch), dtype=dtype)

    dummy_in = x.view()
    dummy_out = y.view()
    conv_w = [w.view() for w in weights.conv]
    fc_w = [w.view() for w in weights.fc]
    # the pool, if any, that follows each convolution layer
    pool_after = [POOL_AFTER_LAYER.index(layer) if layer in POOL_AFTER_LAYER else None
                  for layer in range(CONV_LAYERS)]
    last_pool = POOL_LAYERS - 1
    enqueue = overlay.enqueue
    tasks: list[TaskInstance] = []
    for i in range(config.batch):
        # each map's DDR views, built once: pool_view is the last pool's
        # output and the first FC layer's input, f0/f1 one FC layer's output
        # and the next one's input
        pool_view = cropped(pool_out, 3, i, 1)
        f0_view, f1_view = cropped(f0, 1, i, 1), cropped(f1, 1, i, 1)
        fc_in = (pool_view, f0_view, f1_view)
        fc_out = (f0_view, f1_view, cropped(y, 1, i, 1))
        for layer in range(CONV_LAYERS):
            if layer == 0:
                args = [cropped(x, 3, i, 1), dummy_out, conv_w[0], False, True, True, False]
            else:
                args = [dummy_in, dummy_out, conv_w[layer], True, True, True, False]
            tasks.append(enqueue(0, args, i, CONV_KINDS[layer]))
            k = pool_after[layer]
            if k is None:
                continue
            if k < last_pool:
                tasks.append(enqueue(1, [dummy_out, True], i, POOL_KINDS[k]))
            else:
                tasks.append(enqueue(1, [pool_view, False], i, POOL_KINDS[k]))
        for k in range(FC_LAYERS):
            args = [fc_in[k], fc_out[k], fc_w[k], False, False, True, True]
            tasks.append(enqueue(0, args, i, FC_KINDS[k]))
    return tasks, vgg_rules(), VggOutputs(pool_out, y)


def vgg_forward(config: VggConfig, x: TensorBuffer, weights: VggWeights,
                worker_count: int = 1) -> TensorBuffer:
    """Run the pipeline; returns the buffer of final FC outputs, one column per map.

    No softmax is applied; that is left to whoever consumes the result.
    """
    overlay = vgg_overlay()
    tasks, rules, outputs = vgg_generate_tasks(config, x, weights, overlay)
    graph = build_task_graph(tasks, rules)
    run(overlay, graph, worker_count)
    return outputs.y
